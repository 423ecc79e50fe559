"""Typed reduction: labels are admitted only when locally well typed.

Each candidate label carries its own match, so the basis for judging it is
inferred from the match images alone.  A global label must satisfy the
containment check for its rule under that basis.  A local label must make
the embedded rule occurrence typable under that basis, and the head of the
rule's type must be granted by the membrane enclosing the occurrence (the
membrane being crossed, for out rules); the root compartment grants
everything.

An untypable label is filtered out, not an error, so typed reduction of a
badly classified model simply gets stuck earlier.  Lookups of elements
missing from a strict classification do raise.
"""

from __future__ import annotations

from functools import partial

from .engine import (
    DEFAULT_MATCH_CAP,
    DEFAULT_STEP_CAP,
    SCHEMA_GRT,
    ReductionLabel,
    Trace,
    find_redexes,
    label_site,
    run,
)
from .matching import UnboundVariableError
from .terms import Pattern, normalize
from .typecheck import (
    Classification,
    SideConditionError,
    TypingError,
    check_global,
    contained,
    infer_basis,
    membrane_type,
    pattern_type,
)


def typed_ok(mt: Pattern, label: ReductionLabel, classif: Classification) -> bool:
    """Whether a label is admitted by the type discipline."""
    basis = infer_basis(label.binding_dict(), classif)
    try:
        if label.schema == SCHEMA_GRT:
            return check_global(basis, classif, label.rule)
        ptype = pattern_type(basis, classif, label.rule)
        # the membrane enclosing the rule's compartment must grant it (the
        # root grants everything)
        loop = label_site(mt, label.schema, label.path)[2]
        if loop is not None:
            granted = membrane_type({}, classif, loop.membrane)
            head = ptype[0] if ptype else frozenset()
            if not head <= granted:
                return False
        return True
    except (SideConditionError, UnboundVariableError):
        return False
    except TypingError as err:
        if err.judgment == "classification":
            raise
        return False


def typed_find_redexes(rules, model_term: Pattern, classif: Classification,
                       match_cap: int = DEFAULT_MATCH_CAP) -> list:
    """Every label of ``model_term`` that :func:`typed_ok` admits, in order."""
    return find_redexes(rules, model_term, match_cap=match_cap,
                        label_filter=partial(typed_ok, classif=classif))


def typed_run(term: Pattern, rules, classif: Classification, *, steps: int = 1,
              strategy: str = "maximal", seed: int = 0, k: int | None = None,
              match_cap: int = DEFAULT_MATCH_CAP,
              step_cap: int = DEFAULT_STEP_CAP) -> Trace:
    """Like :func:`clslr.engine.run` with untypable labels filtered out.

    The filter consults the current term, so it is re-evaluated as the
    term evolves within a parallel step.
    """
    return run(term, rules, steps=steps, strategy=strategy, seed=seed,
               k=k, match_cap=match_cap, step_cap=step_cap,
               label_filter=partial(typed_ok, classif=classif))


def subject_reduction_check(before: Pattern, after: Pattern,
                            classif: Classification) -> bool:
    """Whether the type of ``after`` is contained in the type of ``before``."""
    try:
        t_before = pattern_type({}, classif, normalize(before))
        t_after = pattern_type({}, classif, normalize(after))
    except TypingError:
        return False
    return contained(t_after, t_before)
