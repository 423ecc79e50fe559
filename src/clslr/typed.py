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

from .engine import (
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


def typed_find_redexes(rules, model_term: Pattern, classif: Classification,
                       **options) -> list:
    """Every label of ``model_term`` that :func:`typed_ok` admits, in order.

    ``options`` are those of :func:`clslr.engine.find_redexes` but
    ``label_filter``, which this function sets.
    """
    return find_redexes(rules, model_term, **options,
                        label_filter=_admitted(classif))


def typed_run(term: Pattern, rules, classif: Classification,
              **options) -> Trace:
    """Like :func:`clslr.engine.run` with untypable labels filtered out.

    ``options`` are those of :func:`clslr.engine.run` but ``label_filter``,
    which this function sets.  The filter consults the current term, so it
    is re-evaluated as the term evolves within a parallel step.
    """
    return run(term, rules, **options, label_filter=_admitted(classif))


def _admitted(classif: Classification):
    """A label filter that admits what :func:`typed_ok` admits.

    A label's verdict depends only on its schema, its rule, the basis
    :func:`infer_basis` gives its binding and the membrane of the loop that
    grants it (none at the root or for a global rule), so the filter asks
    :func:`typed_ok` once per such key.  A classification miss raises every
    time and is never kept.
    """
    verdicts: dict = {}

    def admitted(mt, label):
        basis = infer_basis(label.binding_dict(), classif)
        loop = (None if label.schema == SCHEMA_GRT
                else label_site(mt, label.schema, label.path)[2])
        key = (label.schema, label.rule, tuple(basis.items()),
               None if loop is None else loop.membrane)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = typed_ok(mt, label, classif)
        return verdict

    return admitted


def subject_reduction_check(before: Pattern, after: Pattern,
                            classif: Classification) -> bool:
    """Whether the type of ``after`` is contained in the type of ``before``."""
    try:
        t_before = pattern_type({}, classif, normalize(before))
        t_after = pattern_type({}, classif, normalize(after))
    except TypingError:
        return False
    return contained(t_after, t_before)
