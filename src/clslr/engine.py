"""Redex discovery, the four application schemas, parallel steps, traces.

A reduction rewrites material found at an evaluation context: a hole that
sits beside arbitrary siblings at the root or inside any membrane, but
never inside a sequence or a rule body.  A context path records the steps
to a hole: an integer enters a parallel member, the step ``"loop"`` enters
a membrane's content.

Four schemas produce labels.  :data:`SCHEMAS` maps each to the rule kind it
applies, in discovery order:

``GRT``     a global rule rewrites matched material anywhere.
``LR``      a plain local rule rewrites sibling material in its compartment.
``LR-Out``  an out rule sends material across its own membrane, rewriting it.
``LR-In``   an in rule sends sibling material into a sibling membrane.

All four match the left side in one compartment, keep the rule occurrence
and add the frozen right side; only where that goes, which membrane is
rewritten and what the stored residue means depend on the schema, and
:func:`_candidates` alone says where: discovery asks it at every site,
application at the one :func:`label_site` finds, for the label's schema.

Material produced by an application is wrapped in frozen marks, and within
one parallel step nothing frozen may be matched again, the rule occurrence
used must itself be unmarked, and a membrane that crossed material becomes
frozen.  A parallel step applies any number of single reductions under this
discipline and then erases all marks.

Labels are replayable: applying them in order to the recorded initial term
deterministically reproduces the run, which is what
:func:`verify_decomposition` checks.

An application edits normal forms in place: the members of a normalized
compartment are sorted, so its residue and its rewritten content are
spliced (:func:`~clslr.terms.splice`) rather than sorted again, and each
level of the path back to the root is rebuilt the same way.
"""

from __future__ import annotations

import random
import weakref
from itertools import islice
from typing import NamedTuple

from .matching import (
    DEFAULT_MATCH_CAP,
    MatchCapError,
    UnboundVariableError,
    _Budget,
    _consume,
    match_parts,
    match_seq_rotations,
    subst_seq,
    substitute,
)
from .terms import (
    EPS,
    ElemVar,
    Frozen,
    GlobalRule,
    InRule,
    LocalRule,
    Loop,
    OutRule,
    Par,
    Pattern,
    PlainRule,
    SeqVar,
    TermVar,
    erase,
    has_marks,
    is_ground,
    members_of,
    min_rotation,
    normalize,
    splice,
)

DEFAULT_STEP_CAP = 10**5

SCHEMA_GRT = "GRT"
SCHEMA_LR = "LR"
SCHEMA_LR_OUT = "LR-Out"
SCHEMA_LR_IN = "LR-In"

# schema -> the kind of rule it applies, in discovery order
SCHEMAS = {SCHEMA_GRT: GlobalRule, SCHEMA_LR: PlainRule,
           SCHEMA_LR_OUT: OutRule, SCHEMA_LR_IN: InRule}

STRATEGIES = ("single", "random-k", "maximal")


class StaleLabelError(Exception):
    """A label no longer denotes a redex of the term it was applied to."""


class StepCapError(Exception):
    """A parallel step exceeded the single-application cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"parallel step exceeded {cap} applications")


_VAR_RANK = {ElemVar: 0, SeqVar: 1, TermVar: 2}


def _binding_items(inst: dict) -> tuple:
    return tuple(sorted(inst.items(), key=lambda kv: (_VAR_RANK[type(kv[0])], kv[0].name)))


class ReductionLabel(NamedTuple):
    """One single-reduction step: schema, rule, hole path, match, residue.

    ``path`` addresses the match site (for ``LR-Out``: the membrane being
    crossed).  ``residue`` is the sibling material the schema leaves in
    place, stored mark-free; for ``GRT`` it is eps and the matched material
    is re-located as the first unmarked fit of the instantiated lhs.
    """

    schema: str
    rule: GlobalRule | LocalRule
    path: tuple
    binding: tuple
    residue: Pattern

    def binding_dict(self) -> dict:
        return dict(self.binding)


class Trace(NamedTuple):
    """A run: the initial term, labels grouped by parallel step, the final term."""

    initial: Pattern
    rounds: tuple
    final: Pattern
    seed: int = 0
    strategy: str = "maximal"
    k: int | None = None

    @property
    def labels(self) -> tuple:
        return tuple(lbl for rnd in self.rounds for lbl in rnd)


# --------------------------------------------------------------------------
# context navigation

def node_at(mt: Pattern, path: tuple) -> Pattern:
    return _spine(mt, path)[-1]


def replace_at(mt: Pattern, path: tuple, new: Pattern) -> Pattern:
    """``mt`` with ``new`` at ``path``, in normal form; ``mt`` must be one."""
    return _graft(_spine(mt, path), path, new)


def _spine(mt: Pattern, path: tuple) -> list:
    """The nodes ``path`` passes through: ``mt`` first, its target last."""
    spine = [mt]
    for step in path:
        cur = spine[-1]
        if step == "loop":
            if not isinstance(cur, Loop):
                raise StaleLabelError(f"no membrane at {path}")
            spine.append(cur.content)
        else:
            if not isinstance(cur, Par) or not (0 <= step < len(cur.parts)):
                raise StaleLabelError(f"no parallel member at {path}")
            spine.append(cur.parts[step])
    return spine


def _graft(spine: list, path: tuple, new: Pattern) -> Pattern:
    """The root of a :func:`_spine` along ``path``, ``new`` as its target.

    The spine must run through a normal form.  Each level up is rebuilt in
    normal form: a membrane is normalized around its new content, and a
    parallel composition has ``new`` spliced in for the member it replaces.
    """
    for node, step in zip(reversed(spine[:-1]), reversed(path)):
        if step == "loop":
            new = normalize(Loop(node.membrane, new, node.mem_frozen))
        else:
            new = splice(node.parts, (step,), (new,))
    return new


def compartment_sites(mt: Pattern) -> list:
    """``(path, loop)`` for every reachable compartment: ``loop`` is the
    membrane node whose content ``path`` enters, None for the root.

    Innermost compartments come first and the root last, so that within a
    parallel step material is exported across a membrane before an import
    freezes that membrane.  Frozen subtrees are opaque; a membrane's
    content is entered even when the membrane itself is frozen (only the
    membrane, not the content, was produced).
    """
    # pre-order with members taken last-first; reversed, innermost first
    out: list = []
    stack = [((), None)]
    while stack:
        path, loop = stack.pop()
        out.append((path, loop))
        content = mt if loop is None else loop.content
        in_par = isinstance(content, Par)
        for i, m in enumerate(members_of(content)):
            if isinstance(m, Loop):
                stack.append((path + ((i,) if in_par else ()) + ("loop",), m))
    return out[::-1]


# --------------------------------------------------------------------------
# redex discovery

def find_redexes(rules, mt: Pattern, match_cap: int = DEFAULT_MATCH_CAP, *,
                 label_filter=None, first: bool = False,
                 spent=None) -> list:
    """The reduction labels of ``mt`` under the freeze discipline.

    Deterministic order: sites innermost first and the root last (see
    :func:`compartment_sites`), then schema (in :data:`SCHEMAS` order), then
    rule/occurrence order, then match order.  Congruent decompositions
    yielding the same label are emitted once.

    Labels are discovered lazily.  ``label_filter(mt, label)``, when given,
    vetoes labels.  With ``first`` the scan stops at the first label the
    filter admits and returns at most that one, so ``match_cap`` bounds only
    the candidates tried up to it.

    ``spent``, a set or a ``weakref.WeakSet``, holds membrane (``Loop``)
    nodes whose compartment yielded no label at all when fully scanned:
    later scans skip those sites and add the newly spent ones.  The labels
    at an inner site depend only on ``rules`` and on its loop node (content,
    membrane and ``mem_frozen``), so one set may serve every scan made with
    the same ``rules``.  The root is never skipped.  Without ``spent``, a
    fresh set serves this scan.
    """
    mt = normalize(mt)
    found = _discover(rules, mt, _Budget(match_cap),
                      set() if spent is None else spent)
    if label_filter is not None:
        found = (lbl for lbl in found if label_filter(mt, lbl))
    return list(islice(found, 1) if first else found)


def _discover(rules, mt: Pattern, budget: _Budget, spent):
    """Generate the labels of :func:`find_redexes` in order, each once."""
    seen: set = set()
    for site_path, loop in compartment_sites(mt):
        if loop in spent:
            continue
        empty = True
        for lbl in _site_labels(rules, mt, site_path, loop, budget):
            empty = False
            if lbl not in seen:
                seen.add(lbl)
                yield lbl
        if empty and loop is not None:
            spent.add(loop)


def _site_labels(rules, mt: Pattern, site_path: tuple, loop,
                 budget: _Budget):
    """The labels at one site of ``mt``; ``loop`` encloses it (None at root)."""
    members = members_of(mt if loop is None else loop.content)
    unmarked = tuple(i for i, m in enumerate(members) if not has_marks(m))
    for schema, rule, path, held, crossed in _candidates(
            SCHEMAS, rules, site_path, loop, members, unmarked):
        pool = tuple(i for i in unmarked if i not in held)
        m_insts = (({},) if crossed is None else match_seq_rotations(
            rule.lhs_mem, crossed.membrane, {}, budget))
        for m_inst in m_insts:
            for inst, used in _hits(rule, members, pool, m_inst, budget):
                yield ReductionLabel(
                    schema, rule, path, _binding_items(inst),
                    _residue(schema, members, {*held, *used}, crossed))


def _candidates(schemas, rules, site_path: tuple, loop, members: tuple,
                unmarked: tuple):
    """``(schema, rule, path, held, crossed)`` per rule that may fire at a
    site, in ``schemas`` order: ``held`` are the member indices kept out of
    the match (the occurrence, the LR-In target), ``crossed`` the membrane
    node the rule's membrane side must match, or None."""
    for schema in schemas:
        kind = SCHEMAS[schema]
        if kind is GlobalRule:
            for rule in rules:
                yield schema, rule, site_path, (), None
            continue
        for ri in unmarked:
            occ = members[ri]
            if not isinstance(occ, kind):
                continue
            if kind is PlainRule:
                yield schema, occ, site_path, (ri,), None
            elif kind is InRule:
                for li, m in enumerate(members):
                    if li != ri and isinstance(m, Loop) and not m.mem_frozen:
                        yield schema, occ, site_path, (ri, li), m
            elif loop is not None and not loop.mem_frozen:
                yield schema, occ, site_path[:-1], (ri,), loop


def _hits(rule, members: tuple, pool: tuple, m_inst: dict, budget: _Budget):
    """``(inst, used)`` for each match of ``rule``'s lhs that uses material
    and binds every variable of the rhs."""
    lhs = members_of(normalize(rule.lhs))
    for inst, used in match_parts(lhs, members, pool, m_inst, budget,
                                  require_all=False):
        if used and _rhs_ok(rule, inst):
            yield inst, used


def _rhs_ok(rule, inst: dict) -> bool:
    # a match never invents bindings; skip redexes whose rhs needs one
    try:
        substitute(rule.rhs, inst)
        if isinstance(rule, (OutRule, InRule)):
            subst_seq(rule.rhs_mem, inst)
    except UnboundVariableError:
        return False
    return True


def _residue(schema: str, members: tuple, consumed: set,
             crossed) -> Pattern:
    """What a label stores of its site, mark-free: eps for GRT, the target's
    content for LR-In, otherwise the members left beside the rule."""
    if schema == SCHEMA_GRT:
        return EPS
    if schema == SCHEMA_LR_IN:
        return normalize(erase(crossed.content))
    # the marked members left are taken out, erased and spliced back in
    marked = [i for i, m in enumerate(members)
              if i not in consumed and has_marks(m)]
    return splice(members, consumed.union(marked),
                  [erase(members[i]) for i in marked])


# --------------------------------------------------------------------------
# label application

def apply_label(mt: Pattern, label: ReductionLabel) -> Pattern:
    """Apply one label, enforcing the freeze discipline; raises on staleness.

    Of the candidates :func:`_candidates` gives for the label's schema and
    rule at its :func:`label_site`, the first whose crossed membrane fits,
    whose other unmarked members hold the instantiated lhs (first fit) and
    whose residue is the stored one is rewritten; else the
    :class:`StaleLabelError` names the furthest check reached.
    """
    schema, rule = label.schema, label.rule
    if SCHEMAS.get(schema) is not type(rule):
        raise StaleLabelError(
            f"schema {schema!r} does not apply a {type(rule).__name__}")
    mt = normalize(mt)
    inst = label.binding_dict()
    spine, site_path, loop, members = label_site(mt, schema, label.path)
    unmarked = tuple(i for i, m in enumerate(members) if not has_marks(m))
    needed = members_of(substitute(rule.lhs, inst))  # eps is no redex
    reached = 0  # checks passed by the furthest candidate, indexes _STALE
    for _, occ, _, held, crossed in _candidates(
            (schema,), (rule,), site_path, loop, members, unmarked):
        if occ is not rule:
            continue
        if crossed is not None and crossed.membrane != min_rotation(
                subst_seq(rule.lhs_mem, inst)):
            reached = max(reached, 1)
            continue
        got = needed and _consume(
            members, tuple(i for i in unmarked if i not in held), needed)
        if not got:
            reached = max(reached, 2)
            continue
        taken = set(got[0])
        if _residue(schema, members, taken.union(held), crossed) == label.residue:
            break
        reached = 3
    else:
        raise StaleLabelError(_STALE[reached])
    produced = Frozen(substitute(rule.rhs, inst))
    if schema == SCHEMA_LR_OUT:
        # the produced material leaves across the crossed membrane
        new = splice((), (), (produced, _crossed(
            rule, inst, splice(members, taken, ()))))
    elif schema == SCHEMA_LR_IN:
        # the produced material enters the target membrane
        content = splice(members_of(crossed.content), (), (produced,))
        new = splice(members, taken.union(held[1:]),
                     (_crossed(rule, inst, content),))
    else:
        new = splice(members, taken, (produced,))
    return normalize(_graft(spine[:len(label.path) + 1], label.path, new))


_STALE = ("rule occurrence or membrane is gone",
          "membrane no longer matches the rule",
          "matched material is no longer available unmarked",
          "stored residue does not match the site")


def label_site(mt: Pattern, schema: str, path: tuple):
    """``(spine, site_path, loop, members)`` of the compartment a label at
    ``path`` rewrites: an LR-Out path names the crossed membrane, any other
    the compartment itself (a parallel member stands alone).  ``loop`` is
    the membrane node enclosing it, None at the root or a parallel member.
    """
    site_path = path + ("loop",) if schema == SCHEMA_LR_OUT else path
    spine = _spine(mt, site_path)
    loop = spine[-2] if site_path[-1:] == ("loop",) else None
    return spine, site_path, loop, members_of(spine[-1])


def _crossed(rule, inst: dict, content: Pattern) -> Loop:
    """The membrane a crossing rule rewrote, frozen for the rest of the step."""
    return Loop(min_rotation(subst_seq(rule.rhs_mem, inst)), content, True)


# --------------------------------------------------------------------------
# parallel reduction

def run(term: Pattern, rules, *, steps: int = 1, strategy: str = "maximal",
        seed: int = 0, k: int | None = None,
        match_cap: int = DEFAULT_MATCH_CAP, step_cap: int = DEFAULT_STEP_CAP,
        label_filter=None) -> Trace:
    """Perform up to ``steps`` parallel steps and record the labels applied.

    Strategies: ``single`` applies the first redex; ``random-k`` applies up
    to ``k`` seeded-random redexes; ``maximal`` applies redexes until none
    remains.  A step that applies nothing ends the run early.  A marked or
    non-ground ``term`` raises ``ValueError``.
    ``label_filter(mt, label)``, when given, vetoes candidate labels; the
    term passed to it is the current marked state.

    Before each application the term is scanned again.  ``single`` and
    ``maximal`` scans stop at the first admitted label, the one they apply;
    ``random-k`` scans list every admitted label to draw from.  The run
    keeps one memo of spent compartments: membrane nodes whose content
    yielded no label when fully scanned, which every later scan of the run
    skips (see :func:`find_redexes`).  The memo holds its nodes weakly, so
    it never keeps a term of an earlier step alive.
    """
    _check_strategy(strategy, k)
    initial = normalize(term)
    if has_marks(initial) or not is_ground(initial):
        raise ValueError("a run starts from a ground, mark-free term")
    rng = random.Random(seed)
    first = strategy != "random-k"
    spent = weakref.WeakSet()

    def redexes(mt):
        return find_redexes(rules, mt, match_cap=match_cap,
                            label_filter=label_filter, first=first,
                            spent=spent)

    cur = initial
    rounds = []
    for _ in range(steps):
        mt, applied = _one_round(cur, redexes, strategy, rng, k, step_cap)
        if not applied:
            break
        rounds.append(applied)
        cur = normalize(erase(mt))
    return Trace(initial, tuple(rounds), cur, seed, strategy, k)


def _check_strategy(strategy: str, k) -> None:
    """Raise ``ValueError`` unless ``strategy`` is one of :data:`STRATEGIES`
    and ``k`` is a positive integer for ``random-k`` and None otherwise."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if (strategy == "random-k") != (k is not None):
        raise ValueError("k is required exactly when the strategy is random-k")
    if k is not None and (type(k) is not int or k < 1):
        raise ValueError(f"k must be a positive integer, not {k!r}")


def _one_round(mt, redexes, strategy, rng, k, step_cap):
    applied: list[ReductionLabel] = []
    while True:
        if strategy == "single" and applied:
            break
        if strategy == "random-k" and len(applied) >= k:
            break
        if len(applied) >= step_cap:
            raise StepCapError(step_cap)
        labels = redexes(mt)
        if not labels:
            break
        if strategy == "random-k":
            lbl = labels[rng.randrange(len(labels))]
        else:
            lbl = labels[0]
        mt = apply_label(mt, lbl)
        applied.append(lbl)
    return mt, tuple(applied)


def replay(trace: Trace) -> Pattern:
    """Re-apply every label of a trace; returns the final term it reaches."""
    return _replay(trace, strict=False)


def verify_decomposition(trace: Trace) -> bool:
    """Check that a trace is a valid parallel reduction.

    From a ground, mark-free initial term, replays every label under the
    strict freeze discipline (each must rewrite only unmarked material,
    produced regions stay disjoint, and what it produces is mark-free) and
    checks the recorded final term.  Every trace produced by :func:`run` is
    valid; a hand-built label that rewrites inside a frozen region or
    produces a mark is not.
    """
    try:
        return (not has_marks(normalize(trace.initial))
                and is_ground(trace.initial)
                and _replay(trace, strict=True) == normalize(trace.final))
    except (StaleLabelError, UnboundVariableError, MatchCapError):
        return False


def _replay(trace: Trace, strict: bool) -> Pattern:
    """The term the labels reach, round by round.  With ``strict`` a label
    whose instantiated rhs carries a mark is stale: as a path cannot enter a
    ``Frozen`` node and atoms carry no marks, only that rhs can nest marks
    or mark a rule body."""
    cur = normalize(trace.initial)
    for rnd in trace.rounds:
        mt = cur
        for lbl in rnd:
            if strict and has_marks(substitute(lbl.rule.rhs, lbl.binding_dict())):
                raise StaleLabelError("marks nest or occur inside a rule body")
            mt = apply_label(mt, lbl)
        cur = normalize(erase(mt))
    return cur
