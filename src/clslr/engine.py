"""Redex discovery, the four application schemas, parallel steps, traces.

A reduction rewrites material found at an evaluation context: a hole that
sits beside arbitrary siblings at the root or inside any membrane, but
never inside a sequence or a rule body.  A context path records the steps
to a hole: an integer enters a parallel member, the step ``"loop"`` enters
a membrane's content.

Four schemas produce labels:

``GRT``     a global rule rewrites matched material anywhere.
``LR``      a plain local rule rewrites sibling material in its compartment.
``LR-Out``  an out rule sends material across its own membrane, rewriting it.
``LR-In``   an in rule sends sibling material into a sibling membrane.

Material produced by an application is wrapped in frozen marks, and within
one parallel step nothing frozen may be matched again, the rule occurrence
used must itself be unmarked, and a membrane that crossed material becomes
frozen.  A parallel step applies any number of single reductions under this
discipline and then erases all marks.

Labels are replayable: applying them in order to the recorded initial term
deterministically reproduces the run, which is what
:func:`verify_decomposition` checks.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from itertools import islice

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
    Seq,
    SeqVar,
    TermVar,
    erase,
    has_marks,
    is_ground,
    members_of,
    min_rotation,
    normalize,
)

DEFAULT_STEP_CAP = 10**5

SCHEMA_GRT = "GRT"
SCHEMA_LR = "LR"
SCHEMA_LR_OUT = "LR-Out"
SCHEMA_LR_IN = "LR-In"

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


@dataclass(frozen=True)
class ReductionLabel:
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


@dataclass(frozen=True)
class Trace:
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
    cur = mt
    for step in path:
        if step == "loop":
            if not isinstance(cur, Loop):
                raise StaleLabelError(f"no membrane at {path}")
            cur = cur.content
        else:
            if not isinstance(cur, Par) or not (0 <= step < len(cur.parts)):
                raise StaleLabelError(f"no parallel member at {path}")
            cur = cur.parts[step]
    return cur


def replace_at(mt: Pattern, path: tuple, new: Pattern) -> Pattern:
    if not path:
        return new
    step, rest = path[0], path[1:]
    if step == "loop":
        if not isinstance(mt, Loop):
            raise StaleLabelError("path enters a membrane that is not there")
        return Loop(mt.membrane, replace_at(mt.content, rest, new), mt.mem_frozen)
    if not isinstance(mt, Par) or not (0 <= step < len(mt.parts)):
        raise StaleLabelError("path enters a parallel member that is not there")
    parts = list(mt.parts)
    parts[step] = replace_at(parts[step], rest, new)
    return Par(tuple(parts))


def compartment_sites(mt: Pattern) -> list:
    """``(path, content)`` for every reachable membrane content and the root.

    Innermost compartments come first and the root last, so that within a
    parallel step material is exported across a membrane before an import
    freezes that membrane.  Frozen subtrees are opaque; a membrane's
    content is entered even when the membrane itself is frozen (only the
    membrane, not the content, was produced).
    """
    out: list = []

    def walk(path: tuple, content: Pattern) -> None:
        members = members_of(content)
        in_par = isinstance(content, Par)
        for i, m in enumerate(members):
            if isinstance(m, Loop):
                mpath = path + ((i,) if in_par else ()) + ("loop",)
                walk(mpath, m.content)
                out.append((mpath, m.content))

    walk((), mt)
    out.append(((), mt))
    return out


# --------------------------------------------------------------------------
# redex discovery

def find_redexes(rules, mt: Pattern, match_cap: int = DEFAULT_MATCH_CAP, *,
                 label_filter=None, first: bool = False,
                 spent=None) -> list:
    """The reduction labels of ``mt`` under the freeze discipline.

    Deterministic order: sites innermost first and the root last (see
    :func:`compartment_sites`), then schema (GRT, LR, LR-Out, LR-In), then
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
    for site_path, content in compartment_sites(mt):
        loop = node_at(mt, site_path[:-1]) if site_path else None
        if loop in spent:
            continue
        empty = True
        for lbl in _site_labels(rules, site_path, loop, content, budget):
            empty = False
            if lbl not in seen:
                seen.add(lbl)
                yield lbl
        if empty and loop is not None:
            spent.add(loop)


def _site_labels(rules, site_path: tuple, loop, content: Pattern,
                 budget: _Budget):
    """The labels matched at one site; ``loop`` encloses it (None at root)."""
    members = members_of(content)
    unmarked = tuple(i for i, m in enumerate(members) if not has_marks(m))

    def label(schema, rule, path, inst, residue):
        return ReductionLabel(schema, rule, path, _binding_items(inst),
                              residue)

    for rule in rules:
        for inst, _ in _hits(rule, members, unmarked, {}, budget):
            yield label(SCHEMA_GRT, rule, site_path, inst, EPS)

    for ri in unmarked:
        occ = members[ri]
        if not isinstance(occ, PlainRule):
            continue
        pool = tuple(i for i in unmarked if i != ri)
        for inst, used in _hits(occ, members, pool, {}, budget):
            yield label(SCHEMA_LR, occ, site_path, inst,
                        _residue(members, {ri, *used}))

    if loop is not None and not loop.mem_frozen:
        for ri in unmarked:
            occ = members[ri]
            if not isinstance(occ, OutRule):
                continue
            pool = tuple(i for i in unmarked if i != ri)
            for m_inst in match_seq_rotations(occ.lhs_mem, loop.membrane, {},
                                              budget):
                for inst, used in _hits(occ, members, pool, m_inst, budget):
                    yield label(SCHEMA_LR_OUT, occ, site_path[:-1], inst,
                                _residue(members, {ri, *used}))

    for ri in unmarked:
        occ = members[ri]
        if not isinstance(occ, InRule):
            continue
        for li, m in enumerate(members):
            if li == ri or not isinstance(m, Loop) or m.mem_frozen:
                continue
            pool = tuple(i for i in unmarked if i not in (ri, li))
            for m_inst in match_seq_rotations(occ.lhs_mem, m.membrane, {},
                                              budget):
                for inst, _ in _hits(occ, members, pool, m_inst, budget):
                    yield label(SCHEMA_LR_IN, occ, site_path, inst,
                                normalize(erase(m.content)))


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


def _residue(members: tuple, consumed: set) -> Pattern:
    rest = tuple(m for i, m in enumerate(members) if i not in consumed)
    return normalize(erase(Par(rest)))


# --------------------------------------------------------------------------
# label application

def apply_label(mt: Pattern, label: ReductionLabel) -> Pattern:
    """Apply one label, enforcing the freeze discipline; raises on staleness.

    Deterministic re-location: the first unmarked fit (by member index) of
    the instantiated pieces, cross-checked against the stored residue.
    """
    mt = normalize(mt)
    inst = label.binding_dict()
    if label.schema == SCHEMA_GRT:
        return _apply_grt(mt, label, inst)
    if label.schema == SCHEMA_LR:
        return _apply_lr(mt, label, inst)
    if label.schema == SCHEMA_LR_OUT:
        return _apply_out(mt, label, inst)
    if label.schema == SCHEMA_LR_IN:
        return _apply_in(mt, label, inst)
    raise StaleLabelError(f"unknown schema {label.schema!r}")


def _take(members: tuple, lhs: Pattern, inst: dict, excluded: set):
    needed = members_of(substitute(lhs, inst))
    if not needed:
        raise StaleLabelError("matched material instantiates to eps")
    allowed = tuple(i for i, m in enumerate(members)
                    if i not in excluded and not has_marks(m))
    got = _consume(members, allowed, needed)
    if got is None:
        raise StaleLabelError("matched material is no longer available unmarked")
    return set(got[0])


def _rebuild(members) -> Pattern:
    return normalize(Par(tuple(members)))


def _check_residue(members: tuple, consumed: set, expected: Pattern) -> None:
    if _residue(members, consumed) != expected:
        raise StaleLabelError("stored residue does not match the site")


def _apply_grt(mt, label, inst):
    content = node_at(mt, label.path)
    members = members_of(content)
    if label.residue != EPS:
        raise StaleLabelError("global redexes carry an empty residue")
    taken = _take(members, label.rule.lhs, inst, set())
    keep = [m for i, m in enumerate(members) if i not in taken]
    produced = Frozen(substitute(label.rule.rhs, inst))
    return normalize(replace_at(mt, label.path, _rebuild([*keep, produced])))


def _find_occurrence(members: tuple, rule) -> int:
    for i, m in enumerate(members):
        if m == rule:
            return i
    raise StaleLabelError("rule occurrence is gone")


def _apply_lr(mt, label, inst):
    content = node_at(mt, label.path)
    members = members_of(content)
    ri = _find_occurrence(members, label.rule)
    taken = _take(members, label.rule.lhs, inst, {ri})
    _check_residue(members, taken | {ri}, label.residue)
    keep = [m for i, m in enumerate(members) if i not in taken and i != ri]
    produced = Frozen(substitute(label.rule.rhs, inst))
    site = _rebuild([*keep, members[ri], produced])
    return normalize(replace_at(mt, label.path, site))


def _apply_out(mt, label, inst):
    lp = node_at(mt, label.path)
    if not isinstance(lp, Loop) or lp.mem_frozen:
        raise StaleLabelError("membrane to cross is gone or already frozen")
    if min_rotation(subst_seq(label.rule.lhs_mem, inst)) != lp.membrane:
        raise StaleLabelError("membrane no longer matches the rule")
    members = members_of(lp.content)
    ri = _find_occurrence(members, label.rule)
    taken = _take(members, label.rule.lhs, inst, {ri})
    _check_residue(members, taken | {ri}, label.residue)
    keep = [m for i, m in enumerate(members) if i not in taken and i != ri]
    new_loop = Loop(min_rotation(subst_seq(label.rule.rhs_mem, inst)),
                    _rebuild([*keep, members[ri]]), mem_frozen=True)
    ejected = Frozen(substitute(label.rule.rhs, inst))
    return normalize(replace_at(mt, label.path, Par((ejected, new_loop))))


def _apply_in(mt, label, inst):
    content = node_at(mt, label.path)
    members = members_of(content)
    ri = _find_occurrence(members, label.rule)
    mem = min_rotation(subst_seq(label.rule.lhs_mem, inst))
    li = next((i for i, m in enumerate(members)
               if i != ri and isinstance(m, Loop) and not m.mem_frozen
               and m.membrane == mem
               and normalize(erase(m.content)) == label.residue), None)
    if li is None:
        raise StaleLabelError("target membrane is gone or already frozen")
    taken = _take(members, label.rule.lhs, inst, {ri, li})
    target = members[li]
    injected = Frozen(substitute(label.rule.rhs, inst))
    new_loop = Loop(min_rotation(subst_seq(label.rule.rhs_mem, inst)),
                    _rebuild([*members_of(target.content), injected]),
                    mem_frozen=True)
    keep = [m for i, m in enumerate(members)
            if i not in taken and i not in (ri, li)]
    site = _rebuild([*keep, members[ri], new_loop])
    return normalize(replace_at(mt, label.path, site))


# --------------------------------------------------------------------------
# parallel reduction

def run(term: Pattern, rules, *, steps: int = 1, strategy: str = "maximal",
        seed: int = 0, k: int | None = None,
        match_cap: int = DEFAULT_MATCH_CAP, step_cap: int = DEFAULT_STEP_CAP,
        label_filter=None) -> Trace:
    """Perform up to ``steps`` parallel steps and record the labels applied.

    Strategies: ``single`` applies the first redex; ``random-k`` applies up
    to ``k`` seeded-random redexes; ``maximal`` applies redexes until none
    remains.  A step that applies nothing ends the run early.
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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if (strategy == "random-k") != (k is not None):
        raise ValueError("k is required exactly when the strategy is random-k")
    initial = normalize(term)
    if has_marks(initial):
        raise ValueError("cannot start from a marked term")
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


def parallel_reduce(term: Pattern, rules, strategy: str = "maximal",
                    seed: int = 0, k: int | None = None,
                    match_cap: int = DEFAULT_MATCH_CAP,
                    step_cap: int = DEFAULT_STEP_CAP) -> Trace:
    """One parallel step of ``term`` under ``rules``."""
    return run(term, rules, steps=1, strategy=strategy, seed=seed, k=k,
               match_cap=match_cap, step_cap=step_cap)


def replay(trace: Trace) -> Pattern:
    """Re-apply every label of a trace; returns the final term it reaches."""
    cur = normalize(trace.initial)
    for rnd in trace.rounds:
        mt = cur
        for lbl in rnd:
            mt = apply_label(mt, lbl)
        cur = normalize(erase(mt))
    return cur


def verify_decomposition(trace: Trace) -> bool:
    """Check that a trace is a valid parallel reduction.

    Replays every label under the strict freeze discipline (each must
    rewrite only unmarked material, produced regions stay disjoint) and
    checks the recorded final term.  Every trace produced by :func:`run` is
    valid; a hand-built label that rewrites inside a frozen region is not.
    """
    try:
        cur = normalize(trace.initial)
        if has_marks(cur):
            return False
        for rnd in trace.rounds:
            mt = cur
            for lbl in rnd:
                mt = apply_label(mt, lbl)
                if not _marks_sane(mt, inside_mark=False):
                    return False
            cur = normalize(erase(mt))
        return cur == normalize(trace.final)
    except (StaleLabelError, UnboundVariableError, MatchCapError):
        return False


def _marks_sane(p: Pattern, inside_mark: bool) -> bool:
    """Marks never nest and never occur inside rule bodies."""
    if isinstance(p, Frozen):
        return not inside_mark and _marks_sane(p.body, True)
    if isinstance(p, Loop):
        return _marks_sane(p.content, inside_mark)
    if isinstance(p, Par):
        return all(_marks_sane(m, inside_mark) for m in p.parts)
    if isinstance(p, PlainRule):
        return not (has_any_mark_node(p.lhs) or has_any_mark_node(p.rhs))
    if isinstance(p, (OutRule, InRule)):
        return not (has_any_mark_node(p.lhs) or has_any_mark_node(p.rhs))
    return True


def has_any_mark_node(p: Pattern) -> bool:
    if isinstance(p, Frozen):
        return True
    if isinstance(p, Loop):
        return p.mem_frozen or has_any_mark_node(p.content)
    if isinstance(p, Par):
        return any(has_any_mark_node(m) for m in p.parts)
    if isinstance(p, (PlainRule, OutRule, InRule)):
        return has_any_mark_node(p.lhs) or has_any_mark_node(p.rhs)
    return False
