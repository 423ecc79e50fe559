"""Matching of patterns against ground terms, modulo structural congruence.

Matching works on canonical forms: parallel composition is a multiset,
membranes match up to rotation, sequences split around sequence variables,
and embedded rules match only nodes congruent componentwise (their bodies
are opaque, so a variable written inside a rule never binds anything).

Results are instantiations: plain dicts keyed by variable nodes.  Element
variables map to elements, sequence variables to atom tuples, term variables
to ground patterns.  Enumeration order is deterministic (leftmost splits
first, member candidates by ascending index, subset candidates in
lexicographic index order) and the result list is deduplicated up to
normalized images.

The number of candidate branch points is capped; exceeding the cap raises
:class:`MatchCapError` rather than silently truncating.
"""

from __future__ import annotations

import math

from .terms import (
    EPS,
    Atom,
    Element,
    ElemVar,
    Frozen,
    InRule,
    Loop,
    OutRule,
    Par,
    Pattern,
    PlainRule,
    Seq,
    SeqVar,
    TermVar,
    is_ground,
    members_of,
    normalize,
    sub_bag,
)

DEFAULT_MATCH_CAP = 10**6

Instantiation = dict


class UnboundVariableError(Exception):
    """A substitution image was required for a variable outside the domain."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"unbound variable: {variable}")


class MatchCapError(Exception):
    """The matcher exceeded its candidate budget."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"match exceeded the candidate cap of {cap}")


class _Budget:
    __slots__ = ("remaining", "cap")

    def __init__(self, cap: int):
        self.cap = cap
        self.remaining = cap

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise MatchCapError(self.cap)


# --------------------------------------------------------------------------
# substitution

def subst_seq(items: tuple[Atom, ...], inst: Instantiation) -> tuple[Atom, ...]:
    """Instantiate the atoms of a sequence, splicing sequence-variable images."""
    out: list[Atom] = []
    for a in items:
        if isinstance(a, Element):
            out.append(a)
        elif isinstance(a, ElemVar):
            if a not in inst:
                raise UnboundVariableError(a)
            out.append(inst[a])
        elif isinstance(a, SeqVar):
            if a not in inst:
                raise UnboundVariableError(a)
            out.extend(inst[a])
        else:
            raise TypeError(f"not an atom: {a!r}")
    return tuple(out)


def substitute(p: Pattern, inst: Instantiation) -> Pattern:
    """Apply an instantiation to a pattern and normalize the result.

    Embedded rules are returned verbatim: instantiation never reaches inside
    a rule body, so a ground pattern is only normalized.
    """
    return normalize(p if is_ground(p) else _subst(p, inst))


def _subst(p: Pattern, inst: Instantiation) -> Pattern:
    if isinstance(p, Seq):
        return Seq(subst_seq(p.items, inst))
    if isinstance(p, Loop):
        return Loop(subst_seq(p.membrane, inst), _subst(p.content, inst), p.mem_frozen)
    if isinstance(p, Par):
        return Par(tuple(_subst(m, inst) for m in p.parts))
    if isinstance(p, TermVar):
        if p not in inst:
            raise UnboundVariableError(p)
        return inst[p]
    if isinstance(p, (PlainRule, OutRule, InRule)):
        return p
    if isinstance(p, Frozen):
        return Frozen(_subst(p.body, inst))
    raise TypeError(f"not a pattern: {p!r}")


# --------------------------------------------------------------------------
# matching

def match(p: Pattern, t: Pattern, cap: int = DEFAULT_MATCH_CAP) -> list[Instantiation]:
    """All instantiations s with ``substitute(p, s)`` congruent to ``t``.

    ``t`` must be ground and mark-free.  The list is deterministic and
    deduplicated up to normalized images.
    """
    t = normalize(t)
    if not is_ground(t):
        raise ValueError("match target must be ground")
    p = normalize(p)
    budget = _Budget(cap)
    out: list[Instantiation] = []
    seen: set = set()
    for inst in _match(p, t, {}, budget):
        key = frozenset(inst.items())
        if key not in seen:
            seen.add(key)
            out.append(dict(inst))
    return out


def _match(p: Pattern, t: Pattern, inst: Instantiation, budget: _Budget):
    if isinstance(p, Frozen) or isinstance(t, Frozen):
        return
    if isinstance(p, TermVar):
        if p in inst:
            if inst[p] == t:
                yield inst
        else:
            yield {**inst, p: t}
        return
    if isinstance(p, Seq):
        if isinstance(t, Seq):
            yield from _match_seq(p.items, t.items, inst, budget)
        return
    if isinstance(p, Loop):
        if isinstance(t, Loop) and not t.mem_frozen:
            for inst2 in match_seq_rotations(p.membrane, t.membrane, inst, budget):
                yield from _match(p.content, t.content, inst2, budget)
        elif t == EPS:
            # the empty membrane around the empty term is congruent to eps
            for inst2 in _match_seq(p.membrane, (), inst, budget):
                yield from _match(p.content, EPS, inst2, budget)
        return
    if isinstance(p, (PlainRule, OutRule, InRule)):
        # rules match rules congruent componentwise; bodies bind nothing
        if p == t:
            yield inst
        return
    if isinstance(p, Par):
        members = members_of(t)
        pool = tuple(range(len(members)))
        for inst2, used in match_parts(list(p.parts), members, pool, inst, budget,
                                       require_all=True):
            yield inst2


def _match_seq(pat: tuple[Atom, ...], term: tuple[Atom, ...],
               inst: Instantiation, budget: _Budget):
    """Match a flat atom sequence, leftmost split first."""
    if not pat:
        if not term:
            yield inst
        return
    head, rest = pat[0], pat[1:]
    if isinstance(head, Element):
        if term and term[0] == head:
            yield from _match_seq(rest, term[1:], inst, budget)
        return
    if isinstance(head, ElemVar):
        if head in inst:
            if term and term[0] == inst[head]:
                yield from _match_seq(rest, term[1:], inst, budget)
        elif term:
            budget.spend()
            yield from _match_seq(rest, term[1:], {**inst, head: term[0]}, budget)
        return
    if isinstance(head, SeqVar):
        if head in inst:
            img = inst[head]
            if term[:len(img)] == img:
                yield from _match_seq(rest, term[len(img):], inst, budget)
            return
        for k in range(len(term) + 1):
            budget.spend()
            yield from _match_seq(rest, term[k:], {**inst, head: term[:k]}, budget)
        return
    raise TypeError(f"not an atom: {head!r}")


def match_seq_rotations(pat: tuple[Atom, ...], term: tuple[Atom, ...],
                        inst: Instantiation, budget: _Budget):
    """Match a membrane sequence against every rotation of a ground membrane."""
    if not term:
        yield from _match_seq(pat, (), inst, budget)
        return
    for r in range(len(term)):
        budget.spend()
        yield from _match_seq(pat, term[r:] + term[:r], inst, budget)


def match_parts(parts: list[Pattern], members: tuple[Pattern, ...],
                pool: tuple[int, ...], inst: Instantiation, budget: _Budget,
                require_all: bool):
    """Match parallel parts against a pool of member indices.

    Returns a lazy generator of ``(inst, used)``, ``used`` the sorted tuple
    of consumed indices.  With ``require_all`` the pool must be consumed exactly
    (ordinary matching); without it, leftover members are allowed (redex
    selection inside a larger compartment).

    Term-variable parts absorb arbitrary sub-multisets; every other part
    consumes one member or vanishes, when its variables allow the empty
    image.  Candidates that would only repeat an equal member value at the
    same position are skipped: they cannot produce new instantiations.

    ``members`` must be the members of a normalized pattern.  The image of
    an unbound term variable is then built in canonical form from its index
    combination (:func:`~clslr.terms.sub_bag`), with no re-normalization.
    When the variable is repeated ``k`` times in a row, as in a normalized
    ``$X | $X``, only combinations whose image the ``k - 1`` bound copies
    can also take are built (:func:`_fitting_combinations`).  The budget is
    still spent once per index combination, repeats and skipped ones
    included, and the enumeration stops at the same point when it runs out.
    """
    concrete = [q for q in parts if not isinstance(q, TermVar)]
    tvars = [q for q in parts if isinstance(q, TermVar)]
    return _parts(concrete + tvars, 0, members, pool, inst, (), budget, require_all)


def _parts(ordered: list[Pattern], i: int, members: tuple[Pattern, ...],
           remaining: tuple[int, ...], cur: Instantiation, used: tuple[int, ...],
           budget: _Budget, require_all: bool):
    """The search of :func:`match_parts` from part ``i`` on.  Its state is
    passed as arguments, so no closure refers to the generator itself and a
    call leaves no reference cycle behind."""
    if i == len(ordered):
        if require_all and remaining:
            return
        yield cur, tuple(sorted(used))
        return
    part = ordered[i]
    if isinstance(part, TermVar):
        if part in cur:
            got = _consume(members, remaining, members_of(cur[part]))
            if got is not None:
                taken, rest = got
                yield from _parts(ordered, i + 1, members, rest, cur, used + taken,
                                  budget, require_all)
            return
        # the k - 1 occurrences right after this one will consume its image
        k = 1
        while i + k < len(ordered) and ordered[i + k] is part:
            k += 1
        seen_values: set = set()
        for combo in _fitting_combinations(members, remaining, k, budget):
            budget.spend()
            image = sub_bag(members, combo)
            if image in seen_values:
                continue
            seen_values.add(image)
            rest = tuple(j for j in remaining if j not in combo)
            yield from _parts(ordered, i + 1, members, rest, {**cur, part: image},
                              used + combo, budget, require_all)
        return
    seen_members: set = set()
    for idx in remaining:
        m = members[idx]
        if m in seen_members:
            continue
        seen_members.add(m)
        budget.spend()
        rest = tuple(j for j in remaining if j != idx)
        for cur2 in _match(part, m, cur, budget):
            yield from _parts(ordered, i + 1, members, rest, cur2, used + (idx,),
                              budget, require_all)
    # the part may instantiate to eps and consume nothing
    for cur2 in _match(part, EPS, cur, budget):
        yield from _parts(ordered, i + 1, members, remaining, cur2, used,
                          budget, require_all)


def _fitting_combinations(members: tuple[Pattern, ...],
                          remaining: tuple[int, ...], k: int, budget: _Budget):
    """The index combinations of ``remaining`` whose image ``k`` occurrences
    of one term variable can all take, by size and then in
    ``itertools.combinations`` order: those that hold at most
    ``avail(v) // k`` copies of each member value ``v``, ``avail(v)`` its
    copies in ``remaining``.  With ``k == 1`` that is every combination.

    Every other combination is spent on ``budget`` without being built: the
    ``comb(n - j - 1, r - d - 1)`` ``r``-combinations that extend a prefix
    of ``d`` positions by a position ``j`` whose value is full are charged
    at once, where the first of them would have been tried.
    """
    n = len(remaining)
    values = [members[j] for j in remaining]
    room: dict = {}
    for v in values:
        room[v] = room.get(v, 0) + 1
    for v in room:
        room[v] //= k
    for r in range(n + 1):
        chosen: list[int] = []  # positions into ``remaining``, ascending
        j = 0  # the next position to try after ``chosen``
        while True:
            d = len(chosen)
            if d == r:
                yield tuple(remaining[p] for p in chosen)
            elif j <= n - (r - d):
                if room[values[j]]:
                    room[values[j]] -= 1
                    chosen.append(j)
                else:
                    budget.spend(math.comb(n - j - 1, r - d - 1))
                j += 1
                continue
            if not chosen:
                break
            j = chosen.pop()
            room[values[j]] += 1
            j += 1


def _consume(members: tuple[Pattern, ...], remaining: tuple[int, ...],
             needed: tuple[Pattern, ...]):
    """Greedy first-fit removal of a value multiset from an index pool."""
    left = len(needed)
    if left > len(remaining):
        return None
    need: dict = {}
    for v in needed:
        need[v] = need.get(v, 0) + 1
    taken: list[int] = []
    rest: list[int] = []
    for idx in remaining:
        v = members[idx]
        c = need.get(v)
        if c:
            need[v] = c - 1
            left -= 1
            taken.append(idx)
        else:
            rest.append(idx)
    if left:
        return None
    return tuple(taken), tuple(rest)
