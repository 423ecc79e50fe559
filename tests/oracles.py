"""Independent oracles and generators used across the test suite.

Nothing in here calls the engine's own normalization/matching logic to
produce expected values; the oracles work from first principles so that
agreement is evidence, not tautology.

* congruence closure: breadth-first search over single axiom applications
  on raw (binary) terms, used to cross-check ``normalize``-based equality
* brute-force matcher: enumerate candidate instantiations from the target's
  own material and keep those whose substitution reproduces the target
* one-step reduction: every term a single GRT, LR, LR-Out or LR-In
  application yields, built from the schemas with the brute-force matcher
* reference enumerator for parallel parts: ``match_parts`` as it was before
  the images of a repeated term variable were pruned by multiplicity; it
  is a parity reference for that enumeration and its budget, so it reuses
  the engine's matcher for every other part
* seeded random generators for patterns, ground terms and whole models
"""

from __future__ import annotations

import itertools
from collections import deque
from random import Random

from clslr.terms import (
    EPS,
    Element,
    ElemVar,
    Frozen,
    GlobalRule,
    InRule,
    Loop,
    OutRule,
    Par,
    Pattern,
    PlainRule,
    Seq,
    SeqVar,
    TermVar,
    members_of,
    normalize,
    pattern_vars,
)
from clslr.matching import _consume, _match, substitute

# --------------------------------------------------------------------------
# congruence closure oracle
#
# Raw terms here use only binary parallel nodes, explicit eps leaves, and
# membranes; the axioms below are applied one at a time, in both directions,
# at every position.  Reachability under them is the congruence.


def node_count(p: Pattern) -> int:
    if isinstance(p, Seq):
        return 1
    if isinstance(p, Loop):
        return 1 + node_count(p.content)
    if isinstance(p, Par):
        return 1 + sum(node_count(m) for m in p.parts)
    raise TypeError(f"raw terms only: {p!r}")


def _rotations(items: tuple) -> list:
    return [items[i:] + items[:i] for i in range(1, len(items))]


def one_step(p: Pattern):
    """Every raw term reachable by one axiom application at the root or below."""
    # unit introduction applies to any node
    yield Par((p, EPS))
    yield Par((EPS, p))
    if p == EPS:
        yield Loop((), EPS)
    if isinstance(p, Par):
        a, b = p.parts
        yield Par((b, a))  # commutativity
        if isinstance(a, Par):
            x, y = a.parts
            yield Par((x, Par((y, b))))  # associativity
        if isinstance(b, Par):
            x, y = b.parts
            yield Par((Par((a, x)), y))
        if b == EPS:
            yield a  # unit elimination
        if a == EPS:
            yield b
        for a2 in one_step(a):
            yield Par((a2, b))
        for b2 in one_step(b):
            yield Par((a, b2))
    if isinstance(p, Loop):
        for rot in _rotations(p.membrane):
            yield Loop(rot, p.content)
        if p.membrane == () and p.content == EPS:
            yield EPS
        for c2 in one_step(p.content):
            yield Loop(p.membrane, c2)


def congruence_closure(start: Pattern, max_nodes: int) -> set:
    """All raw terms reachable from ``start`` without exceeding ``max_nodes``."""
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in one_step(cur):
            if nxt in seen or node_count(nxt) > max_nodes:
                continue
            seen.add(nxt)
            queue.append(nxt)
    return seen


def enumerate_raw_terms(max_nodes: int = 5) -> list:
    """Every raw term over elements a, b within the node budget.

    Leaves are eps and short sequences; membranes come from a fixed small
    list; parallel composition is binary.
    """
    a, b = Element("a"), Element("b")
    leaves = [EPS, Seq((a,)), Seq((b,)), Seq((a, b)), Seq((b, a))]
    membranes = [(), (a,), (b,), (a, b), (b, a)]
    by_size: dict[int, list] = {1: list(leaves)}

    def terms_of(n: int) -> list:
        if n in by_size:
            return by_size[n]
        out = []
        for c in terms_of(n - 1):
            for mem in membranes:
                out.append(Loop(mem, c))
        for left_n in range(1, n - 1):
            for left in terms_of(left_n):
                for right in terms_of(n - 1 - left_n):
                    out.append(Par((left, right)))
        by_size[n] = out
        return out

    return [t for n in range(1, max_nodes + 1) for t in terms_of(n)]


# --------------------------------------------------------------------------
# brute-force matcher


def _seqs_and_membranes(t: Pattern):
    if isinstance(t, Seq):
        yield t.items
    elif isinstance(t, Loop):
        yield t.membrane
        yield from _seqs_and_membranes(t.content)
    elif isinstance(t, Par):
        for m in t.parts:
            yield from _seqs_and_membranes(m)
    elif isinstance(t, Frozen):
        yield from _seqs_and_membranes(t.body)
    # embedded rules contribute no matchable material


def _compartment_contents(t: Pattern):
    yield t
    def walk(p: Pattern):
        if isinstance(p, Loop):
            yield p.content
            yield from walk(p.content)
        elif isinstance(p, Par):
            for m in p.parts:
                yield from walk(m)
    yield from walk(t)


def _elem_universe(t: Pattern) -> list:
    out = []
    for items in _seqs_and_membranes(t):
        for atom in items:
            if isinstance(atom, Element) and atom not in out:
                out.append(atom)
    return out


def _seq_universe(t: Pattern) -> list:
    out = [()]
    for items in _seqs_and_membranes(t):
        variants = [items] + _rotations(items)
        for v in variants:
            for i in range(len(v)):
                for j in range(i + 1, len(v) + 1):
                    sub = v[i:j]
                    if sub not in out:
                        out.append(sub)
    return out


def _term_universe(t: Pattern) -> list:
    out = []
    for content in _compartment_contents(t):
        members = members_of(normalize(content))
        for r in range(len(members) + 1):
            for combo in itertools.combinations(range(len(members)), r):
                image = normalize(Par(tuple(members[i] for i in combo)))
                if image not in out:
                    out.append(image)
    if EPS not in out:
        out.append(EPS)
    return out


def oracle_match(p: Pattern, t: Pattern) -> set:
    """All instantiations closing ``p`` into ``t``, found by enumeration.

    Candidate images are read off the target itself: any element for a
    one-element variable, any contiguous run of a sequence (or membrane
    rotation) for a sequence variable, any sub-multiset of a compartment's
    members for a term variable.  A match image outside those universes
    cannot reproduce the target, so the enumeration is complete.
    Instantiations are returned as frozensets of items for set comparison.
    """
    p, t = normalize(p), normalize(t)
    bindable = sorted(pattern_vars(p, include_rule_bodies=False),
                      key=lambda v: (type(v).__name__, v.name))
    if not bindable:
        return {frozenset()} if p == t else set()
    universes = []
    for v in bindable:
        if isinstance(v, ElemVar):
            universes.append(_elem_universe(t))
        elif isinstance(v, SeqVar):
            universes.append(_seq_universe(t))
        else:
            universes.append(_term_universe(t))
    found = set()
    for images in itertools.product(*universes):
        inst = dict(zip(bindable, images))
        if substitute(p, inst) == t:
            found.add(frozenset(inst.items()))
    return found


def canonical_results(results) -> set:
    """Engine match results as comparable frozensets."""
    return {frozenset(inst.items()) for inst in results}


# --------------------------------------------------------------------------
# reference enumerator for parallel parts


def reference_match_parts(parts, members: tuple, pool: tuple, inst: dict,
                          budget, require_all: bool):
    """``matching.match_parts`` with every unbound term variable's images
    enumerated in full: each index combination of the pool, in
    ``itertools.combinations`` order, spends one budget unit and is built,
    whether or not the variable's later occurrences can take its image."""
    concrete = [q for q in parts if not isinstance(q, TermVar)]
    tvars = [q for q in parts if isinstance(q, TermVar)]
    return _reference_parts(concrete + tvars, 0, members, tuple(pool), inst,
                            (), budget, require_all)


def _reference_parts(ordered, i, members, remaining, cur, used, budget,
                     require_all):
    if i == len(ordered):
        if not (require_all and remaining):
            yield cur, tuple(sorted(used))
        return
    part = ordered[i]
    if isinstance(part, TermVar):
        if part in cur:
            got = _consume(members, remaining, _members(cur[part]))
            if got is not None:
                taken, rest = got
                yield from _reference_parts(ordered, i + 1, members, rest, cur,
                                            used + taken, budget, require_all)
            return
        seen_values = set()
        for r in range(len(remaining) + 1):
            for combo in itertools.combinations(remaining, r):
                budget.spend()
                image = normalize(Par(tuple(members[j] for j in combo)))
                if image in seen_values:
                    continue
                seen_values.add(image)
                rest = tuple(j for j in remaining if j not in combo)
                yield from _reference_parts(
                    ordered, i + 1, members, rest, {**cur, part: image},
                    used + combo, budget, require_all)
        return
    seen_members = set()
    for idx in remaining:
        m = members[idx]
        if m in seen_members:
            continue
        seen_members.add(m)
        budget.spend()
        rest = tuple(j for j in remaining if j != idx)
        for cur2 in _match(part, m, cur, budget):
            yield from _reference_parts(ordered, i + 1, members, rest, cur2,
                                        used + (idx,), budget, require_all)
    for cur2 in _match(part, EPS, cur, budget):
        yield from _reference_parts(ordered, i + 1, members, remaining, cur2,
                                    used, budget, require_all)


# --------------------------------------------------------------------------
# one-step reduction oracle
#
# Each schema matches its left side against a sub-multiset of one
# compartment's unmarked members, keeps the rule occurrence and adds the
# frozen instantiated right side; the schemas differ only in where that
# goes.  Every sub-multiset is tried, and every instantiation the
# brute-force matcher finds for it.


def _members(p: Pattern) -> tuple:
    if isinstance(p, Par):
        return p.parts
    return () if p == EPS else (p,)


def _marked(p: Pattern) -> bool:
    if isinstance(p, Frozen):
        return True
    if isinstance(p, Loop):
        return p.mem_frozen or _marked(p.content)
    if isinstance(p, Par):
        return any(_marked(m) for m in p.parts)
    if isinstance(p, (PlainRule, OutRule, InRule)):
        return _marked(p.lhs) or _marked(p.rhs)
    return False


def _compartments(members: tuple, fill, loop=None, put=None):
    """``(members, loop, fill, put)`` for the compartment holding ``members``
    and every compartment reachable inside it.  ``fill(c)`` is the whole
    term with the compartment's content replaced by ``c``; ``put(x)`` the
    whole term with its membrane ``loop`` replaced by ``x`` (both None at
    the root).  A frozen subtree is not entered."""
    yield members, loop, fill, put
    for i, m in enumerate(members):
        if isinstance(m, Loop):
            def put_i(x, i=i):
                return fill(Par(members[:i] + (x,) + members[i + 1:]))

            def fill_i(c, m=m, put_i=put_i):
                return put_i(Loop(m.membrane, c, m.mem_frozen))

            yield from _compartments(_members(m.content), fill_i, m, put_i)


def _fits(rule, members: tuple, pool: list, membrane=None):
    """``(taken, inst)`` for every non-empty sub-multiset ``taken`` of the
    pool that ``rule``'s left side matches (with ``membrane``: the rule's
    membrane side matching it too) under an instantiation ``inst`` that
    binds every variable of the right side."""
    pat = rule.lhs if membrane is None else Loop(rule.lhs_mem, rule.lhs)
    need = pattern_vars(rule.rhs, include_rule_bodies=False)
    if membrane is not None:
        need |= pattern_vars(Seq(rule.rhs_mem))
    for r in range(1, len(pool) + 1):
        for taken in itertools.combinations(pool, r):
            bag = Par(tuple(members[i] for i in taken))
            target = bag if membrane is None else Loop(membrane, bag)
            for inst in oracle_match(pat, target):
                inst = dict(inst)
                if need <= inst.keys():
                    yield set(taken), inst


def one_step_reducts(rules, t: Pattern) -> set:
    """Normal forms of every term one application to ``t`` yields.

    ``rules`` are the global rules; local rules are the unmarked rule
    members of each compartment.  Marked members are never matched, a
    frozen membrane is never crossed again, and a membrane that material
    crosses becomes frozen, so on a term reached within a parallel step
    this is what the step may still do.
    """
    out = set()
    for members, loop, fill, put in _compartments(_members(normalize(t)),
                                                  lambda c: c):
        free = [i for i, m in enumerate(members) if not _marked(m)]

        def rest(taken):
            return tuple(m for i, m in enumerate(members) if i not in taken)

        def made(rule, inst):
            return Frozen(substitute(rule.rhs, inst))

        def crossed(rule, inst, content):
            mem = substitute(Seq(rule.rhs_mem), inst).items
            return Loop(mem, content, True)

        for rule in rules:  # GRT
            for taken, inst in _fits(rule, members, free):
                out.add(fill(Par(rest(taken) + (made(rule, inst),))))
        for ri in free:
            rule = members[ri]
            pool = [i for i in free if i != ri]
            if isinstance(rule, PlainRule):  # LR
                for taken, inst in _fits(rule, members, pool):
                    out.add(fill(Par(rest(taken) + (made(rule, inst),))))
            elif isinstance(rule, OutRule):  # LR-Out
                if loop is None or loop.mem_frozen:
                    continue
                for taken, inst in _fits(rule, members, pool, loop.membrane):
                    out.add(put(Par((made(rule, inst), crossed(
                        rule, inst, Par(rest(taken)))))))
            elif isinstance(rule, InRule):  # LR-In
                for li, target in enumerate(members):
                    if (li == ri or not isinstance(target, Loop)
                            or target.mem_frozen):
                        continue
                    into = [i for i in pool if i != li]
                    for taken, inst in _fits(rule, members, into,
                                             target.membrane):
                        out.add(fill(Par(rest(taken | {li}) + (crossed(
                            rule, inst,
                            Par((target.content, made(rule, inst)))),))))
    return {normalize(r) for r in out}


# --------------------------------------------------------------------------
# seeded generators

ALPHABET = tuple(Element(n) for n in ("a", "b", "c", "d"))


def random_seq(rng: Random, *, vars_ok: bool, max_len: int = 3,
               min_len: int = 0, atoms: tuple = ALPHABET) -> Seq:
    n = rng.randint(min_len, max_len)
    items = []
    for _ in range(n):
        roll = rng.random()
        if vars_ok and roll < 0.2:
            items.append(ElemVar(rng.choice("xyz")))
        elif vars_ok and roll < 0.4:
            items.append(SeqVar(rng.choice("uvw")))
        else:
            items.append(rng.choice(atoms))
    return Seq(tuple(items))


def random_membrane(rng: Random, *, vars_ok: bool = False,
                    atoms: tuple = ALPHABET) -> tuple:
    return random_seq(rng, vars_ok=vars_ok, max_len=2, min_len=1,
                      atoms=atoms).items


def random_local_rule(rng: Random) -> Pattern:
    """A well-formed local rule: rhs variables are drawn from the lhs."""
    lhs = random_seq(rng, vars_ok=True, min_len=1)
    lhs_vars = [v for v in lhs.items if isinstance(v, (ElemVar, SeqVar))]

    def rhs_item():
        if lhs_vars and rng.random() < 0.4:
            return rng.choice(lhs_vars)
        return rng.choice(ALPHABET)

    rhs = Seq(tuple(rhs_item() for _ in range(rng.randint(0, 3))))
    kind = rng.random()
    if kind < 0.5:
        return PlainRule(lhs, rhs)
    mem = random_membrane(rng)
    if kind < 0.75:
        return OutRule(lhs, mem, rhs, mem)
    return InRule(lhs, mem, rhs, mem)


def random_pattern(rng: Random, depth: int = 2, *, vars_ok: bool = True,
                   rules_ok: bool = True, atoms: tuple = ALPHABET) -> Pattern:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return random_seq(rng, vars_ok=vars_ok, atoms=atoms)
    if vars_ok and roll < 0.55:
        return TermVar(rng.choice("XYZ"))
    if rules_ok and roll < 0.65:
        return random_local_rule(rng)
    if roll < 0.8:
        return Loop(random_membrane(rng, atoms=atoms),
                    random_pattern(rng, depth - 1, vars_ok=vars_ok,
                                   rules_ok=rules_ok, atoms=atoms))
    n = rng.randint(2, 3)
    return Par(tuple(random_pattern(rng, depth - 1, vars_ok=vars_ok,
                                    rules_ok=rules_ok, atoms=atoms)
                     for _ in range(n)))


def random_ground_term(rng: Random, depth: int = 2, *, rules_ok: bool = True,
                       atoms: tuple = ALPHABET) -> Pattern:
    return random_pattern(rng, depth, vars_ok=False, rules_ok=rules_ok,
                          atoms=atoms)


def random_instantiation(rng: Random, p: Pattern, *,
                         atoms: tuple = ALPHABET) -> dict:
    """A closing instantiation for every bindable variable of ``p``."""
    inst = {}
    for v in sorted(pattern_vars(p, include_rule_bodies=False),
                    key=lambda v: (type(v).__name__, v.name)):
        if isinstance(v, ElemVar):
            inst[v] = rng.choice(atoms)
        elif isinstance(v, SeqVar):
            inst[v] = random_seq(rng, vars_ok=False, max_len=2,
                                 atoms=atoms).items
        else:
            inst[v] = normalize(random_ground_term(rng, 1, rules_ok=False,
                                                   atoms=atoms))
    return inst


# --------------------------------------------------------------------------
# random models for subject-reduction sweeps

FEATURE_LETTERS = "drseoi"


def random_model(seed: int):
    """A random model with redexes wired in, plus its classification.

    Every element name comes from the four-letter alphabet, nesting stays
    within three compartment levels, and at most four rules are in play
    (one plain, at most one out, one in, one global).  Returns
    ``(term, globals, entries)``; the classification covers every element
    so strict lookups always succeed.  Callers should keep only models
    whose term actually types.
    """
    rng = Random(seed)
    mem_names = rng.sample([e.name for e in ALPHABET], 2)
    entries = {}
    for e in ALPHABET:
        rich = 0.7 if e.name in mem_names else 0.45
        entries[e.name] = frozenset(
            c for c in FEATURE_LETTERS if rng.random() < rich)
    mem1 = (Element(mem_names[0]),)
    mem2 = (Element(mem_names[1]),)

    payload = random_seq(rng, vars_ok=False, min_len=1)
    plain = PlainRule(payload, random_seq(rng, vars_ok=False))
    inner_bits = [payload, plain]
    if rng.random() < 0.6:
        moved = random_seq(rng, vars_ok=False, min_len=1)
        inner_bits += [moved, OutRule(moved, mem1, moved, mem1)]
    if rng.random() < 0.4:
        inner_bits.append(random_seq(rng, vars_ok=False))
    inner = Loop(mem1, Par(tuple(inner_bits)))

    outer_bits = [inner]
    if rng.random() < 0.5:
        sent = random_seq(rng, vars_ok=False, min_len=1)
        outer_bits += [sent, InRule(sent, mem1, sent, mem1),
                       Loop(mem1, random_seq(rng, vars_ok=False))]
    if rng.random() < 0.4:
        outer_bits.append(random_ground_term(rng, 1, rules_ok=False))
    term = Loop(mem2, Par(tuple(outer_bits)))

    globals_ = ()
    if rng.random() < 0.5:
        present = random_seq(rng, vars_ok=False, min_len=1)
        globals_ = (GlobalRule(present, random_seq(rng, vars_ok=False)),)
        term = Par((term, present))
    return normalize(term), globals_, entries


# --------------------------------------------------------------------------
# leaf-bounded enumeration for the matcher sweep
#
# Leaves are atom occurrences: elements and variables, including membrane
# atoms; a term variable counts as one leaf and an embedded rule counts the
# leaves of both its sides.


def leaf_count(p) -> int:
    if isinstance(p, Seq):
        return len(p.items)
    if isinstance(p, TermVar):
        return 1
    if isinstance(p, Loop):
        return len(p.membrane) + leaf_count(p.content)
    if isinstance(p, Par):
        return sum(leaf_count(m) for m in p.parts)
    if isinstance(p, Frozen):
        return leaf_count(p.body)
    if isinstance(p, PlainRule):
        return leaf_count(p.lhs) + leaf_count(p.rhs)
    if isinstance(p, (OutRule, InRule)):
        return (leaf_count(p.lhs) + len(p.lhs_mem)
                + leaf_count(p.rhs) + len(p.rhs_mem))
    raise TypeError(f"no leaf count for {p!r}")


def _atom_seqs(atoms: tuple, max_len: int) -> list:
    out = [Seq(())]
    for n in range(1, max_len + 1):
        out += [Seq(t) for t in itertools.product(atoms, repeat=n)]
    return out


def _dedup_normalized(pool) -> list:
    seen, out = set(), []
    for p in pool:
        n = normalize(p)
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out


def exhaustive_terms(alphabet: tuple = ("a", "b"), max_leaves: int = 4,
                     rule: Pattern | None = None) -> list:
    """Every canonical ground term within the leaf budget.

    Covers flat sequences, one and two levels of membranes, binary
    parallel compositions, and (optionally) an embedded rule literal as an
    extra member.
    """
    els = tuple(Element(n) for n in alphabet)
    seqs = _atom_seqs(els, max_leaves)
    mems = [s.items for s in _atom_seqs(els, 2) if s.items]
    level1 = [Loop(mem, c) for mem in mems for c in seqs
              if len(mem) + leaf_count(c) <= max_leaves]
    level2 = [Loop(mem, c) for mem in mems for c in level1
              if len(mem) + leaf_count(c) <= max_leaves]
    singles = seqs + level1 + level2
    pool = list(singles)
    for i, x in enumerate(singles):
        if x == EPS:
            continue
        for y in singles[i:]:
            if y != EPS and leaf_count(x) + leaf_count(y) <= max_leaves:
                pool.append(Par((x, y)))
    if rule is not None:
        pool.append(rule)
        pool += [Par((t, rule)) for t in singles
                 if t != EPS and leaf_count(t) <= 2]
    return _dedup_normalized(pool)


def exhaustive_patterns(alphabet: tuple = ("a", "b"), max_leaves: int = 3,
                        rule: Pattern | None = None) -> list:
    """Every canonical pattern within the leaf budget.

    Sequence positions range over the alphabet plus one element variable
    and one sequence variable; membranes may carry the sequence variable;
    a term variable may stand alone or next to other members.
    """
    els = tuple(Element(n) for n in alphabet)
    atoms = els + (ElemVar("x"), SeqVar("u"))
    seqs = _atom_seqs(atoms, max_leaves)
    mems = [s.items for s in _atom_seqs(els + (SeqVar("u"),), 2) if s.items]
    X = TermVar("X")
    contents = seqs + [X]
    loops = [Loop(mem, c) for mem in mems for c in contents
             if len(mem) + leaf_count(c) <= max_leaves]
    singles = seqs + loops + [X]
    pool = list(singles)
    for i, x in enumerate(singles):
        if x == EPS:
            continue
        for y in singles[i:]:
            if y != EPS and leaf_count(x) + leaf_count(y) <= max_leaves:
                pool.append(Par((x, y)))
    if rule is not None:
        pool.append(rule)
        pool += [Par((p, rule)) for p in singles
                 if p != EPS and leaf_count(p) <= 2]
    return _dedup_normalized(pool)


def budgeted_pattern(rng: Random, atoms: tuple, budget: int, *,
                     vars_ok: bool = True, depth: int = 2) -> Pattern:
    """A random pattern with at most ``budget`` leaves."""
    roll = rng.random()
    if depth <= 0 or budget <= 1 or roll < 0.4:
        n = rng.randint(0, min(3, budget))
        items = []
        for _ in range(n):
            r = rng.random()
            if vars_ok and r < 0.18:
                items.append(ElemVar(rng.choice("xy")))
            elif vars_ok and r < 0.36:
                items.append(SeqVar(rng.choice("uv")))
            else:
                items.append(rng.choice(atoms))
        return Seq(tuple(items))
    if vars_ok and roll < 0.5:
        return TermVar(rng.choice("XY"))
    if roll < 0.7:
        mlen = rng.randint(1, min(2, budget - 1) or 1)
        mem = tuple(rng.choice(atoms) for _ in range(mlen))
        return Loop(mem, budgeted_pattern(rng, atoms, budget - mlen,
                                          vars_ok=vars_ok, depth=depth - 1))
    cut = rng.randint(1, max(1, budget - 1))
    return Par((budgeted_pattern(rng, atoms, cut, vars_ok=vars_ok,
                                 depth=depth - 1),
                budgeted_pattern(rng, atoms, budget - cut, vars_ok=vars_ok,
                                 depth=depth - 1)))
