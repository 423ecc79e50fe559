"""Matching and substitution, cross-checked against the brute-force oracle."""

import gc
import pytest
from collections import Counter
from hypothesis import given, strategies as st
from random import Random

from clslr import matching
from clslr.engine import find_redexes
from clslr.matching import (
    MatchCapError,
    UnboundVariableError,
    _Budget,
    _consume,
    match,
    match_parts,
    subst_seq,
    substitute,
)
from clslr.syntax import parse_global_text, parse_pattern_text
from clslr.terms import (
    EPS,
    Element,
    ElemVar,
    Frozen,
    Loop,
    Par,
    PlainRule,
    Seq,
    SeqVar,
    TermVar,
    equiv,
    members_of,
    normalize,
    par,
    pattern_vars,
    seq,
    sub_bag,
)

from oracles import (
    canonical_results,
    oracle_match,
    random_ground_term,
    random_instantiation,
    random_pattern,
    reference_match_parts,
)

a, b, c = Element("a"), Element("b"), Element("c")
u, v = SeqVar("u"), SeqVar("v")
x = ElemVar("x")
X = TermVar("X")


# -- substitution

def test_subst_seq_splices():
    items = (u, a, x)
    inst = {u: (b, c), x: a}
    assert subst_seq(items, inst) == (b, c, a, a)
    assert subst_seq((u,), {u: ()}) == ()


def test_substitute_normalizes_result():
    p = Par((Seq((u,)), X))
    inst = {u: (a,), X: EPS}
    assert substitute(p, inst) == seq("a")


def test_substitute_requires_all_variables():
    with pytest.raises(UnboundVariableError):
        substitute(Seq((u,)), {})


def test_substitute_leaves_rule_bodies_alone():
    r = PlainRule(Seq((x,)), Seq((x,)))
    p = Par((r, Seq((x,))))
    out = substitute(p, {x: a})
    assert normalize(out) == normalize(Par((r, seq("a"))))


# -- basic matching shapes  [DERIVED] by hand

def test_match_element_variable_single_element():
    res = match(Seq((x,)), seq("a"))
    assert res == [{x: a}]
    assert match(Seq((x,)), seq("a", "b")) == []
    assert match(Seq((x,)), EPS) == []


def test_match_seq_variable_all_splits():
    res = match(Seq((u, v)), seq("a", "b"))
    images = {(inst[u], inst[v]) for inst in res}
    assert images == {((), (a, b)), ((a,), (b,)), ((a, b), ())}


def test_match_seq_variable_may_be_empty():
    assert match(Seq((u,)), EPS) == [{u: ()}]


def test_match_nonlinear_seq_variable():
    res = match(Seq((u, a, u)), seq("b", "a", "b"))
    assert res == [{u: (b,)}]
    assert match(Seq((u, a, u)), seq("b", "a", "c")) == []


def test_match_term_variable_whole_and_parts():
    t = normalize(Par((seq("a"), seq("b"))))
    res = match(X, t)
    assert res == [{X: t}]
    res2 = match(Par((X, seq("a"))), t)
    assert res2 == [{X: seq("b")}]


def test_match_term_variable_can_vanish():
    res = match(Par((X, seq("a"))), seq("a"))
    assert res == [{X: EPS}]


def test_term_variable_matches_leave_no_cyclic_garbage():
    # the search state of match_parts lives in generator frames, not in a
    # closure that refers to itself, so a match leaves nothing to collect
    pat, t = par(X, seq("m0")), par(seq("m0"), seq("m1"), seq("m2"))
    match(pat, t)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            match(pat, t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_match_loop_rotations():
    p = Loop((u,), EPS)
    t = Loop((a, b), EPS)
    images = {inst[u] for inst in match(p, t)}
    assert images == {(a, b), (b, a)}


def test_match_loop_against_eps():
    # the empty loop around the empty term is congruent to eps
    p = Loop((u,), X)
    res = match(p, EPS)
    assert res == [{u: (), X: EPS}]


def test_term_variable_bound_in_one_compartment_must_match_the_next():
    # the second loop's $X is already bound when its content is reached
    rule = parse_global_text("loop(m)[$X] | loop(n)[$X] => b")
    same = normalize(parse_pattern_text("loop(m)[a] | loop(n)[a]"))
    labels = find_redexes([rule], same)
    assert [(lbl.schema, lbl.binding_dict()) for lbl in labels] == [
        ("GRT", {X: seq("a")})]
    other = normalize(parse_pattern_text("loop(m)[a] | loop(n)[c]"))
    assert find_redexes([rule], other) == []


def test_out_rule_in_an_empty_membrane_runs_its_rotations_out():
    # find_redexes exhausts match_seq_rotations over the membrane ()
    t = normalize(parse_pattern_text("loop(eps)[a | { a ^ ~x => a ^ ~x }]"))
    labels = find_redexes([], t)
    assert [(lbl.schema, lbl.path, lbl.binding_dict()) for lbl in labels] == [
        ("LR-Out", (), {SeqVar("x"): ()})]


@pytest.mark.parametrize("call, want", [
    # ``_subst`` reaches inside frozen material
    (lambda: substitute(Frozen(X), {X: seq("a")}), Frozen(seq("a"))),
    # ``is_ground`` stops at the variable, so ``_subst`` meets the 5
    (lambda: substitute(Par((X, 5)), {X: EPS}), "not a pattern: 5"),
    # frozen material matches nothing
    (lambda: match(X, Frozen(seq("a"))), []),
    # only a hand-built ``Seq`` holds a non-atom
    (lambda: match(Seq((EPS,)), Seq((EPS,))), "not an atom: Seq(items=())"),
    (lambda: pattern_vars(Frozen(X)), {X}),
], ids=["substitute-frozen", "substitute-non-pattern", "match-frozen",
        "match-non-atom", "pattern-vars-frozen"])
def test_frozen_material_and_stray_values_take_their_own_branches(call, want):
    try:
        got = call()
    except TypeError as err:
        got = str(err)
    assert got == want


def test_match_rule_occurrence_by_equality():
    r = PlainRule(seq("a"), seq("b"))
    assert match(r, r) == [{}]
    r2 = PlainRule(Par((seq("a"), seq("c"))), seq("b"))
    r2b = PlainRule(Par((seq("c"), seq("a"))), seq("b"))
    assert match(r2, r2b) == [{}]  # congruent rules are equal occurrences
    assert match(r, r2) == []


def test_match_requires_ground_target():
    with pytest.raises(ValueError):
        match(seq("a"), Seq((u,)))


def test_match_deduplicates_congruent_decompositions():
    # two identical members give one instantiation, not two
    t = normalize(Par((seq("a"), seq("a"))))
    res = match(Par((X, seq("a"))), t)
    assert res == [{X: seq("a")}]


def test_match_order_is_deterministic():
    t = seq("a", "b", "c")
    r1 = match(Seq((u, v)), t)
    r2 = match(Seq((u, v)), t)
    assert r1 == r2
    splits = [(inst[u], inst[v]) for inst in r1]
    assert splits == sorted(splits, key=lambda s: len(s[0]))


def test_match_cap_enforced():
    pat = Seq((SeqVar("u1"), SeqVar("u2"), SeqVar("u3"), SeqVar("u4")))
    t = Seq(tuple(Element("a") for _ in range(12)))
    with pytest.raises(MatchCapError):
        match(pat, t, cap=50)


@pytest.mark.parametrize("n", [3, 6, 10])
@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "copies"])
def test_term_variable_pair_spends_one_candidate_per_subset(n, distinct):
    # $X | $X over n members: the first $X tries each of the 2**n index
    # subsets once, repeated images included, and the bound second $X spends
    # nothing.  Distinct members match nothing; n copies of one member match
    # once, with half of them, when n is even.
    t = Par(tuple(seq(f"m{i}" if distinct else "m") for i in range(n)))
    half = normalize(Par(tuple(seq("m") for _ in range(n // 2))))
    want = [] if distinct or n % 2 else [{X: half}]
    assert match(par(X, X), t, cap=2**n) == want
    with pytest.raises(MatchCapError):
        match(par(X, X), t, cap=2**n - 1)


def test_term_variable_pair_builds_only_images_that_fit(monkeypatch):
    # beside 16 distinct members only the doubled z has a second copy, so
    # the first $X builds eps and the two single z images, not 2**18 bags
    calls = 0
    sub_bag = matching.sub_bag

    def counted(members, idxs):
        nonlocal calls
        calls += 1
        return sub_bag(members, idxs)

    monkeypatch.setattr(matching, "sub_bag", counted)
    rule = PlainRule(par(X, X), par(X, X))
    t = normalize(par(*(seq(f"m{i}") for i in range(16)), seq("z"), seq("z"),
                      rule))
    labels = find_redexes([], t)
    assert [lbl.binding_dict() for lbl in labels] == [{X: seq("z")}]
    assert calls < 100


Z = TermVar("Z")
# runs of k = 2 and k = 3, concrete parts, non-adjacent repeats
PART_LISTS = ([X, X], [X, X, X], [X, X, Z], [Z, X, X, X], [X, Z, X],
              [seq("a"), X, X], [Seq((u,)), X, X, X], [X, X, Z, Z], [X, Z])
BAG_VALUES = (seq("a"), seq("b"), seq("a", "b"), Loop((a,), seq("b")))


def _enumerate(enumerator, parts, members, pool, require_all, cap):
    """The ``(inst, used)`` yields before the end or the cap, and the budget
    spent, or None when the cap was hit."""
    budget = _Budget(cap)
    out = []
    try:
        for inst, used in enumerator(list(parts), members, pool, {}, budget,
                                     require_all):
            out.append((dict(inst), used))
    except MatchCapError:
        return out, None
    return out, cap - budget.remaining


@given(st.sampled_from(PART_LISTS),
       st.lists(st.sampled_from(BAG_VALUES), max_size=7), st.booleans(),
       st.data())
def test_pruned_term_variable_images_agree_with_the_full_enumeration(
        parts, values, require_all, data):
    members = members_of(normalize(Par(tuple(values))))
    pool = tuple(sorted(data.draw(st.permutations(range(len(members))))[
        :data.draw(st.integers(0, len(members)))]))
    want, spent = _enumerate(reference_match_parts, parts, members, pool,
                             require_all, 10**6)
    assert spent is not None
    assert _enumerate(match_parts, parts, members, pool, require_all,
                      spent) == (want, spent)
    if spent:
        assert _enumerate(match_parts, parts, members, pool, require_all,
                          spent - 1)[1] is None
    cap = data.draw(st.integers(0, spent))
    assert (_enumerate(match_parts, parts, members, pool, require_all, cap)
            == _enumerate(reference_match_parts, parts, members, pool,
                          require_all, cap))


# -- building blocks of parallel matching

@given(st.integers(0, 10_000), st.data())
def test_sub_bag_is_the_normal_form_of_the_selection(n, data):
    rng = Random(n)
    parts = [random_pattern(rng) for _ in range(rng.randint(1, 6))]
    parts = [Frozen(q) if rng.random() < 0.2 else q for q in parts]
    members = members_of(normalize(Par(tuple(parts))))
    size = data.draw(st.integers(0, len(members)))
    chosen = tuple(sorted(data.draw(st.permutations(range(len(members))))[:size]))
    for idxs in [(), *((i,) for i in range(len(members))), chosen]:
        want = normalize(Par(tuple(members[j] for j in idxs)))
        assert sub_bag(members, idxs) is want
        assert normalize(sub_bag(members, idxs)) is want


def _consume_reference(members, remaining, needed):
    need = Counter(needed)
    taken, rest = [], []
    for idx in remaining:
        if need[members[idx]] > 0:
            need[members[idx]] -= 1
            taken.append(idx)
        else:
            rest.append(idx)
    if any(c > 0 for c in need.values()):
        return None
    return tuple(taken), tuple(rest)


VALUES = (seq("a"), seq("b"), seq("a", "b"), Loop((a,), seq("c")))


@given(st.lists(st.sampled_from(VALUES), max_size=8), st.data())
def test_consume_agrees_with_counter_reference(members, data):
    members = tuple(members)
    remaining = tuple(data.draw(st.permutations(range(len(members))))[
        :data.draw(st.integers(0, len(members)))])
    needed = tuple(data.draw(st.lists(st.sampled_from(VALUES), max_size=6)))
    assert (_consume(members, remaining, needed)
            == _consume_reference(members, remaining, needed))


# -- oracle agreement

def _agree(p, t):
    got = canonical_results(match(p, t))
    want = oracle_match(p, t)
    assert got == want, (str(p), str(t), got, want)


def test_oracle_agreement_handpicked():
    cases = [
        (Seq((u, x)), seq("a", "b")),
        (Seq((u, x, v)), seq("a", "b", "c")),
        (Par((X, Seq((u,)))), normalize(Par((seq("a"), seq("b", "c"))))),
        (Loop((u,), Seq((x,))), Loop((a, b), seq("c"))),
        (Par((X, TermVar("Y"))), normalize(Par((seq("a"), seq("b"))))),
        (Seq((u, v)), EPS),
        (Par((Loop((u,), X), Seq((v,)))),
         normalize(Par((Loop((a,), seq("b")), seq("c"))))),
    ]
    for p, t in cases:
        _agree(p, t)


@given(st.integers(0, 5_000))
def test_oracle_agreement_random_pairs(n):
    rng = Random(n)
    p = random_pattern(rng, 1)
    t = random_ground_term(rng, 1)
    _agree(p, t)


@given(st.integers(0, 5_000))
def test_oracle_agreement_planted_matches(n):
    rng = Random(n)
    p = random_pattern(rng, 1, rules_ok=False)
    inst = random_instantiation(rng, p)
    t = substitute(p, inst)
    _agree(p, t)


# -- soundness and completeness properties

@given(st.integers(0, 5_000))
def test_match_soundness(n):
    rng = Random(n)
    p = random_pattern(rng, 1)
    t = random_ground_term(rng, 1)
    for inst in match(p, t):
        assert substitute(p, inst) == normalize(t)


@given(st.integers(0, 5_000))
def test_match_finds_planted_instantiation(n):
    rng = Random(n)
    p = random_pattern(rng, 1, rules_ok=False)
    inst = random_instantiation(rng, p)
    t = substitute(p, inst)
    results = canonical_results(match(p, t))
    assert frozenset(inst.items()) in results


@given(st.integers(0, 5_000))
def test_match_has_no_duplicates(n):
    rng = Random(n)
    p = random_pattern(rng, 1)
    t = random_ground_term(rng, 1)
    res = match(p, t)
    keys = [frozenset(inst.items()) for inst in res]
    assert len(keys) == len(set(keys))
