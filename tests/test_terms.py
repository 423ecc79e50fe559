"""Term algebra: interning, canonical forms, congruence, variables, marks."""

import copy
import gc
import pickle
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from random import Random

from clslr import terms
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
    canonical_text,
    equiv,
    erase,
    has_marks,
    is_ground,
    local_rule_violations,
    members_of,
    min_rotation,
    normalize,
    pattern_vars,
    seq,
    splice,
)
from clslr import bundled_model, terms
from clslr.matching import match, subst_seq, substitute
from clslr.syntax import parse_model
from clslr.typecheck import (
    Classification,
    UnknownElementError,
    infer_basis,
    membrane_type,
    pattern_type,
)
from clslr.typed import typed_run

from oracles import (
    congruence_closure,
    enumerate_raw_terms,
    node_count,
    one_step,
    random_ground_term,
    random_membrane,
    random_pattern,
)

a, b, c = Element("a"), Element("b"), Element("c")


# -- interning

def test_equal_constructions_are_one_node():
    # positional, keyword and defaulted calls all give the same key
    assert Element("a") is a
    assert Element(name="a") is a
    assert seq("a", "b") is Seq((a, b))
    content = Par((seq("a"), seq("b")))
    plain = Loop((a,), content)
    assert plain is Loop((a,), content, False)
    assert plain is Loop((a,), content, mem_frozen=False)
    assert plain is Loop(membrane=(a,), content=content)
    assert plain is not Loop((a,), content, mem_frozen=True)
    out = OutRule(seq("a"), (SeqVar("x"),), seq("b"), (SeqVar("x"),))
    assert out is OutRule(lhs=seq("a"), lhs_mem=(SeqVar("x"),),
                          rhs=seq("b"), rhs_mem=(SeqVar("x"),))
    assert GlobalRule(seq("a"), EPS) is GlobalRule(rhs=EPS, lhs=seq("a"))
    assert TermVar("X") is TermVar("X")
    assert ElemVar("x") is not SeqVar("x")


def test_node_equality_is_identity_of_interned_nodes():
    left = Par((seq("b"), seq("a")))
    right = Par((seq("a"), seq("b")))
    # congruent but stored differently: two nodes, unequal until normalized
    assert left != right
    assert normalize(left) is normalize(right)
    assert hash(left) == object.__hash__(left)


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        Loop((a,))
    with pytest.raises(TypeError):
        Loop((a,), EPS, False, True)
    with pytest.raises(TypeError):
        Loop((a,), EPS, membrane=(b,))
    with pytest.raises(TypeError):
        Element(nme="a")


def test_empty_seq_is_eps_object():
    assert Seq(()) is EPS
    assert seq() is EPS
    assert normalize(Par((EPS, EPS))) is EPS


@given(st.integers(0, 10_000))
def test_normalize_returns_the_interned_normal_form(n):
    p = random_pattern(Random(n), depth=3)
    assert normalize(normalize(p)) is normalize(p)


def test_intern_entry_dies_with_its_node():
    node = Loop((Element("only-in-this-test"),), seq("z"))
    ref = weakref.ref(node)
    key = (Element, "only-in-this-test")
    assert key in terms._INTERNED
    del node
    gc.collect()
    assert ref() is None
    # the loop's own key held the element, so the element's entry going
    # away also shows the loop's entry went away
    assert key not in terms._INTERNED


def test_stale_intern_callback_keeps_the_live_entry():
    name = "re-interned-in-this-test"
    key = (Element, name)
    node = Element(name)
    stale = terms._INTERNED[key]
    callback = stale.__callback__  # cleared once the node dies
    del node
    gc.collect()
    assert key not in terms._INTERNED
    node = Element(name)
    live = terms._INTERNED[key]
    assert live is not stale and live() is node
    # a callback that arrives late must not delete the re-interned entry
    callback(stale)
    assert terms._INTERNED[key] is live
    assert Element(name) is node


def test_intern_table_returns_to_its_size_after_a_run():
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    classif = Classification(dict(lam.elements))
    # the run memoises the normal form of the parsed term on it
    normalize(model.term)
    gc.collect()
    before = len(terms._INTERNED)
    trace = typed_run(model.term, model.globals, classif, steps=30)
    # the live trace keeps exactly 50 new nodes, 42 Par residues and 8
    # Loops; collect first, so that no cyclic garbage pads the count
    gc.collect()
    assert len(terms._INTERNED) >= before + 50
    del trace
    gc.collect()
    assert len(terms._INTERNED) <= before + 3
    assert all(ref() is not None for ref in terms._INTERNED.values())


COPY_CASES = [
    a, ElemVar("x"), SeqVar("y"), EPS, TermVar("X"),
    Loop((a, b), Par((seq("c"), Frozen(seq("a")))), mem_frozen=True),
    PlainRule(seq("a"), EPS),
    InRule(seq("a"), (a,), seq("b"), (a,)),
    GlobalRule(Par((seq("a"), TermVar("X"))), TermVar("X")),
]


@pytest.mark.parametrize("node", COPY_CASES, ids=repr)
def test_copies_are_the_interned_node(node):
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert copy.deepcopy([node, node])[1] is node
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(node, protocol)) is node


def test_nodes_are_immutable_and_repr_their_fields():
    node = Loop((a,), seq("b"))
    with pytest.raises(AttributeError):
        node.content = EPS
    with pytest.raises(AttributeError):
        del node.membrane
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node.content is seq("b")
    assert repr(node) == ("Loop(membrane=(Element(name='a'),), "
                          "content=Seq(items=(Element(name='b'),)), "
                          "mem_frozen=False)")


NOT_PATTERNS = [3, Pattern(), Element("a")]
NOT_PATTERN_IDS = ["int", "Pattern", "Element"]
PATTERN_WALKS = {
    "normalize": normalize, "canonical_text": canonical_text,
    "has_marks": has_marks, "is_ground": is_ground, "erase": erase,
    "substitute": lambda p: substitute(p, {}),
    "match": lambda p: match(p, EPS),
    "pattern_type": lambda p: pattern_type({}, Classification({}), p),
}


@pytest.mark.parametrize("walk", PATTERN_WALKS.values(), ids=PATTERN_WALKS)
@pytest.mark.parametrize("node", NOT_PATTERNS, ids=NOT_PATTERN_IDS)
def test_what_is_not_a_pattern_is_named_in_a_type_error(walk, node):
    with pytest.raises(TypeError, match=r"^not a pattern: "):
        walk(node)


@pytest.mark.parametrize("node", NOT_PATTERNS, ids=NOT_PATTERN_IDS)
def test_what_is_not_an_atom_or_a_variable_is_named_in_a_type_error(node):
    if isinstance(node, Element):
        assert subst_seq((node,), {}) == (node,)
        with pytest.raises(UnknownElementError):
            membrane_type({}, Classification({}), (node,))
    else:
        with pytest.raises(TypeError, match=r"^not an atom: "):
            subst_seq((node,), {})
        with pytest.raises(TypeError, match=r"^not an atom: "):
            membrane_type({}, Classification({}), (node,))
    with pytest.raises(TypeError, match=r"^not a variable: "):
        infer_basis({node: EPS}, Classification({}))


def test_retained_memory_follows_the_live_term():
    # per-node memos die with their nodes: a long run leaves nothing behind
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    classif = Classification(dict(lam.elements))
    gc.collect()
    tracemalloc.start()
    try:
        trace = typed_run(model.term, model.globals, classif, steps=100)
        assert len(trace.labels) > 800
        del trace
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 512 * 1024, f"{held} bytes still held"


def test_empty_sequence_is_eps():
    # [TRIVIAL]
    assert normalize(Seq(())) == EPS
    assert canonical_text(EPS) == "eps"


def test_par_is_commutative_and_associative():
    # [DERIVED] two arrangements of the same multiset
    left = Par((seq("a"), Par((seq("b"), seq("c")))))
    right = Par((Par((seq("c"), seq("a"))), seq("b")))
    assert equiv(left, right)
    assert normalize(left) == normalize(right)


def test_par_unit():
    assert equiv(Par((seq("a"), EPS)), seq("a"))
    assert normalize(Par((EPS, EPS))) == EPS


def test_loop_rotation():
    # a membrane may rotate freely but not reverse
    assert equiv(Loop((a, b, c), EPS), Loop((b, c, a), EPS))
    assert not equiv(Loop((a, b, c), EPS), Loop((a, c, b), EPS))


def test_empty_loop_around_empty_term_collapses():
    assert normalize(Loop((), EPS)) == EPS
    # not when either side is nonempty
    assert normalize(Loop((a,), EPS)) != EPS
    assert normalize(Loop((), seq("a"))) != EPS


def test_sequences_do_not_commute():
    assert not equiv(seq("a", "b"), seq("b", "a"))


def test_rule_congruence_is_componentwise():
    r1 = PlainRule(Par((seq("a"), seq("b"))), seq("c"))
    r2 = PlainRule(Par((seq("b"), seq("a"))), seq("c"))
    assert normalize(r1) == normalize(r2)
    # rule membranes do not rotate: only membranes of loops do
    o1 = OutRule(seq("x"), (a, b), seq("x"), (a, b))
    o2 = OutRule(seq("x"), (b, a), seq("x"), (b, a))
    assert normalize(o1) != normalize(o2)


def test_min_rotation_prefers_elements_over_variables():
    rot = min_rotation((SeqVar("u"), a))
    assert rot == (a, SeqVar("u"))


def test_canonical_text_shapes():
    # members sort by their rendered text: "c" < "loop(..." < "{ ..."
    term = Par((Loop((a,), seq("b")), seq("c"), PlainRule(seq("a"), EPS)))
    assert canonical_text(normalize(term)) == "c | loop(a)[b] | { a => eps }"
    assert canonical_text(TermVar("X")) == "$X"
    assert canonical_text(Seq((ElemVar("x"), SeqVar("y")))) == "?x.~y"


@given(st.integers(0, 10_000))
def test_normalize_idempotent(n):
    p = random_pattern(Random(n), depth=3)
    assert normalize(normalize(p)) == normalize(p)


@given(st.integers(0, 10_000))
def test_equiv_respects_par_permutation(n):
    rng = Random(n)
    parts = tuple(random_pattern(rng, 1) for _ in range(3))
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert equiv(Par(parts), Par(tuple(shuffled)))


@given(st.integers(0, 10_000))
def test_equiv_is_a_congruence_for_contexts(n):
    rng = Random(n)
    p = random_pattern(rng, 1)
    q = Par((p, EPS))  # congruent by the unit axiom
    mem = (a, b)
    assert equiv(Loop(mem, p), Loop(mem, q))
    assert equiv(Par((p, seq("c"))), Par((q, seq("c"))))


def test_members_of():
    assert members_of(EPS) == ()
    assert members_of(seq("a")) == (seq("a"),)
    assert members_of(normalize(Par((seq("a"), seq("b"))))) == (
        seq("a"), seq("b"))


# -- congruence closure oracle agreement (small spot check; the acceptance
#    suite runs the full universe)

def test_axiom_moves_preserve_normal_form():
    for t in enumerate_raw_terms(3):
        canon = normalize(t)
        for t2 in one_step(t):
            assert normalize(t2) == canon, (t, t2)


def test_closure_reaches_all_congruent_raw_terms_small():
    universe = enumerate_raw_terms(3)
    classes: dict = {}
    for t in universe:
        classes.setdefault(normalize(t), []).append(t)
    for canon, members in classes.items():
        cap = max(node_count(m) for m in members) + 3
        reached = congruence_closure(members[0], cap)
        for m in members:
            assert m in reached, (members[0], m)


# -- variables, groundness, well-formedness

def test_pattern_vars_rule_bodies_toggle():
    r = PlainRule(Seq((ElemVar("x"),)), Seq((ElemVar("x"),)))
    p = Par((r, Seq((SeqVar("u"),))))
    assert pattern_vars(p) == frozenset({ElemVar("x"), SeqVar("u")})
    assert pattern_vars(p, include_rule_bodies=False) == frozenset({SeqVar("u")})
    assert not is_ground(p)
    assert is_ground(Par((r, seq("a"))))


def test_is_ground_memoises_its_verdict_on_the_node(monkeypatch):
    r = PlainRule(Seq((ElemVar("x"),)), Seq((ElemVar("x"),)))
    ground = Par((r, Loop((a,), seq("b"))))
    open_ = Par((r, Loop((a,), Seq((SeqVar("u"),)))))
    assert is_ground(ground) and not is_ground(open_)
    # a second verdict is read off the node, without a walk
    monkeypatch.setattr(terms, "var_occurrences", None)
    assert is_ground(ground) and not is_ground(open_)


def test_local_rule_violations():
    ok = PlainRule(Seq((ElemVar("x"),)), Seq((ElemVar("x"), a)))
    assert local_rule_violations(ok) == ()
    assert "empty-lhs" in local_rule_violations(PlainRule(EPS, seq("a")))
    assert "empty-lhs" in local_rule_violations(
        PlainRule(Par((EPS, Seq(()))), seq("a")))
    assert "rhs-vars" in local_rule_violations(
        PlainRule(seq("a"), Seq((ElemVar("x"),))))
    # membrane variables on the left bind for the whole rule
    r = OutRule(seq("a"), (SeqVar("u"),), Seq((SeqVar("u"),)), (SeqVar("u"),))
    assert local_rule_violations(r) == ()
    bad = OutRule(seq("a"), (a,), seq("a"), (SeqVar("u"),))
    assert "membrane-vars" in local_rule_violations(bad)
    # rhs may not use variables bound only inside an embedded rule body
    nested = PlainRule(Seq((ElemVar("x"),)), Seq((ElemVar("x"),)))
    outer = PlainRule(Par((seq("a"), nested)), Seq((ElemVar("x"),)))
    assert local_rule_violations(outer) == ()


def test_global_rule_violations():
    assert local_rule_violations(GlobalRule(seq("a"), seq("b"))) == ()
    assert "empty-lhs" in local_rule_violations(GlobalRule(EPS, EPS))
    assert "rhs-vars" in local_rule_violations(
        GlobalRule(seq("a"), Seq((SeqVar("u"),))))
    # variables under an embedded rule on the lhs count as bound
    inner = PlainRule(Seq((ElemVar("x"),)), Seq((ElemVar("x"),)))
    g = GlobalRule(Par((seq("a"), inner)), Seq((ElemVar("x"),)))
    assert local_rule_violations(g) == ()


# -- marks

def test_marks_distribute_over_par_only():
    p = Frozen(Par((seq("a"), seq("b"))))
    n = normalize(p)
    assert n == Par((Frozen(seq("a")), Frozen(seq("b"))))
    q = Frozen(Loop((a,), seq("b")))
    assert normalize(q) == Frozen(Loop((a,), seq("b")))


def test_frozen_eps_vanishes_and_nesting_collapses():
    assert normalize(Frozen(EPS)) == EPS
    assert normalize(Frozen(Frozen(seq("a")))) == Frozen(seq("a"))


def test_has_marks_and_erase():
    t = Par((Frozen(seq("a")), Loop((a,), seq("b"), mem_frozen=True)))
    assert has_marks(t)
    assert not has_marks(erase(t))
    assert normalize(erase(t)) == normalize(Par((seq("a"), Loop((a,), seq("b")))))


def test_has_marks_sees_marks_in_rule_bodies():
    marked = Frozen(seq("b"))
    for rule in (PlainRule(marked, seq("c")), PlainRule(seq("c"), marked),
                 OutRule(marked, (a,), seq("c"), (a,)),
                 InRule(seq("c"), (a,), marked, (a,))):
        assert has_marks(rule)
        assert has_marks(Loop((a,), Par((rule, seq("d")))))
    assert not has_marks(PlainRule(seq("b"), seq("c")))


@given(st.integers(0, 10_000))
def test_erase_commutes_with_normalize(n):
    rng = Random(n)
    p = random_ground_term(rng, 2)
    wrapped = Par((Frozen(p), seq("c")))
    assert normalize(erase(normalize(wrapped))) == normalize(erase(wrapped))


def test_frozen_membrane_renders_with_marker():
    t = Loop((a,), seq("b"), mem_frozen=True)
    assert canonical_text(t) == "loop(!a)[b]"
    assert canonical_text(Frozen(seq("a"))) == "!a"
    assert canonical_text(Frozen(Loop((a,), Par((seq("b"), seq("c")))))) \
        == "!loop(a)[b | c]"


# -- splicing

def _piece(rng: Random):
    """A ground term that may be marked, a frozen membrane, eps or a bag."""
    roll = rng.random()
    if roll < 0.2:
        return Frozen(random_ground_term(rng, 2))
    if roll < 0.35:
        return Loop(random_membrane(rng), random_ground_term(rng, 1), True)
    if roll < 0.45:
        return EPS
    if roll < 0.55:
        return Par((_piece(rng), _piece(rng)))
    return random_ground_term(rng, 2)


@given(st.integers(0, 2**32), st.integers(0, 6), st.integers(0, 3),
       st.data())
def test_splice_is_normalize_of_the_kept_and_added(seed, n, n_add, data):
    rng = Random(seed)
    members = members_of(normalize(Par(tuple(_piece(rng)
                                             for _ in range(n)))))
    keep = data.draw(st.sets(st.sampled_from(range(len(members))))
                     if members else st.just(set()))
    drop = set(range(len(members))) - keep
    add = tuple(_piece(rng) for _ in range(n_add))
    kept = tuple(m for i, m in enumerate(members) if i not in drop)
    got = splice(members, drop, add)
    assert got is normalize(Par(kept + add))
    assert normalize(got) is got


@given(st.integers(0, 2**32), st.integers(0, 8), st.data())
def test_splice_drops_by_slot_and_adds_eps_bags_and_marks(seed, n, data):
    rng = Random(seed)
    members = members_of(normalize(Par(tuple(_piece(rng)
                                             for _ in range(n)))))
    many = data.draw(st.sampled_from([0, 1, 2, len(members)]))
    slots = data.draw(st.permutations(range(len(members))))[:many]
    drop = data.draw(st.sampled_from([set(slots), tuple(slots)]))
    kinds = {"eps": lambda: EPS, "member": lambda: _piece(rng),
             "bag": lambda: Par((_piece(rng), _piece(rng), Frozen(EPS))),
             "marked": lambda: Frozen(Par((_piece(rng), _piece(rng))))}
    add = tuple(kinds[k]() for k in data.draw(
        st.lists(st.sampled_from(sorted(kinds)), max_size=4)))
    kept = tuple(m for i, m in enumerate(members) if i not in drop)
    assert splice(members, drop, add) is normalize(Par((*kept, *add)))


def test_splice_edge_cases():
    members = members_of(normalize(Par((seq("b"), Frozen(seq("a")),
                                        PlainRule(seq("a"), seq("c"))))))
    assert splice(members, {0, 1, 2}, ()) is EPS
    assert splice(members, {0, 1, 2}, (EPS, Par((EPS, seq("c"))))) is seq("c")
    assert splice(members, {0, 2}, ()) is members[1]
    assert splice((), (), (Par((seq("c"), seq("a"))),)) \
        is normalize(Par((seq("a"), seq("c"))))


def test_erase_memo_is_kept_on_marked_nodes_only():
    t = normalize(Par((Frozen(seq("a")), Loop((a,), seq("b"), True))))
    e = erase(t)
    assert erase(t) is e and t.__dict__["_erased"] is e
    assert "_erased" not in vars(e)  # unmarked: erase is the identity
    r = PlainRule(Frozen(seq("a")), seq("b"))  # a rule body is not erased
    assert erase(r) is r and "_erased" not in vars(r)
