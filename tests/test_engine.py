"""Redex discovery, the four schemas, freeze discipline, traces."""

import gc
import importlib
import importlib.util

import pytest
from hypothesis import given, strategies as st
from pathlib import Path
from random import Random

from clslr.engine import (
    ReductionLabel,
    StaleLabelError,
    StepCapError,
    Trace,
    apply_label,
    compartment_sites,
    find_redexes,
    node_at,
    replace_at,
    replay,
    run,
    verify_decomposition,
)
from clslr import bundled_model, engine
from clslr.matching import MatchCapError
from clslr.syntax import (
    merge_elements,
    parse_global_text,
    parse_model,
    parse_pattern_text,
    trace_from_json,
    trace_to_json,
)
from clslr.terms import (
    EPS,
    ElemVar,
    Element,
    Frozen,
    GlobalRule,
    InRule,
    Loop,
    OutRule,
    Par,
    PlainRule,
    Seq,
    TermVar,
    equiv,
    erase,
    has_marks,
    is_ground,
    normalize,
    seq,
)
from clslr.typecheck import Classification
from clslr.typed import typed_ok, typed_run

from oracles import random_ground_term, random_model

P = parse_pattern_text
G = parse_global_text


def schemas(labels):
    return [lbl.schema for lbl in labels]


# -- context navigation

def test_node_at_and_replace_at():
    t = normalize(P("a | loop(m)[ b | c ]"))
    # members sort canonically: a, loop(m)[b | c]
    assert node_at(t, (1, "loop")) == normalize(P("b | c"))
    assert node_at(t, (1, "loop", 0)) == seq("b")
    got = normalize(replace_at(t, (1, "loop", 0), seq("d")))
    assert got == normalize(P("a | loop(m)[ d | c ]"))
    with pytest.raises(StaleLabelError):
        node_at(t, (0, "loop"))
    with pytest.raises(StaleLabelError):
        node_at(t, (5,))


def test_compartment_sites_innermost_first():
    t = normalize(P("a | loop(m)[ loop(w)[ b ] | c ]"))
    paths = [p for p, _ in compartment_sites(t)]
    assert paths[-1] == ()
    inner = paths.index((1, "loop", 1, "loop"))
    outer = paths.index((1, "loop"))
    assert inner < outer


def test_compartment_sites_skip_frozen_subtrees():
    t = normalize(Par((Frozen(Loop((Element("m"),), seq("a"))), seq("b"))))
    paths = [p for p, _ in compartment_sites(t)]
    assert paths == [()]


def test_paths_into_a_deep_chain_need_no_recursion():
    # built with constructors only: normalize and rendering still recurse
    t = seq("a")
    for _ in range(2000):
        t = Loop((Element("m"),), t)
    sites = compartment_sites(t)
    assert len(sites) == 2001
    assert [len(p) for p, _ in sites] == list(range(2000, -1, -1))
    assert sites[0][1].content is seq("a")
    assert sites[-1] == ((), None)
    assert all(loop is node_at(t, p[:-1]) for p, loop in sites[:-1])
    deep = ("loop",) * 2000
    assert node_at(replace_at(t, deep, seq("b")), deep) is seq("b")
    assert is_ground(t)


# -- global rewrites

def test_global_rewrite_at_root():
    labels = find_redexes([G("a => b")], P("a | c"))
    assert schemas(labels) == ["GRT"]
    mt = apply_label(P("a | c"), labels[0])
    assert has_marks(mt)
    assert normalize(erase(mt)) == normalize(P("b | c"))


def test_global_rewrite_inside_membranes():
    t = P("loop(m)[ a ]")
    labels = find_redexes([G("a => b")], t)
    assert len(labels) == 1
    assert labels[0].path == ("loop",)
    assert normalize(erase(apply_label(t, labels[0]))) == normalize(P("loop(m)[ b ]"))


def test_global_selection_must_be_nonempty():
    # the eps selection of ~u is not a redex
    labels = find_redexes([G("~u => ~u.a")], P("b"))
    assert len(labels) == 1
    (lbl,) = labels
    assert dict(lbl.binding)[list(dict(lbl.binding))[0]] == (Element("b"),)


def test_global_rule_variable_selections_are_separate_labels():
    labels = find_redexes([G("?x => ?x.?x")], P("a | b"))
    assert len(labels) == 2
    finals = {normalize(erase(apply_label(P("a | b"), lbl))) for lbl in labels}
    assert finals == {normalize(P("a.a | b")), normalize(P("a | b.b"))}


def test_global_rhs_needing_unmatchable_binding_is_skipped():
    # ?y occurs only inside a rule literal on the lhs; matching binds nothing
    g = GlobalRule(P("{ ?y => ?y }"), Seq((__import__("clslr").ElemVar("y"),)))
    labels = find_redexes([g], P("{ ?y => ?y }"))
    assert labels == []


def test_global_rhs_with_an_unbound_term_variable_is_skipped():
    assert find_redexes([GlobalRule(P("a"), TermVar("Y"))], P("a")) == []


def test_global_rewrite_takes_whole_multiset():
    t = P("a | a | b")
    labels = find_redexes([G("a | a => c")], t)
    assert len(labels) == 1
    assert normalize(erase(apply_label(t, labels[0]))) == normalize(P("b | c"))


# -- local plain rewrites

def test_local_rule_rewrites_sibling():
    t = P("c | { c => d }")
    labels = find_redexes([], t)
    assert schemas(labels) == ["LR"]
    mt = apply_label(t, labels[0])
    assert normalize(erase(mt)) == normalize(P("d | { c => d }"))


def test_local_rule_does_not_fire_without_its_material():
    assert find_redexes([], P("{ c => d }")) == []
    # and not on material in another compartment
    assert find_redexes([], P("{ c => d } | loop(m)[ c ]")) == []


def test_local_rule_residue_records_leftover_siblings():
    t = P("a | c | { c => d }")
    (lbl,) = find_redexes([], t)
    assert lbl.residue == seq("a")


def test_identical_redexes_collapse_to_one_label():
    t = P("a | a | { a => b }")
    labels = find_redexes([], t)
    assert len(labels) == 1


def test_rule_occurrence_matches_not_itself():
    # the rule is not part of the matched material
    t = P("{ a => b }")
    assert find_redexes([], t) == []


# -- out rewrites

def test_out_rule_crosses_and_freezes_membrane():
    t = P("loop(m)[ { a ^ m => b ^ m } | a ]")
    labels = find_redexes([], t)
    assert schemas(labels) == ["LR-Out"]
    assert labels[0].path == ()
    mt = apply_label(t, labels[0])
    # the crossed membrane is frozen within the step
    inner = [m for m in mt.parts if isinstance(m, Loop)]
    assert inner[0].mem_frozen
    assert normalize(erase(mt)) == normalize(
        P("b | loop(m)[ { a ^ m => b ^ m } ]"))


def test_out_rule_membrane_variable_binds_membrane():
    t = P("loop(m.w)[ { a ^ ~z => a ^ ~z.~z } | a ]")
    labels = find_redexes([], t)
    # one label per membrane rotation; they land on congruent results here
    assert len(labels) == 2
    finals = {normalize(erase(apply_label(t, lbl))) for lbl in labels}
    assert len(finals) == 1
    mems = [m.membrane for m in finals.pop().parts if isinstance(m, Loop)]
    # ~z bound to a rotation of the membrane, duplicated on exit
    assert len(mems[0]) == 4


def test_out_rule_blocked_by_frozen_membrane():
    t = normalize(Loop((Element("m"),),
                       P("{ a ^ m => b ^ m } | a"), mem_frozen=True))
    assert find_redexes([], t) == []


def test_out_rule_only_crosses_once_per_step():
    t = P("loop(m)[ { a ^ m => a ^ m } | a | a ]")
    tr = run(t, [])
    assert len(tr.rounds[0]) == 1
    # the second copy leaves in the next parallel step
    tr2 = run(t, [], steps=2)
    assert len(tr2.labels) == 2
    assert normalize(tr2.final) == normalize(
        P("a | a | loop(m)[ { a ^ m => a ^ m } ]"))


# -- in rewrites

def test_in_rule_sends_material_into_sibling():
    t = P("{ a @ m => b @ m } | a | loop(m)[ c ]")
    labels = find_redexes([], t)
    assert schemas(labels) == ["LR-In"]
    assert labels[0].residue == seq("c")
    mt = apply_label(t, labels[0])
    assert normalize(erase(mt)) == normalize(
        P("{ a @ m => b @ m } | loop(m)[ b | c ]"))


def test_in_rule_distinguishes_targets_by_residue():
    t = P("{ a @ m => a @ m } | a | loop(m)[ b ] | loop(m)[ c ]")
    labels = find_redexes([], t)
    assert len(labels) == 2
    by_residue = {lbl.residue: lbl for lbl in labels}
    mt = apply_label(t, by_residue[seq("c")])
    assert normalize(erase(mt)) == normalize(
        P("{ a @ m => a @ m } | loop(m)[ b ] | loop(m)[ a | c ]"))


def test_in_rule_identical_targets_one_label():
    t = P("{ a @ m => a @ m } | a | loop(m)[ b ] | loop(m)[ b ]")
    labels = find_redexes([], t)
    assert len(labels) == 1


def test_in_rule_freezes_target_membrane():
    t = P("{ a @ m => a @ m } | a | a | loop(m)[ b ]")
    tr = run(t, [])
    assert len(tr.rounds[0]) == 1  # the second copy finds no unfrozen target


# -- freeze discipline

def test_produced_material_is_not_rematched_within_a_step():
    tr = run(P("c | { c => c }"), [])
    assert len(tr.rounds[0]) == 1
    assert normalize(tr.final) == normalize(P("c | { c => c }"))


def test_produced_rules_fire_only_next_step():
    t = P("a | b")
    tr = run(t, [G("a => { b => c }")], steps=2)
    assert [len(r) for r in tr.rounds] == [1, 1]
    assert normalize(tr.final) == normalize(P("c | { b => c }"))


def test_marks_are_erased_between_steps():
    tr = run(P("a"), [G("a => b")])
    assert not has_marks(tr.final)


# -- strategies

def test_single_strategy_applies_first_label():
    t = P("a | a | { a => b }")
    tr = run(t, [], strategy="single", steps=1)
    assert len(tr.labels) == 1


def test_random_k_is_seeded_and_bounded():
    t = P("a | b | c | { a => d } | { b => d } | { c => d }")
    tr1 = run(t, [], strategy="random-k", k=2, seed=7)
    tr2 = run(t, [], strategy="random-k", k=2, seed=7)
    assert tr1 == tr2
    assert len(tr1.rounds[0]) == 2
    tr3 = run(t, [], strategy="random-k", k=2, seed=8)
    assert len(tr3.rounds[0]) == 2


def test_maximal_strategy_exhausts_redexes():
    t = P("a | b | { a => c } | { b => c }")
    tr = run(t, [])
    assert len(tr.rounds[0]) == 2
    assert normalize(tr.final) == normalize(P("c | c | { a => c } | { b => c }"))


def test_run_stops_early_when_nothing_applies():
    tr = run(P("a"), [G("b => c")], steps=5)
    assert tr.rounds == ()
    assert normalize(tr.final) == seq("a")


def test_empty_rule_set_means_no_steps():
    t = random_ground_term(Random(3), 2, rules_ok=False)
    tr = run(t, [])
    assert tr.rounds == ()
    assert equiv(tr.final, t)


def test_strategy_validation():
    with pytest.raises(ValueError):
        run(P("a"), [], strategy="bogus")
    with pytest.raises(ValueError):
        run(P("a"), [], strategy="random-k")  # k missing
    with pytest.raises(ValueError):
        run(P("a"), [], strategy="maximal", k=3)


def test_step_cap():
    t = P("c | c | c | c | c | { c => d }")
    with pytest.raises(StepCapError):
        run(t, [], step_cap=3)


def test_step_cap_admits_a_step_of_exactly_the_cap():
    # the cap is checked only once a scan finds another label to apply
    t = P("a | a | a | { a => b }")
    classif = Classification({"a": frozenset(), "b": frozenset()})
    assert len(run(t, [], step_cap=3).labels) == 3
    assert len(typed_run(t, [], classif, step_cap=3).labels) == 3
    with pytest.raises(StepCapError):
        run(t, [], step_cap=2)
    with pytest.raises(StepCapError):
        typed_run(t, [], classif, step_cap=2)


def test_repeated_term_variable_run_leaves_no_cyclic_garbage():
    # the benchmark's termvar shape: each image of $X | $X is built by
    # splice, and the run frees it by reference counting alone
    t = P("a | b | c | d | a.b | b.c | c.d | d.a | a.b.c | b.c.d | z | z | "
          "{ $X | $X => $X | $X }")
    run(t, [], steps=2)
    gc.collect()
    gc.disable()
    try:
        trace = run(t, [], steps=2)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(trace.labels) == 2 and trace.final == normalize(t)


def test_run_rejects_marked_start():
    with pytest.raises(ValueError):
        run(Frozen(seq("a")), [])


def test_run_rejects_start_with_variables():
    with pytest.raises(ValueError):
        run(P("?x | { ?x => b }"), [])


# -- labels, replay, verification

def test_apply_label_is_stale_on_other_terms():
    (lbl,) = find_redexes([], P("c | { c => d }"))
    with pytest.raises(StaleLabelError):
        apply_label(P("a"), lbl)


def test_apply_label_stale_when_material_frozen():
    t = P("c | { c => d }")
    (lbl,) = find_redexes([], t)
    frozen = normalize(Par((Frozen(seq("c")), P("{ c => d }"))))
    with pytest.raises(StaleLabelError):
        apply_label(frozen, lbl)


def test_replay_never_takes_frozen_material():
    # $X may bind the frozen a, but replay must not consume it
    X = TermVar("X")
    rule = PlainRule(X, seq("b"))
    mt = normalize(Par((Frozen(seq("a")), rule)))
    lbl = ReductionLabel("LR", rule, (), ((X, Frozen(seq("a"))),), seq("a"))
    with pytest.raises(StaleLabelError,
                       match="matched material is no longer available"
                             " unmarked"):
        apply_label(mt, lbl)


def test_out_rule_crosses_an_empty_membrane():
    t = P("loop(eps)[a | { a ^ ~x => a ^ ~x }]")
    tr = run(t, [], steps=1)
    assert [(lbl.schema, lbl.path) for lbl in tr.labels] == [("LR-Out", ())]
    assert tr.final == normalize(P("a | loop(eps)[{ a ^ ~x => a ^ ~x }]"))
    assert verify_decomposition(tr)


def test_trace_replays_to_final():
    t = P("loop(m)[ { a ^ m => b ^ m } | a | c | { c => d } ]")
    tr = run(t, [G("d => e")], steps=3)
    assert replay(tr) == normalize(tr.final)
    assert verify_decomposition(tr)


def test_verify_rejects_tampered_final():
    tr = run(P("a"), [G("a => b")], steps=1)
    bad = Trace(tr.initial, tr.rounds, seq("z"), tr.seed, tr.strategy, tr.k)
    assert not verify_decomposition(bad)


def test_verify_rejects_reordered_conflicting_labels():
    # two copies of the same label cannot both consume the single a
    tr = run(P("a"), [G("a => b")], steps=1)
    lbl = tr.rounds[0][0]
    bad = Trace(tr.initial, ((lbl, lbl),), tr.final, tr.seed, tr.strategy, tr.k)
    assert not verify_decomposition(bad)


def test_verify_rejects_marked_initial():
    tr = Trace(Frozen(seq("a")), (), Frozen(seq("a")))
    assert not verify_decomposition(tr)


def test_verify_rejects_initial_with_variables():
    t = P("?x | { ?x => b }")
    (lbl,) = find_redexes([], t)
    assert dict(lbl.binding) == {ElemVar("x"): ElemVar("x")}
    final = normalize(erase(apply_label(t, lbl)))
    assert verify_decomposition(Trace(t, ((lbl,),), final)) is False
    assert verify_decomposition(Trace(P("?x | $Y"), (), P("$Y | ?x"))) is False


def test_verify_rejects_every_schema_rule_kind_mismatch():
    t = P("e | a | { a => b } | loop(m)[ c | { c ^ m => c ^ m } ] | "
          "d | { d @ w => d @ w } | loop(w)[ eps ]")
    tr = run(t, [G("e => f")], steps=1)
    assert sorted(schemas(tr.labels)) == ["GRT", "LR", "LR-In", "LR-Out"]
    assert verify_decomposition(tr)
    (rnd,) = tr.rounds
    for i, lbl in enumerate(rnd):
        for schema in ("GRT", "LR", "LR-Out", "LR-In"):
            if schema == lbl.schema:
                continue
            bad_lbl = lbl._replace(schema=schema)
            bad = tr._replace(rounds=(rnd[:i] + (bad_lbl,) + rnd[i + 1:],))
            assert verify_decomposition(bad) is False, (lbl.schema, schema)
            with pytest.raises(StaleLabelError):
                apply_label(t, bad_lbl)


GONE = "rule occurrence or membrane is gone"
MEMBRANE = "membrane no longer matches the rule"
MATERIAL = "matched material is no longer available unmarked"
RESIDUE = "stored residue does not match the site"

FOUR_SCHEMAS = ("e | a | { a => b } | loop(m)[ c | { c ^ m => c ^ m } ] | "
                "d | { d @ w => d @ w } | loop(w)[ eps ]")


@pytest.mark.parametrize("schema, old, new, residue, reason", [
    ("GRT", "e |", "", None, MATERIAL),
    ("GRT", "", "", "w", RESIDUE),
    ("LR", "{ a => b } |", "", None, GONE),
    ("LR", "a |", "", None, MATERIAL),
    ("LR", "", "", "w", RESIDUE),
    ("LR-Out", "{ c ^ m => c ^ m }", "eps", None, GONE),
    ("LR-Out", "loop(m)", "loop(n)", None, MEMBRANE),
    ("LR-Out", "c |", "", None, MATERIAL),
    ("LR-Out", "", "", "w", RESIDUE),
    ("LR-In", "{ d @ w => d @ w } |", "", None, GONE),
    ("LR-In", "loop(w)[ eps ]", "loop(v)[ eps ]", None, MEMBRANE),
    ("LR-In", "d |", "", None, MATERIAL),
    ("LR-In", "", "", "w", RESIDUE),
])
def test_stale_label_names_the_furthest_check(schema, old, new, residue,
                                              reason):
    # each label of FOUR_SCHEMAS applied to an edited copy of it, or with a
    # wrong stored residue, fails at the check named
    (lbl,) = [lbl for lbl in find_redexes([G("e => f")], P(FOUR_SCHEMAS))
              if lbl.schema == schema]
    if residue is not None:
        lbl = lbl._replace(residue=P(residue))
    with pytest.raises(StaleLabelError) as err:
        apply_label(P(FOUR_SCHEMAS.replace(old, new, 1)), lbl)
    assert str(err.value) == reason


def test_lr_out_membrane_frozen_is_gone():
    t = P("loop(m)[ c | { c ^ m => c ^ m } ]")
    (lbl,) = find_redexes([], t)
    frozen = Loop(t.membrane, t.content, True)
    with pytest.raises(StaleLabelError, match=GONE):
        apply_label(frozen, lbl)


@pytest.mark.parametrize("rule", [
    PlainRule(Frozen(seq("b")), seq("c")),
    OutRule(seq("c"), (Element("m"),), Frozen(seq("b")), (Element("m"),)),
    InRule(Frozen(seq("b")), (Element("m"),), seq("c"), (Element("m"),)),
])
def test_verify_rejects_a_mark_inside_a_rule_body(rule):
    tr = run(seq("a"), [GlobalRule(seq("a"), rule)], steps=1)
    assert schemas(tr.labels) == ["GRT"]
    assert not verify_decomposition(tr)


def test_strict_apply_label_refuses_a_marked_rhs():
    rule = PlainRule(Frozen(seq("b")), seq("c"))
    tr = run(seq("a"), [GlobalRule(seq("a"), rule)], steps=1)
    (lbl,) = tr.labels
    with pytest.raises(StaleLabelError, match="marks nest"):
        apply_label(tr.initial, lbl, strict=True)
    # lax application takes it, as replay does
    assert apply_label(tr.initial, lbl) == Frozen(rule)
    assert replay(tr) == normalize(tr.final)


def test_verify_rechecks_a_subtree_sane_before_a_label_rewrote_it():
    # label 1 leaves a mark inside loop(m), so that loop is found sane;
    # label 2 then puts a mark inside a rule body in the same loop
    marked_rule = PlainRule(Frozen(seq("x")), seq("y"))
    tr = run(P("loop(m)[ a | c ]"),
             [G("a => b"), GlobalRule(seq("c"), marked_rule)], steps=1)
    (rnd,) = tr.rounds
    assert [lbl.path for lbl in rnd] == [("loop",), ("loop",)]
    assert not verify_decomposition(tr)
    first = Trace(tr.initial, (rnd[:1],), P("loop(m)[ b | c ]"))
    assert verify_decomposition(first)


def test_verify_rejects_a_frozen_membrane_inside_a_mark():
    # a frozen membrane is a mark, so producing one nests marks
    frozen = Loop((Element("m"),), seq("b"), mem_frozen=True)
    tr = run(seq("a"), [GlobalRule(seq("a"), frozen)], steps=1)
    assert schemas(tr.labels) == ["GRT"]
    assert not verify_decomposition(tr)


def test_verify_rejects_a_label_that_binds_its_rhs_to_marked_material():
    # normalize folds the nested mark Frozen(Frozen(b)) into one, so the
    # replayed term alone cannot show it; the label's right side does
    rule = GlobalRule(seq("a"), TermVar("X"))
    for image, ok in ((seq("b"), True), (Frozen(seq("b")), False)):
        lbl = ReductionLabel("GRT", rule, (), ((TermVar("X"), image),), EPS)
        tr = Trace(seq("a"), ((lbl,),), seq("b"))
        assert replay(tr) == seq("b")
        assert verify_decomposition(tr) is ok


@pytest.mark.parametrize("k", [0, -1, True, 1.5])
def test_random_k_needs_a_positive_integer_k(k):
    with pytest.raises(ValueError):
        run(seq("a"), [G("a => b")], strategy="random-k", k=k)


def test_labels_and_traces_are_values():
    t = P("a | a | { a => b }")
    (lbl,) = find_redexes([], t)
    twin = ReductionLabel(lbl.schema, lbl.rule, lbl.path, lbl.binding,
                          lbl.residue)
    assert twin == lbl and twin is not lbl
    assert {lbl, twin} == {lbl}
    with pytest.raises(AttributeError):
        lbl.schema = "GRT"
    tr = run(t, [], steps=1)
    assert tr == run(t, [], steps=1)
    assert hash(tr) == hash(run(t, [], steps=1))


def test_trace_labels_flatten_rounds():
    tr = run(P("a | b"), [G("a => c"), G("b => c")], steps=1)
    assert len(tr.labels) == len(tr.rounds[0])


@given(st.integers(0, 3_000))
def test_engine_traces_always_verify(n):
    rng = Random(n)
    t = random_ground_term(rng, 2)
    rules = [G("a => b.b"), G("b | c => d")]
    tr = run(t, rules, steps=2, strategy="random-k", k=2, seed=n)
    assert verify_decomposition(tr)
    assert replay(tr) == normalize(tr.final)


@given(st.integers(0, 3_000))
def test_parallel_step_material_is_conserved_or_rewritten(n):
    # a parallel step leaves ground, mark-free output
    rng = Random(n)
    t = random_ground_term(rng, 2)
    tr = run(t, [G("a => b")])
    assert not has_marks(tr.final)
    assert normalize(tr.final) == tr.final


# -- lazy discovery and the memo of spent compartments

def _eager_run(term, rules, *, steps, strategy, seed, k, label_filter):
    """The definition of a run: list every label, filter, pick, apply."""
    rng = Random(seed)
    cur = normalize(term)
    rounds = []
    for _ in range(steps):
        mt, applied = cur, []
        while not ((strategy == "single" and applied)
                   or (strategy == "random-k" and len(applied) >= k)):
            labels = [lbl for lbl in find_redexes(rules, mt)
                      if label_filter is None or label_filter(mt, lbl)]
            if not labels:
                break
            lbl = (labels[rng.randrange(len(labels))]
                   if strategy == "random-k" else labels[0])
            mt = apply_label(mt, lbl)
            applied.append(lbl)
        if not applied:
            break
        rounds.append(tuple(applied))
        cur = normalize(erase(mt))
    return tuple(rounds), cur


def _golden_model():
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    model.elements = merge_elements(model.elements, lam.elements)
    return model.term, model.globals, model.classification()


def test_lazy_discovery_equals_eager_definition():
    models = [(term, rules, Classification(entries))
              for term, rules, entries in map(random_model, range(200))]
    models.append(_golden_model())
    runs = 0
    for term, rules, classif in models:
        def fltr(mt, lbl):
            return typed_ok(mt, lbl, classif)

        for strategy, k in (("single", None), ("maximal", None),
                            ("random-k", 2)):
            for seed in (0, 7):
                kw = dict(steps=3, strategy=strategy, seed=seed, k=k)
                for typed in (False, True):
                    got = (typed_run(term, rules, classif, **kw) if typed
                           else run(term, rules, **kw))
                    want = _eager_run(term, rules, **kw,
                                      label_filter=fltr if typed else None)
                    assert (got.rounds, got.final) == want, (term, kw, typed)
                    runs += bool(got.rounds)
    assert runs > 1000  # the sweep must not be vacuous


def test_verify_instantiates_each_side_of_a_label_once(monkeypatch):
    # the lhs to locate the label, the rhs to check its marks and rewrite
    term, rules, classif = _golden_model()
    trace = typed_run(term, rules, classif, steps=30)
    calls = 0
    substitute = engine.substitute

    def counted(p, inst):
        nonlocal calls
        calls += 1
        return substitute(p, inst)

    monkeypatch.setattr(engine, "substitute", counted)
    assert verify_decomposition(trace)
    assert calls == 2 * len(trace.labels)


def test_spent_memo_is_keyed_by_membrane_node():
    # identical contents; only the m membrane lets the out rule fire, and
    # the k compartment (spent) is scanned first
    t = normalize(P("loop(k)[a | { a ^ m => a ^ m }] | "
                    "loop(m)[a | { a ^ m => a ^ m }]"))
    assert [p for p, _ in compartment_sites(t)][:2] == [(0, "loop"),
                                                        (1, "loop")]
    out = ReductionLabel("LR-Out", P("{ a ^ m => a ^ m }"), (1,), (), EPS)
    assert find_redexes([], t) == [out]
    tr = run(t, [], steps=2)
    assert tr.labels == (out,)
    assert tr.final == normalize(P("a | loop(k)[a | { a ^ m => a ^ m }] | "
                                   "loop(m)[{ a ^ m => a ^ m }]"))


def test_spent_memo_skips_only_spent_sites():
    t = normalize(P("loop(m)[c | { c => d }] | loop(w)[b]"))
    live, dead = node_at(t, (0,)), node_at(t, (1,))
    assert live.membrane == (Element("m"),)

    def scan(spent):
        return engine._matched_redexes([], t, engine.DEFAULT_MATCH_CAP, None,
                                       False, spent)

    spent: set = set()
    assert len(scan(spent)) == 1
    assert spent == {dead}
    assert len(scan(spent)) == 1
    # a site whose loop node is in the set is not scanned
    assert scan({live}) == []


def test_spent_memo_outlives_the_round_that_spent_it(monkeypatch):
    # each round marks the inner compartment into the same spent state as
    # the round before, which a later round skips while that node lives:
    # 3 sites scanned in the first round, 2 in each later one
    calls = 0
    site_labels = engine._site_labels

    def counted(*args):
        nonlocal calls
        calls += 1
        return site_labels(*args)

    monkeypatch.setattr(engine, "_site_labels", counted)
    tr = run(P("loop(m)[a | { a => a }]"), [], steps=3)
    assert len(tr.rounds) == 3
    assert calls == 7


def test_first_stops_at_first_admitted_label():
    t = P("c | c | { c => d } | { c => e }")
    every = find_redexes([], t)
    assert len(every) == 2
    assert run(t, [], strategy="single").labels == tuple(every[:1])

    def not_d(mt, lbl):
        return lbl.rule != P("{ c => d }")

    assert find_redexes([], t, label_filter=not_d) == every[1:]
    assert run(t, [], strategy="single",
               label_filter=not_d).labels == tuple(every[1:])


def test_first_admitted_scan_spends_less_match_budget():
    # the inner compartment is scanned first; the root's $X | $X rule would
    # exceed the cap, and only a scan that lists every label reaches it
    t = P("loop(m)[c | { c => d }] | x1 | x2 | x3 | x4 | x5 | x6 | "
          "{ $X | $X => eps }")
    tr = run(t, [], steps=1, strategy="single", match_cap=50)
    assert [lbl.schema for lbl in tr.labels] == ["LR"]
    with pytest.raises(MatchCapError):
        run(t, [], steps=1, strategy="random-k", k=1, match_cap=50)


def test_deep_nesting_runs_reads_and_replays():
    # the parser's three frames per level bind first; no term walk of the
    # run, the reader or replay may take more
    term = "a"
    for k in range(250):
        term = f"loop(m)[{term} | b{k}]"
    tr = run(P(term), [G("a => b")])
    assert schemas(tr.labels) == ["GRT"]
    back = trace_from_json(trace_to_json(tr))
    assert back == tr
    assert verify_decomposition(back)
    assert replay(back) == tr.final


# -- the traced benchmark replaces these module attributes by name

def test_traced_benchmark_boundaries_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BOUNDARIES
    for module, attr, _ in tracing.BOUNDARIES:
        fn = getattr(importlib.import_module(f"clslr.{module}"), attr, None)
        assert callable(fn), f"clslr.{module}.{attr}"
