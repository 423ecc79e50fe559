"""Typed reduction: label admission, permission checks, subject reduction."""

import gc
import hashlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import clslr
from clslr import bundled_model
from clslr.engine import (
    apply_label,
    find_redexes,
    replay,
    run,
    verify_decomposition,
)
from clslr.syntax import (
    merge_elements,
    parse_global_text,
    parse_model,
    parse_pattern_text,
    trace_from_json,
    trace_to_json,
)
from clslr.terms import erase, normalize
from clslr.typecheck import (
    Classification,
    SideConditionError,
    TypingError,
    UnknownElementError,
    pattern_type,
)
from clslr.typed import (
    subject_reduction_check,
    typed_find_redexes,
    typed_ok,
    typed_run,
)

from oracles import random_model

P = parse_pattern_text
G = parse_global_text

F = frozenset

LAMBDA_EX = Classification({
    "cell": F("i"),
    "nucleus": F("os"),
    "Tom": F("oi"),
    "Tim": F("o"),
    "g": F(),
})


def test_typed_labels_are_a_subset():
    t = P("loop(Tim)[ { ATP ^ ~x => ATP ^ ~x } | ATP ] | { ATP => ATP }")
    all_labels = find_redexes([], t)
    typed = typed_find_redexes([], t, LAMBDA_EX)
    assert set(typed) <= set(all_labels)


def test_out_crossing_rejected_when_membrane_forbids_o():
    # the crossing types only if the compartment being crossed grants o;
    # the membrane sides alone cannot fail when both sides are equal
    t = P("loop(g)[ { ATP ^ ~x => ATP ^ ~x } | ATP ]")
    assert len(find_redexes([], t)) == 1
    assert typed_find_redexes([], t, LAMBDA_EX) == []
    healthy = P("loop(Tim)[ { ATP ^ ~x => ATP ^ ~x } | ATP ]")
    assert len(typed_find_redexes([], healthy, LAMBDA_EX)) == 1


def test_crossing_rejected_by_a_membrane_side_condition():
    # T grants o, so only the rule's own membrane sides can reject it: the
    # side condition on T => U fails inside typed_ok
    t = P("loop(T)[ a | { a ^ T => a ^ U } ]")
    classif = Classification({"a": F(), "T": F("o"), "U": F()})
    assert [lbl.schema for lbl in find_redexes([], t)] == ["LR-Out"]
    with pytest.raises(SideConditionError):
        pattern_type({}, classif, P("{ a ^ T => a ^ U }"))
    assert typed_find_redexes([], t, classif) == []
    assert typed_run(t, [], classif, steps=1).rounds == ()


def test_in_crossing_rejected_when_compartment_forbids_i():
    t = P("loop(g)[ { a @ Tim => a @ Tim } | a | loop(Tim)[ b ] ]")
    assert len(find_redexes([], t)) == 1
    assert typed_find_redexes([], t, LAMBDA_EX) == []
    ok = P("loop(Tom)[ { a @ Tim => a @ Tim } | a | loop(Tim)[ b ] ]")
    assert len(typed_find_redexes([], ok, LAMBDA_EX)) == 1


def test_root_compartment_grants_everything():
    t = P("{ a @ Tim => a @ Tim } | a | loop(Tim)[ b ]")
    assert len(typed_find_redexes([], t, LAMBDA_EX)) == 1


def test_global_rule_filtered_by_type_preservation():
    classif = Classification({"a": F(), "b": F(), "m": F("o")})
    growing = G("a => { b ^ m => b ^ m }")
    t = P("a")
    assert len(find_redexes([growing], t)) == 1
    assert typed_find_redexes([growing], t, classif) == []
    shrinking = G("{ b ^ m => b ^ m } => a")
    t2 = P("{ b ^ m => b ^ m }")
    assert len(typed_find_redexes([shrinking], t2, classif)) == 1


def test_global_rule_checked_under_inferred_basis():
    classif = Classification({"a": F(), "m": F("oi")})
    g = G("$T | a => $T")
    # image of $T is an out rule: still type-preserving (the type shrinks)
    t = P("{ a ^ m => a ^ m } | a")
    labels = typed_find_redexes([g], t, classif)
    finals = {normalize(erase(apply_label(t, lbl))) for lbl in labels}
    assert normalize(P("{ a ^ m => a ^ m }")) in finals


def test_unknown_element_propagates_under_strict_classification():
    t = P("loop(zz)[ { a ^ zz => a ^ zz } | a ]")
    with pytest.raises(UnknownElementError):
        typed_find_redexes([], t, Classification({"a": F()}))


def test_permissive_classification_warns_and_continues():
    t = P("loop(zz)[ { a ^ zz => a ^ zz } | a ]")
    classif = Classification({"a": F()}, strict=False)
    with pytest.warns(UserWarning):
        labels = typed_find_redexes([], t, classif)
    # zz gets the empty type, which does not grant o
    assert labels == []


def test_typed_run_of_ill_typed_model_gets_stuck_not_raises():
    t = P("loop(g)[ { ATP ^ ~x => ATP ^ ~x } | ATP ]")
    tr = typed_run(t, [], LAMBDA_EX, steps=3)
    assert tr.rounds == ()
    assert normalize(tr.final) == normalize(t)


def test_typed_parallel_reduce_matches_untyped_when_all_admitted():
    t = P("loop(Tim)[ { ATP ^ ~x => ATP ^ ~x } | ATP ]")
    typed = typed_run(t, [], LAMBDA_EX)
    untyped = run(t, [], steps=1)
    assert normalize(typed.final) == normalize(untyped.final)


def test_subject_reduction_fails_when_the_before_term_does_not_type():
    classif = Classification({"a": F(), "m": F()})
    # the rule needs {r} of a membrane that grants nothing
    assert not subject_reduction_check(P("loop(m)[{ ?x => ?x | ?x }]"),
                                       P("a"), classif)


def test_subject_reduction_on_golden_run():
    from pathlib import Path
    from clslr import bundled_model
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    classif = Classification(dict(lam.elements))
    states = [normalize(model.term)]
    cur = model.term
    for _ in range(8):
        tr = typed_run(cur, model.globals, classif)
        cur = tr.final
        states.append(cur)
    for before, after in zip(states, states[1:]):
        assert subject_reduction_check(before, after, classif)


def test_subject_reduction_random_models_spot():
    checked = 0
    for seed in range(120):
        term, globals_, entries = random_model(seed)
        classif = Classification(entries)
        try:
            pattern_type({}, classif, term)
        except Exception:
            continue
        tr = typed_run(term, globals_, classif, steps=2)
        if not tr.rounds:
            continue
        checked += 1
        states = [tr.initial]
        cur = tr.initial
        for rnd in tr.rounds:
            mt = cur
            for lbl in rnd:
                mt = apply_label(mt, lbl)
            cur = normalize(erase(mt))
            states.append(cur)
        for before, after in zip(states, states[1:]):
            assert subject_reduction_check(before, after, classif), seed
    assert checked >= 20  # the sweep must not be vacuous


GOLDEN_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from clslr import bundled_model
from clslr.syntax import parse_model, trace_to_json
from clslr.typecheck import Classification
from clslr.typed import typed_run
model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
lam = parse_model(Path(bundled_model("mitochondria.lambda.clslr")).read_text())
trace = typed_run(model.term, model.globals,
                  Classification(dict(lam.elements)), steps=30)
print(hash("clslr"))
sys.stdout.write(trace_to_json(trace))
"""


COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
from pathlib import Path
from clslr import (EPS, Classification, Element, Loop, bundled_model,
                   parse_model, trace_from_json, trace_to_json, typed_run,
                   verify_decomposition)
model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
lam = parse_model(Path(bundled_model("mitochondria.lambda.clslr")).read_text())
trace = typed_run(model.term, model.globals,
                  Classification(dict(lam.elements)), steps=30)
assert verify_decomposition(trace_from_json(trace_to_json(trace)))
# keyword and defaulted constructor calls bind without inspect too
assert Element(name="a") is Element("a")
assert Loop((Element("m"),), EPS) is Loop((Element("m"),), EPS, False)
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_cold_start_loads_neither_dataclasses_nor_inspect():
    # each CLI command is a fresh interpreter: the package, a golden run
    # and a trace round trip must not pay for importing these modules
    src = str(Path(clslr.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-I", "-c", COLD_START, src],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert done.stdout == "[]\n"


def test_golden_trace_bytes_do_not_depend_on_hash_seed():
    # node hashes are identities, so no output may follow the iteration
    # order of a set or dict of nodes.  -I would ignore PYTHONHASHSEED
    # (it implies -E), so the children get -s and a bare environment.
    src = str(Path(clslr.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("0", "1"):
        env = {"PYTHONHASHSEED": hash_seed, "PATH": os.environ.get("PATH", "")}
        done = subprocess.run([sys.executable, "-s", "-c", GOLDEN_RUN, src],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        outs.append(done.stdout.split("\n", 1))
    (hash0, text0), (hash1, text1) = outs
    assert hash0 != hash1  # the seeds took effect
    assert text0 == text1

    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    trace = typed_run(model.term, model.globals,
                      Classification(dict(lam.elements)), steps=30)
    assert len(trace.labels) == 231
    assert text0 == trace_to_json(trace)


def test_golden_replay_leaves_no_cyclic_garbage():
    # the memos of normalize, erase and the rest never refer back to their
    # node, so reading and replaying a trace frees everything it built
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    classif = Classification(dict(lam.elements))
    text = trace_to_json(typed_run(model.term, model.globals, classif,
                                   steps=30))
    assert replay(trace_from_json(text))
    gc.collect()
    gc.disable()
    try:
        trace = trace_from_json(text)
        assert verify_decomposition(trace)
        final = replay(trace)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert final is trace.final and len(trace.labels) == 231


# sha256 and length of the golden model's typed maximal trace JSON, as the
# benchmark's mito workload computes it; any change to discovery order,
# label content or trace encoding shows here
GOLDEN_TRACE_SHA = {
    8: ("b4b39a1218fb2c70486cfae4eee3924cd8c7d70f7dbbe76efeb2536ffd52852c",
        13084),
    30: ("d8b7d5e076712849c6f4ef976be29d27b80b1180e3544f0acfb8934204c84c0b",
         90207),
}


# sha256 over the trace JSON of random_model seeds 0-499, 3 steps, each
# untyped then typed under single, maximal and random-k (k = 2)
RANDOM_GRID_SHA = \
    "953ac6fde8e0c0438ec062772b3bcb9cf0fbc23ba7ab342d36f1a4317eb72417"


def test_random_grid_trace_bytes_are_pinned():
    digest = hashlib.sha256()
    for seed in range(500):
        term, rules, entries = random_model(seed)
        classif = Classification(entries)
        for strategy, k in (("single", None), ("maximal", None),
                            ("random-k", 2)):
            kw = dict(steps=3, strategy=strategy, k=k)
            digest.update(trace_to_json(run(term, rules, **kw)).encode())
            digest.update(trace_to_json(
                typed_run(term, rules, classif, **kw)).encode())
    assert digest.hexdigest() == RANDOM_GRID_SHA


def test_typed_golden_run_leaves_no_cyclic_garbage():
    # nodes are freed by reference counting alone, so the run-wide spent
    # set never depends on when the cyclic collector happens to run
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    classif = Classification(dict(lam.elements))
    typed_run(model.term, model.globals, classif, steps=30)
    gc.collect()
    gc.disable()
    try:
        trace = typed_run(model.term, model.globals, classif, steps=30)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(trace.labels) == 231


@pytest.mark.parametrize("steps", sorted(GOLDEN_TRACE_SHA))
def test_golden_trace_bytes_are_pinned(steps):
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    model.elements = merge_elements(model.elements, lam.elements)
    trace = typed_run(model.term, model.globals, model.classification(),
                      steps=steps)
    data = trace_to_json(trace).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == \
        GOLDEN_TRACE_SHA[steps]


def test_typed_run_judges_each_verdict_key_once(monkeypatch):
    # the same rule under the same basis (?x -> a) is admitted where the
    # membrane grants its head {r} and rejected where it does not
    t = P("loop(good)[ a | { ?x => ?x | ?x } ] | "
          "loop(bad)[ a | { ?x => ?x | ?x } ]")
    classif = Classification({"a": F(), "good": F("r"), "bad": F()})
    want = run(t, [], steps=3, label_filter=partial(typed_ok, classif=classif))
    calls = []

    def counted(mt, label, classif):
        calls.append(label)
        return typed_ok(mt, label, classif)

    monkeypatch.setattr(clslr.typed, "typed_ok", counted)
    got = typed_run(t, [], classif, steps=3)
    assert got == want
    assert len(got.labels) == 7  # 1, 2 and 4 copies of a in good
    assert {lbl.path for lbl in got.labels} == {(1, "loop")}
    assert len(calls) == 2  # once admitted in good, once rejected in bad


@pytest.mark.parametrize("term", [
    "loop(zz)[ { a ^ zz => a ^ zz } | a ]",  # the membrane: in typed_ok
    "loop(m)[ { ?x => ?x } | zz ]",  # the image: in infer_basis
])
def test_typed_run_raises_on_a_strict_classification_miss(term):
    classif = Classification({"a": F(), "m": F()})
    with pytest.raises(TypingError) as err:
        typed_run(P(term), [], classif, steps=2)
    assert err.value.judgment == "classification"
