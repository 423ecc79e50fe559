"""Acceptance gates.

Eight end-to-end criteria covering the bundled model's staged evolution,
the golden typing values, subject reduction and decomposition sweeps over
random models, matcher-vs-oracle equivalence, the congruence suite,
substitution lemmas, and round-trips.  Each test prints one summary line
of the form ``[criterion N] PASS: ...`` or ``[criterion N] FAIL: ...``.
"""

import time
from pathlib import Path
from random import Random

import pytest

from clslr import bundled_model
from clslr.engine import apply_label, replay, verify_decomposition
from clslr.matching import match, substitute
from clslr.syntax import (
    parse_model,
    parse_pattern_text,
    render,
    trace_from_json,
    trace_to_json,
)
from clslr.terms import (
    EPS,
    Element,
    Loop,
    Par,
    PlainRule,
    Seq,
    el,
    equiv,
    erase,
    members_of,
    normalize,
    par,
    pattern_vars,
    seq,
)
from clslr.typecheck import (
    Classification,
    TypingError,
    infer_basis,
    pattern_type,
)
from clslr.typed import subject_reduction_check, typed_run

from oracles import (
    ALPHABET,
    budgeted_pattern,
    canonical_results,
    congruence_closure,
    enumerate_raw_terms,
    exhaustive_patterns,
    exhaustive_terms,
    leaf_count,
    node_count,
    one_step,
    oracle_match,
    random_instantiation,
    random_model,
    random_pattern,
)

P = parse_pattern_text

FEATURE_LETTERS = "drseoi"


def announce(capsys, n: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")


# --------------------------------------------------------------------------
# criterion 1: staged evolution of the bundled model


def _loops_named(t, name):
    out = []

    def walk(p):
        if isinstance(p, Loop):
            if any(a == Element(name) for a in p.membrane):
                out.append(p)
            walk(p.content)
        elif isinstance(p, Par):
            for m in p.parts:
                walk(m)

    walk(t)
    return out


def _has(content, name):
    return any(m == Seq((Element(name),)) for m in members_of(content))


def _synth_rule_in(content):
    return any(isinstance(m, PlainRule)
               and Seq((Element("ATP"),)) in members_of(normalize(m.rhs))
               for m in members_of(content))


STAGES = (
    ("mRNA in the nucleus",
     lambda t: any(_has(l.content, "mRNA") for l in _loops_named(t, "nucleus"))),
    ("mRNA at cell level",
     lambda t: any(_has(l.content, "mRNA") for l in _loops_named(t, "cell"))),
    ("protein at cell level",
     lambda t: any(_has(l.content, "protein") for l in _loops_named(t, "cell"))),
    ("protein inside Tom",
     lambda t: any(_has(l.content, "protein") for l in _loops_named(t, "Tom"))),
    ("synthesis rule inside Tim",
     lambda t: any(_synth_rule_in(l.content) for l in _loops_named(t, "Tim"))),
    ("ATP inside Tim",
     lambda t: any(_has(l.content, "ATP") for l in _loops_named(t, "Tim"))),
    ("ATP inside Tom and Tim",
     lambda t: any(_has(l.content, "ATP") for l in _loops_named(t, "Tom"))
     and any(_has(l.content, "ATP") for l in _loops_named(t, "Tim"))),
    ("ATP at cell level",
     lambda t: any(_has(l.content, "ATP") for l in _loops_named(t, "cell"))),
)


@pytest.fixture(scope="module")
def golden():
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    classif = Classification(dict(lam.elements))
    t0 = time.monotonic()
    trace = typed_run(model.term, model.globals, classif, steps=8)
    elapsed = time.monotonic() - t0
    return model, classif, trace, elapsed


def test_criterion_1_staged_evolution(golden, capsys):
    model, classif, trace, elapsed = golden
    states = [normalize(trace.initial)]
    cur = trace.initial
    for rnd in trace.rounds:
        mt = cur
        for lbl in rnd:
            mt = apply_label(mt, lbl)
        cur = normalize(erase(mt))
        states.append(cur)
    first = {}
    holds_late = True
    for rnum, state in enumerate(states):
        for i, (_, pred) in enumerate(STAGES, 1):
            if pred(state):
                first.setdefault(i, rnum)
            elif i in first:
                holds_late = False  # a reached stage must persist
    expected = {i: i for i in range(1, 9)}
    ok = (first == expected and holds_late and len(states) == 9
          and elapsed < 5.0)
    announce(capsys, 1, ok,
             f"8 pipeline stages first hold at rounds "
             f"{[first.get(i) for i in range(1, 9)]}, 8 typed maximal steps "
             f"in {elapsed:.2f}s")
    assert len(states) == 9
    assert first == expected, first
    assert holds_late
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# criterion 2: golden typing values


def test_criterion_2_golden_types(golden, capsys):
    _, classif, _, _ = golden
    r_out = "{ ATP ^ ~x => ATP ^ ~x }"
    r_in = "{ protein @ Tim => { Mit_A => Mit_A | ATP } @ Tim }"
    inner = f"loop(Tim)[ Mit_A | {r_out} ]"
    mito = f"loop(Tom)[ {inner} | {r_in} | {r_out} ]"
    cases = [
        (mito, ()),
        (inner, ()),
        (r_out, (frozenset("o"),)),
        (f"{r_in} | {r_out}", (frozenset("io"),)),
        (r_in, (frozenset("i"),)),
    ]
    got = [pattern_type({}, classif, P(text)) for text, _ in cases]
    ok = all(g == want for g, (_, want) in zip(got, cases))
    announce(capsys, 2, ok,
             f"{sum(g == w for g, (_, w) in zip(got, cases))}/5 exact "
             f"compartment and rule types")
    for g, (text, want) in zip(got, cases):
        assert g == want, (text, g, want)


# --------------------------------------------------------------------------
# criterion 3: subject reduction over random well-typed models


@pytest.fixture(scope="module")
def sweep():
    kept, violations, round_count = [], 0, 0
    t0 = time.monotonic()
    seed = 0
    while len(kept) < 1000 and seed < 5000:
        term, globals_, entries = random_model(seed)
        seed += 1
        classif = Classification(entries)
        try:
            pattern_type({}, classif, term)
        except TypingError:
            continue
        trace = typed_run(term, globals_, classif, steps=2)
        states = [normalize(trace.initial)]
        cur = trace.initial
        for rnd in trace.rounds:
            mt = cur
            for lbl in rnd:
                mt = apply_label(mt, lbl)
            cur = normalize(erase(mt))
            states.append(cur)
        for before, after in zip(states, states[1:]):
            round_count += 1
            if not subject_reduction_check(before, after, classif):
                violations += 1
        kept.append(trace)
    elapsed = time.monotonic() - t0
    return kept, violations, round_count, elapsed


def test_criterion_3_subject_reduction(sweep, capsys):
    kept, violations, round_count, elapsed = sweep
    active = sum(1 for tr in kept if tr.rounds)
    ok = (len(kept) >= 1000 and violations == 0 and active >= 300
          and elapsed < 60.0)
    announce(capsys, 3, ok,
             f"{len(kept)} well-typed models ({active} with live rounds), "
             f"{round_count} typed rounds, {violations} subject-reduction "
             f"violations in {elapsed:.1f}s")
    assert len(kept) >= 1000
    assert active >= 300
    assert violations == 0
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# criterion 4: every trace decomposes


def test_criterion_4_decomposition(sweep, golden, capsys):
    kept, _, _, _ = sweep
    _, _, golden_trace, _ = golden
    bad = sum(1 for tr in kept if not verify_decomposition(tr))
    golden_ok = verify_decomposition(golden_trace)
    ok = bad == 0 and golden_ok
    announce(capsys, 4, ok,
             f"{len(kept) - bad}/{len(kept)} sweep traces and the staged "
             f"run decompose into replayable single applications")
    assert bad == 0
    assert golden_ok


# --------------------------------------------------------------------------
# criterion 5: matcher equals the brute-force oracle


def test_criterion_5_matching_oracle(capsys):
    t0 = time.monotonic()
    rule_lit = PlainRule(seq("a"), seq("b"))
    pats = exhaustive_patterns(("a", "b"), 3, rule=rule_lit)
    terms = exhaustive_terms(("a", "b"), 4, rule=rule_lit)
    mismatches = 0
    pairs = matched = 0
    for p in pats:
        for t in terms:
            pairs += 1
            got = canonical_results(match(p, t))
            if got != oracle_match(p, t):
                mismatches += 1
            elif got:
                matched += 1

    atoms3 = tuple(Element(n) for n in ("a", "b", "c"))
    rng = Random(2)
    done = 0
    while done < 20_000:
        p = budgeted_pattern(rng, atoms3, 4)
        if len(pattern_vars(p, include_rule_bodies=False)) > 3:
            continue
        if done % 2 == 0:
            t = budgeted_pattern(rng, atoms3, 6, vars_ok=False)
        else:
            sigma = random_instantiation(rng, p, atoms=atoms3)
            t = normalize(substitute(p, sigma))
            if leaf_count(t) > 6:
                continue
        pairs += 1
        got = canonical_results(match(p, t))
        if got != oracle_match(p, t):
            mismatches += 1
        elif got:
            matched += 1
        done += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and matched > 10_000 and elapsed < 120.0
    announce(capsys, 5, ok,
             f"{len(pats)}x{len(terms)} exhaustive + {done} randomized "
             f"pattern/term pairs, {matched} with matches, {mismatches} "
             f"oracle discrepancies in {elapsed:.1f}s")
    assert mismatches == 0
    assert matched > 10_000
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# criterion 6: congruence suite


def test_criterion_6_congruence(capsys):
    universe = enumerate_raw_terms(4)
    idem_bad = sum(1 for t in universe
                   if normalize(normalize(t)) != normalize(t))
    step_bad = sum(1 for t in universe for u in one_step(t)
                   if normalize(u) != normalize(t))

    classes = {}
    for t in universe:
        classes.setdefault(normalize(t), []).append(t)
    unreached = 0
    for members in classes.values():
        if len(members) == 1:
            continue
        cap = max(node_count(m) for m in members) + 3
        remaining = set(members[1:])
        seen = {members[0]}
        queue = [members[0]]
        while queue and remaining:
            cur = queue.pop()
            for nxt in one_step(cur):
                if nxt in seen or node_count(nxt) > cap:
                    continue
                seen.add(nxt)
                remaining.discard(nxt)
                queue.append(nxt)
        unreached += len(remaining)

    a, b, m = seq("a"), seq("b"), el("m")
    w = el("w")
    axioms_ok = (
        equiv(par(a, b), par(b, a))
        and equiv(par(par(a, b), seq("c")), par(a, par(b, seq("c"))))
        and equiv(par(a, EPS), a)
        and equiv(Loop((m, w), a), Loop((w, m), a))
        and equiv(Loop((), EPS), EPS)
        and not equiv(seq("a", "b"), seq("b", "a"))
        and not equiv(par(a, a), a)
    )
    ok = idem_bad == 0 and step_bad == 0 and unreached == 0 and axioms_ok
    announce(capsys, 6, ok,
             f"{len(universe)} raw terms in {len(classes)} classes: "
             f"{idem_bad} idempotence, {step_bad} one-step, {unreached} "
             f"closure-reachability failures; axiom spot checks "
             f"{'pass' if axioms_ok else 'fail'}")
    assert idem_bad == 0
    assert step_bad == 0
    assert unreached == 0
    assert axioms_ok


# --------------------------------------------------------------------------
# criterion 7: substitution commutes with typing


def test_criterion_7_substitution_lemma(sweep, capsys):
    rng = Random(3)
    done = with_vars = violations = attempts = 0
    while done < 500 and attempts < 10_000:
        attempts += 1
        p = random_pattern(rng, 2, vars_ok=True, rules_ok=True)
        if not pattern_vars(p, include_rule_bodies=False):
            p = random_pattern(rng, 2, vars_ok=True, rules_ok=True)
        sigma = random_instantiation(rng, p)
        entries = {e.name: frozenset(c for c in FEATURE_LETTERS
                                     if rng.random() < 0.75)
                   for e in ALPHABET}
        classif = Classification(entries)
        closed = normalize(substitute(p, sigma))
        try:
            direct = pattern_type({}, classif, closed)
        except TypingError:
            continue
        try:
            basis = infer_basis(sigma, classif)
            staged = pattern_type(basis, classif, p)
        except TypingError:
            violations += 1
            done += 1
            continue
        if staged != direct:
            violations += 1
        done += 1
        if sigma:
            with_vars += 1
    ok = done >= 500 and violations == 0 and with_vars >= 300
    announce(capsys, 7, ok,
             f"{done} generated (instantiation, pattern, classification) "
             f"triples ({with_vars} with variables), {violations} "
             f"staged-vs-direct typing mismatches")
    assert done >= 500
    assert with_vars >= 300
    assert violations == 0


# --------------------------------------------------------------------------
# criterion 8: round trips


def test_criterion_8_round_trips(sweep, golden, capsys):
    bad_text = 0
    for n in range(1000):
        rng = Random(n)
        p = normalize(random_pattern(rng, depth=2 + n % 2, vars_ok=True,
                                     rules_ok=True))
        if normalize(P(render(p))) != p:
            bad_text += 1

    kept, _, _, _ = sweep
    _, _, golden_trace, _ = golden
    bad_trace = 0
    traces = [golden_trace] + kept[:25]
    for tr in traces:
        back = trace_from_json(trace_to_json(tr))
        if normalize(replay(back)) != normalize(tr.final):
            bad_trace += 1
        elif not verify_decomposition(back):
            bad_trace += 1
    ok = bad_text == 0 and bad_trace == 0
    announce(capsys, 8, ok,
             f"1000 parse(render(p)) round trips ({bad_text} failures), "
             f"{len(traces)} JSON trace replays ({bad_trace} failures)")
    assert bad_text == 0
    assert bad_trace == 0
