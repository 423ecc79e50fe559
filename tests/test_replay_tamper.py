"""Replay verdicts on tampered traces, pinned by digest.

Each trace is the golden model's typed 30-step run or a ``random_model``
run.  For each of its first six labels the sweep makes one tampered copy
per tamper class: every other schema, a wrong residue, the path cut by one
step, the label dropped, the label doubled, and each ``$X`` image wrapped
in ``Frozen``.  ``verify_decomposition`` must return a bool for every copy,
and its verdicts, with the term or error that a lax ``replay`` of each copy
reaches, must hash to the pinned digest: a change to how labels are located
or checked that flips any verdict shows here.
"""

import hashlib
from pathlib import Path

from clslr import bundled_model
from clslr.engine import (
    SCHEMAS,
    ReductionLabel,
    StaleLabelError,
    Trace,
    replay,
    run,
    verify_decomposition,
)
from clslr.matching import MatchCapError, UnboundVariableError
from clslr.syntax import (
    merge_elements,
    parse_global_text,
    parse_model,
    parse_pattern_text,
)
from clslr.terms import Frozen, TermVar, normalize, par
from clslr.typecheck import Classification
from clslr.typed import typed_run

from oracles import random_model

P = parse_pattern_text
G = parse_global_text

# sha256 of the verdict lines of every tampered trace below, the 4 752 of
# the sweep and then the hand-made ones
TAMPER_VERDICTS_SHA = \
    "7209b31cab2e493915d4c33ed4033d59fc93ef7892dfc67d70fbd3f17fef48e0"


def golden_trace():
    model = parse_model(Path(bundled_model("mitochondria.clslr")).read_text())
    lam = parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    model.elements = merge_elements(model.elements, lam.elements)
    return typed_run(model.term, model.globals, model.classification(),
                     steps=30)


def sweep_traces():
    yield golden_trace()
    for seed in range(50):
        term, rules, entries = random_model(seed)
        classif = Classification(entries)
        for strategy, k in (("single", None), ("maximal", None),
                            ("random-k", 2)):
            kw = dict(steps=3, strategy=strategy, seed=seed, k=k)
            yield run(term, rules, **kw)
            yield typed_run(term, rules, classif, **kw)


def label_tampers(lbl: ReductionLabel):
    """The tampered stand-ins for one label: a tuple of labels each."""
    for schema in SCHEMAS:
        if schema != lbl.schema:
            yield (lbl._replace(schema=schema),)
    yield (lbl._replace(residue=normalize(par(lbl.residue, P("w")))),)
    if lbl.path:
        yield (lbl._replace(path=lbl.path[:-1]),)
    yield ()
    yield (lbl, lbl)
    for i, (var, image) in enumerate(lbl.binding):
        if isinstance(var, TermVar):
            binding = (*lbl.binding[:i], (var, Frozen(image)),
                       *lbl.binding[i + 1:])
            yield (lbl._replace(binding=binding),)


def tampered(trace: Trace):
    """Every tampered copy of ``trace`` made from its first six labels."""
    sites = [(r, i) for r, rnd in enumerate(trace.rounds)
             for i in range(len(rnd))][:6]
    for r, i in sites:
        rnd = trace.rounds[r]
        for stand_in in label_tampers(rnd[i]):
            rounds = (*trace.rounds[:r], (*rnd[:i], *stand_in, *rnd[i + 1:]),
                      *trace.rounds[r + 1:])
            yield trace._replace(rounds=rounds)


def hand_made():
    """Labels whose path ends at a parallel member, not at a compartment.

    Members sort as ``a``, ``{ a => b }``, ``{ c ^ w => c ^ w }``.  Only a
    global rewrite may take a member as its site; the others are stale.
    """
    t = normalize(P("a | { a => b } | { c ^ w => c ^ w }"))
    final = normalize(P("b | { a => b } | { c ^ w => c ^ w }"))
    a_to_b, out = t.parts[1], t.parts[2]
    for lbl in (ReductionLabel("LR", a_to_b, (2,), (), P("a")),
                ReductionLabel("LR", a_to_b, (1,), (), P("eps")),
                ReductionLabel("LR-Out", out, (2,), (), P("c")),
                ReductionLabel("LR-In", P("{ a @ w => a @ w }"), (0,), (),
                               P("eps")),
                ReductionLabel("GRT", G("a => b"), (0,), (), P("eps"))):
        yield Trace(t, ((lbl,),), final)


def verdict(trace: Trace) -> str:
    """``verify_decomposition``'s verdict and what a lax replay reaches:
    the final term's text, or the name of the error that stopped it."""
    ok = verify_decomposition(trace)
    assert type(ok) is bool
    try:
        reached = str(replay(trace))
    except (StaleLabelError, UnboundVariableError, MatchCapError) as err:
        reached = type(err).__name__
    return f"{int(ok)} {reached}\n"


def test_tampered_trace_verdicts_are_pinned():
    verdicts = [verdict(bad) for trace in sweep_traces()
                for bad in tampered(trace)]
    made = [verdict(trace) for trace in hand_made()]
    assert [v[0] for v in made] == ["0", "0", "0", "0", "1"]
    text = "".join(verdicts + made)
    assert (len(verdicts), hashlib.sha256(text.encode()).hexdigest()) == \
        (4752, TAMPER_VERDICTS_SHA)
