"""Run benchmark ops in this process and print one JSON result line.

Started by ``run.py`` as ``python3 -I perfbench/worker.py SPAWN_NS`` with a
job on stdin; ``SPAWN_NS`` is the parent's ``time.perf_counter_ns()`` just
before the process was started (on Linux both processes read the same
``CLOCK_MONOTONIC``), so that set-up covers interpreter start and
``import clslr``.  A job holds one op and whether to trace it.

The op goes through three phases, timed separately:

- set-up: start the interpreter, import ``clslr``, parse the model and
  build its classification;
- run: ``run`` or ``typed_run``, then ``trace_to_json``;
- replay: ``trace_from_json``, ``verify_decomposition``, ``replay`` and
  ``render``, as ``clslr replay`` does.

The answer check runs after the phases and after peak memory is read.
"""

import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _phase_fns(clslr, tracer):
    """The entry points an op calls, wrapped in spans when tracing."""
    fns = {
        "syntax.parse_model": clslr.syntax.parse_model,
        "engine.run": clslr.engine.run,
        "typed.typed_run": clslr.typed.typed_run,
        "syntax.trace_to_json": clslr.syntax.trace_to_json,
        "syntax.trace_from_json": clslr.syntax.trace_from_json,
        "engine.verify_decomposition": clslr.engine.verify_decomposition,
        "engine.replay": clslr.engine.replay,
        "syntax.render": clslr.syntax.render,
    }
    if tracer is not None:
        fns = {name: tracer.wrap(name, fn) for name, fn in fns.items()}
    return fns


def _states(trace, rounds: int) -> list:
    """The term after each of the first ``rounds`` rounds, re-applying the
    recorded labels."""
    from clslr.engine import apply_label
    from clslr.terms import erase, normalize

    cur = normalize(trace.initial)
    states = [cur]
    for rnd in trace.rounds[:rounds]:
        mt = cur
        for lbl in rnd:
            mt = apply_label(mt, lbl)
        cur = normalize(erase(mt))
        states.append(cur)
    return states


def _check(op, trace, doc, replay_ok, replayed) -> str | None:
    """None when the output is right, otherwise what is wrong with it."""
    import checks

    if not replay_ok:
        return "trace does not replay under verify_decomposition"
    if replayed != doc["final"]:
        return "replayed final term differs from the recorded one"
    expect = op["expect"]
    if "final" in expect and doc["final"] != expect["final"]:
        return "final term differs from the closed form"
    if "labels" in expect and len(doc["steps"]) != expect["labels"]:
        return (f"{len(doc['steps'])} applications, closed form has "
                f"{expect['labels']}")
    if "stages" in expect and not checks.stages_in_order(
            _states(trace, len(checks.STAGES))):
        return "criterion-1 stages do not first hold at rounds 1-8"
    return None


def _one_op(fns, op):
    """Run the three phases of one op; returns its record and check inputs.

    The record's set-up time leaves out interpreter start and import, which
    the caller adds."""
    import checks
    from clslr.syntax import merge_elements

    t0 = time.perf_counter_ns()
    model = fns["syntax.parse_model"](op["model"])
    if op["lambda"]:
        extra = fns["syntax.parse_model"](op["lambda"])
        model.elements = merge_elements(model.elements, extra.elements)
    classif = model.classification()
    t1 = time.perf_counter_ns()

    kwargs = dict(steps=op["steps"], strategy=op["strategy"],
                  seed=op["seed"], k=op["k"])
    if op["typed"]:
        trace = fns["typed.typed_run"](model.term, model.globals, classif,
                                       **kwargs)
    else:
        trace = fns["engine.run"](model.term, model.globals, **kwargs)
    text = fns["syntax.trace_to_json"](trace)
    t2 = time.perf_counter_ns()

    loaded = fns["syntax.trace_from_json"](text)
    replay_ok = fns["engine.verify_decomposition"](loaded)
    replayed = fns["syntax.render"](fns["engine.replay"](loaded))
    t3 = time.perf_counter_ns()

    rec = {
        "setup_s": (t1 - t0) / 1e9,
        "run_s": (t2 - t1) / 1e9,
        "replay_s": (t3 - t2) / 1e9,
        "trace_bytes": len(text.encode()),
        "trace_sha": hashlib.sha256(text.encode()).hexdigest(),
        "labels": len(trace.labels),
        "final_nodes": checks.node_count(trace.final),
    }
    return rec, (trace, json.loads(text), replay_ok, replayed)


def peak_rss_mb() -> float:
    """This process's peak resident memory, in MiB.

    ``VmHWM`` is the high-water mark of the process's own memory map, which
    ``exec`` starts afresh.  ``ru_maxrss`` is not used: on Linux it keeps
    the peak of the map the process had before ``exec``, here the parent's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawn_ns = int(sys.argv[1])
    job = json.load(sys.stdin)
    import clslr

    if not Path(clslr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"clslr imported from {clslr.__file__}, not from the checkout",
              file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    fns = _phase_fns(clslr, tracer)
    boot_s = (time.perf_counter_ns() - spawn_ns) / 1e9
    op = job["op"]
    if tracer is not None:
        tracer.install(clslr)
    try:
        rec, check_args = _one_op(fns, op)
    except Exception as err:  # the op failed; report it
        rec, check_args = {"error": f"{type(err).__name__}: {err}"}, None
    finally:
        if tracer is not None:
            tracer.uninstall()
    if check_args is not None:
        rec["setup_s"] += boot_s
        rec["peak_rss_mb"] = peak_rss_mb()
        try:
            rec["error"] = _check(op, *check_args)
        except Exception as err:
            rec["error"] = f"check raised {type(err).__name__}: {err}"
    out = {"op": rec}
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["counts"] = dict(tracer.counts)
        if job.get("spans_path"):
            tracer.write(ROOT / job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
