"""Benchmark harness for clslr: time cold runs and replays of two workloads.

    python3 perfbench/run.py --workload mito --seed 1 --seconds 25 --trace 0

Runs ops of one workload (``all`` runs each in turn) for ``--seconds``
seconds, one op in flight at a time, each in a fresh worker process.
Every output is
checked against an answer the code under test did not produce.  Prints a
readable summary, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from traced ops with ``--trace 1``.
A fuller record (environment, sample counts, tail percentiles, every
sample) goes to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Longest one worker may take; an op that hangs (an exponential regression
# on ``termvar``, say) is killed and counted as failed.  A run takes at most
# a warm-up op, ``--seconds`` and one traced pair: 60 s + 3 x 30 s < 180 s.
OP_TIMEOUT_S = 30
TAIL_BEYOND = 10

END_TO_END = {"run_s_p50": "s", "run_s_tail": "s", "replay_s_p50": "s",
              "replay_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; quantities read from spans are per op
PER_LAYER = {
    "engine.find_redexes.calls": "count",
    "engine.find_redexes.self_s": "s",
    "engine.find_redexes.labels_built": "count",
    "engine.find_redexes.labels_applied_ratio": "ratio",
    "engine.apply_label.calls": "count",
    "engine.apply_label.self_s": "s",
    "engine.verify_decomposition.self_s": "s",
    "engine.replay.self_s": "s",
    "matching.match_parts.calls": "count",
    "matching.match_parts.self_s": "s",
    "matching.match_parts.yields": "count",
    "matching.match_seq_rotations.self_s": "s",
    "matching.substitute.calls": "count",
    "matching.substitute.self_s": "s",
    "terms.normalize.calls": "count",
    "terms.normalize.self_s": "s",
    "terms.erase.self_s": "s",
    "terms.final_term.nodes": "count",
    "typed.typed_ok.calls": "count",
    "typed.typed_ok.self_s": "s",
    "typecheck.pattern_type.self_s": "s",
    "typecheck.infer_basis.self_s": "s",
    "typecheck.membrane_type.self_s": "s",
    "syntax.parse_model.self_s": "s",
    "syntax.trace_to_json.self_s": "s",
    "syntax.trace_to_json.bytes": "bytes",
    "syntax.trace_from_json.self_s": "s",
    "tracing.run_s_p50.ratio": "ratio",
    "tracing.replay_s_p50.ratio": "ratio",
}


def run_worker(job: dict) -> dict:
    """Run one job in a fresh ``python3 -I`` worker; never raises.

    Returns the worker's result, or ``{"error": ...}`` when it timed out,
    crashed or printed no result.
    """
    cmd = [sys.executable, "-I", str(HERE / "worker.py")]
    spawn_ns = time.perf_counter_ns()
    try:
        proc = subprocess.run([*cmd, str(spawn_ns)], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {OP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return {"error": "worker printed no result"}


def as_op(result: dict) -> dict:
    """The op record of a worker result, or ``{"error": ...}``."""
    if "error" in result:
        return {"error": result["error"]}
    op = dict(result["op"])
    error = op.pop("error")
    return {"error": error} if error else op


def tail(values: list) -> tuple:
    """``(value, percentile)`` at the highest rank with ``TAIL_BEYOND``
    samples beyond it; with too few samples, the median rank."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run ops until ``seconds`` have passed; returns op records and spans.

    Traced, every op runs twice, untraced and then traced on the same
    input, and the op fails unless both trace JSONs are byte-identical.
    """
    make = GENERATORS[workload]
    plain, traced_ops = [], []
    layers: dict = {}
    counts: dict = {}
    warm_up = as_op(run_worker({"op": make(ROOT, seed, -1), "trace": False}))
    if "error" in warm_up:
        # a program that fails or hangs here would fail every op: stop
        plain.append(warm_up)
        traced_ops.append(warm_up)
        seconds = 0
    deadline = time.monotonic() + seconds
    index = 0
    while time.monotonic() < deadline:
        job = {"op": make(ROOT, seed, index), "trace": False}
        op = as_op(run_worker(job))
        plain.append(op)
        if traced and "error" in op:
            traced_ops.append(op)
        elif traced:
            job["trace"] = True
            if index == 0:
                OUT.mkdir(exist_ok=True)
                job["spans_path"] = str(
                    (OUT / f"{workload}-seed{seed}.spans.csv").relative_to(ROOT))
            result = run_worker(job)
            top = as_op(result)
            if "error" not in top and top["trace_sha"] != op["trace_sha"]:
                top = {"error": "traced trace JSON differs from untraced"}
            traced_ops.append(top)
            for name, (spans, self_ns) in result.get("layers", {}).items():
                agg = layers.setdefault(name, [0, 0])
                agg[0] += spans
                agg[1] += self_ns
            for name, n in result.get("counts", {}).items():
                counts[name] = counts.get(name, 0) + n
        index += 1
    judged = traced_ops if traced else plain
    return {"plain": [op for op in plain if "error" not in op],
            "traced": [op for op in traced_ops if "error" not in op],
            "layers": layers, "counts": counts, "attempted": len(judged),
            "failed": sum(1 for op in judged if "error" in op),
            "errors": sorted({op["error"] for op in judged if "error" in op})}


def end_to_end(m: dict) -> tuple:
    """End-to-end metric values and their sample notes."""
    ops = m["plain"]
    values, notes = {}, {}
    for phase in ("run_s", "replay_s"):
        xs = [op[phase] for op in ops] or [float(OP_TIMEOUT_S)]
        values[f"{phase}_p50"] = statistics.median(xs)
        notes[f"{phase}_p50"] = f"n={len(ops)}"
        values[f"{phase}_tail"], pct = tail(xs)
        notes[f"{phase}_tail"] = f"p{pct:.0f}, n={len(ops)}"
    setups = [op["setup_s"] for op in ops] or [float(OP_TIMEOUT_S)]
    values["setup_s"] = statistics.median(setups)
    notes["setup_s"] = f"median, n={len(ops)}"
    values["peak_rss_mb"] = statistics.median(
        [op["peak_rss_mb"] for op in ops] or [0.0])
    notes["peak_rss_mb"] = f"median, n={len(ops)} worker processes"
    return values, notes


def per_layer(m: dict) -> dict:
    """Per-layer metric values from the traced ops (means per op)."""
    ops = m["traced"]
    n = max(len(ops), 1)
    counts = m["counts"]

    def layer(name):
        return m["layers"].get(name, [0, 0])

    values = {}
    for metric, unit in PER_LAYER.items():
        name, quantity = metric.rsplit(".", 1)
        if quantity == "self_s":
            values[metric] = layer(name)[1] / 1e9 / n
        elif unit == "count":
            # generator calls and yields, and tallies, are counted apart
            # from spans; any other call is one span
            values[metric] = counts.get(metric, layer(name)[0]) / n
    built = counts.get("engine.find_redexes.labels_built", 0)
    values["engine.find_redexes.labels_applied_ratio"] = (
        sum(op["labels"] for op in ops) / built if built else 0.0)
    values["terms.final_term.nodes"] = (
        sum(op["final_nodes"] for op in ops) / n)
    values["syntax.trace_to_json.bytes"] = (
        sum(op["trace_bytes"] for op in ops) / n)
    for phase in ("run_s", "replay_s"):
        base = [op[phase] for op in m["plain"]]
        over = [op[phase] for op in ops]
        values[f"tracing.{phase}_p50.ratio"] = (
            statistics.median(over) / statistics.median(base)
            if base and over else 0.0)
    return values


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "python": platform.python_version(),
            "cpu": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit()}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its summary, return its result object."""
    env = environment(workload, seed, seconds, trace)
    m = measure(workload, seed, seconds, bool(trace))
    values, notes = end_to_end(m)
    units = END_TO_END
    print(f"# {' '.join(f'{k}={v}' for k, v in env.items())}")
    for name, value in values.items():
        print(f"{name:<15}{value:>12.6f} {units[name]:<3} {notes[name]}")
    ratio = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    print(f"{'fail_ratio':<15}{ratio:>12.6f} {'1':<3} "
          f"{m['failed']}/{m['attempted']} ops failed")
    for err in m["errors"]:
        print(f"  failure: {err}")
    if trace:
        values = per_layer(m)
        units = PER_LAYER
        for name, value in values.items():
            print(f"{name:<44}{value:>14.6f} {units[name]}")
    result = {"correct": m["failed"] == 0 and m["attempted"] > 0,
              "attempted": max(m["attempted"], 1), "failed": m["failed"],
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "notes": notes,
              "fail_ratio": ratio, "errors": m["errors"],
              "samples": {k: [op[k] for op in m["plain"]]
                          for k in ("setup_s", "run_s", "replay_s")},
              "peak_rss_mb": [op["peak_rss_mb"] for op in m["plain"]]}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*GENERATORS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "clslr" / "__init__.py").is_file():
        print(f"no clslr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(bench(args.workload, args.seed, args.seconds,
                               args.trace)))
        return 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in GENERATORS:
        res = bench(workload, args.seed, args.seconds, args.trace)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{workload}.{k}": v
                                  for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
