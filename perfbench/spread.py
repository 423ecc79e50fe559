"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload mito ...] [--trace 0]
                                [--out perfbench/out/spread.json]

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of
that median, next to the metric's bound from ``BENCHMARK.json``; a spread
of a third of the bound or more is flagged.  ``--trace 1`` reports the
per-layer metrics the same way, without bounds.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--workload", nargs="*", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    report: dict = {}
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            res = one_run(bench, workload, seed, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  file=sys.stderr)
        first = HERE / "out" / (f"{workload}-seed{seeds(args.seeds)[0]}"
                                f"-trace{args.trace}.json")
        report[workload] = {
            "env": json.loads(first.read_text())["env"],
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                            for r in runs])
                        for m in metrics}}
        print(f"== {workload}: {len(runs)} runs, all correct: "
              f"{report[workload]['correct']}")
        for m in metrics:
            s = report[workload]["metrics"][m["name"]]
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = f"bound {bound:.2f}" + (
                    "  WIDE" if s["spread"] >= bound / 3 else "")
            print(f"  {m['name']:<44}{s['median']:>14.6f} {m['unit']:<6}"
                  f"spread {s['spread']:7.4f}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
