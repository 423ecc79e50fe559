"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

They start real worker processes, a few ops per workload, so they take
about fifteen seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _job(workload, seed, trace):
    return {"op": workloads.GENERATORS[workload](ROOT, seed, 0),
            "trace": trace}


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_traced_run_leaves_trace_bytes_unchanged(workload):
    plain = run.run_worker(_job(workload, 3, False))
    traced = run.run_worker(_job(workload, 3, True))
    assert "error" not in plain and "error" not in traced
    a, b = plain["op"], traced["op"]
    assert a["error"] is None and b["error"] is None
    assert a["trace_sha"] == b["trace_sha"]
    assert a["trace_bytes"] == b["trace_bytes"]
    assert traced["layers"]["engine.find_redexes"][0] > 0
    assert "layers" not in plain


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_inputs_depend_only_on_the_seed(workload):
    make = workloads.GENERATORS[workload]
    assert make(ROOT, 5, 1) == make(ROOT, 5, 1)
    if workload != "mito":
        assert make(ROOT, 5, 1) != make(ROOT, 6, 1)


def test_wrong_closed_form_counts_as_failed():
    job = _job("termvar", 4, False)
    job["op"]["expect"]["final"] += " | a"
    res = run.run_worker(job)
    assert res["op"]["error"] == "final term differs from the closed form"


def test_peak_rss_grows_with_the_op():
    """The peak is the worker's own, not a floor left by the parent."""
    def peak(steps):
        job = _job("mito", 1, False)
        job["op"].update(steps=steps, expect={})
        op = run.run_worker(job)["op"]
        assert op["error"] is None
        return op["peak_rss_mb"]

    assert peak(60) > peak(30) + 1 > peak(1) + 2


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_short_traced_run_passes(workload):
    m = run.measure(workload, 2, 0.1, traced=True)
    assert m["attempted"] >= 1 and m["failed"] == 0, m["errors"]
    assert len(m["plain"]) == len(m["traced"]) == m["attempted"]


def test_hanging_warm_up_fails_and_stops_the_run(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.05)
    m = run.measure("termvar", 4, 30, traced=True)
    assert (m["attempted"], m["failed"]) == (1, 1)
    assert m["errors"][0].startswith("timed out")


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(x) for x in range(30)])
    assert value == 19.0 and round(pct) == 67
    value, pct = run.tail([1.0, 2.0, 3.0])
    assert value == 2.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", "mito",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
