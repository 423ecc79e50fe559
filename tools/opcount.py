"""Count the bytecode instructions each phase of a benchmark op executes.

    PYTHONPATH=src python3 tools/opcount.py [--workload mito] [--steps 30]
        [--seed 1] [--top 15]

Builds op 0 of a workload with the benchmark's own generator
(``perfbench/workloads.py``) and runs it through the phases of a benchmark
op, counting the ``opcode`` events that ``sys.settrace`` delivers in each,
attributed to the function whose frame executed them:

- setup: ``parse_model`` of the model and of its lambda file,
  ``merge_elements`` and ``classification()``, as a benchmark worker's
  set-up runs them (interpreter start and ``import clslr`` are not
  counted);
- run: ``typed_run`` or ``run``, as the op says (``trace_to_json`` is not
  counted);
- read: ``trace_from_json`` of that text;
- verify: ``verify_decomposition`` of the trace read;
- replay: ``replay`` of the trace read.

``mito`` is the bundled mitochondria model, typed and maximal, for
``--steps`` steps; ``termvar`` is ten distinct members, a doubled one and
``{ $X | $X => $X | $X }``, untyped, for the workload's own 2 steps, its
members drawn from ``--seed``.  Native code (``re``, ``json``'s C scanner,
builtins) executes no bytecode and is not counted.  The counts repeat
exactly from run to run on one interpreter version, so they show where work
moved between two trees on a host whose wall clock does not.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path


def count_opcodes(fn):
    """``(result, counts)``: ``fn()`` and its opcode events per function
    (``file:qualname``), those of ``fn``'s own frame included."""
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    named: Counter = Counter()
    for code, n in counts.items():
        name = getattr(code, "co_qualname", code.co_name)  # 3.11 on
        named[f"{Path(code.co_filename).name}:{name}"] += n
    return result, named


ROOT = Path(__file__).resolve().parent.parent


def op_phases(workload: str, seed: int, steps: int):
    """``(phase, counts)`` for the five phases of op 0 of ``workload``, in
    order; a ``mito`` op runs ``steps`` steps.

    The phases run one after the other in this process and the trace stays
    alive throughout, as in a benchmark worker."""
    from clslr import syntax
    from clslr.engine import replay, run, verify_decomposition
    from clslr.typed import typed_run

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import GENERATORS

    op = GENERATORS[workload](ROOT, seed, 0)
    if workload == "mito":
        op["steps"] = steps

    def setup():
        model = syntax.parse_model(op["model"])
        if op["lambda"]:
            lam = syntax.parse_model(op["lambda"])
            model.elements = syntax.merge_elements(model.elements,
                                                   lam.elements)
        return model, model.classification()

    (model, classif), setup_counts = count_opcodes(setup)
    options = dict(steps=op["steps"], strategy=op["strategy"], seed=op["seed"],
                   k=op["k"])
    if op["typed"]:
        go = lambda: typed_run(model.term, model.globals, classif, **options)
    else:
        go = lambda: run(model.term, model.globals, **options)

    trace, run_counts = count_opcodes(go)
    text = syntax.trace_to_json(trace)
    loaded, read_counts = count_opcodes(lambda: syntax.trace_from_json(text))
    ok, verify_counts = count_opcodes(lambda: verify_decomposition(loaded))
    final, replay_counts = count_opcodes(lambda: replay(loaded))
    if not ok or final != trace.final or loaded != trace:
        raise SystemExit(f"the {workload} trace does not read back and replay")
    return [("setup", setup_counts), ("run", run_counts), ("read", read_counts),
            ("verify", verify_counts), ("replay", replay_counts)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("mito", "termvar"), default="mito",
                    help="the benchmark workload to count (default mito)")
    ap.add_argument("--steps", type=int, default=30,
                    help="parallel steps of a mito op (default 30)")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of a termvar op (default 1)")
    ap.add_argument("--top", type=int, default=15,
                    help="functions listed per phase (default 15)")
    args = ap.parse_args(argv)
    for phase, counts in op_phases(args.workload, args.seed, args.steps):
        total = sum(counts.values())
        print(f"{phase}: {total} opcodes")
        for name, n in counts.most_common(args.top):
            print(f"  {n:>9}  {100 * n / total:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
