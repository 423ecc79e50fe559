"""Count the bytecode instructions each phase of a golden run executes.

    PYTHONPATH=src python3 tools/opcount.py [--steps 30] [--top 15]

Runs the bundled mitochondria model, typed and maximal, through the phases
of a benchmark op and counts the ``opcode`` events that ``sys.settrace``
delivers in each, attributed to the function whose frame executed them:

- run: ``typed_run`` (``trace_to_json`` is not counted);
- read: ``trace_from_json`` of that text;
- verify: ``verify_decomposition`` of the trace read;
- replay: ``replay`` of the trace read.

Native code (``re``, ``json``'s C scanner, builtins) executes no bytecode
and is not counted.  The counts repeat exactly from run to run on one
interpreter version, so they show where work moved between two trees on a
host whose wall clock does not.  Uses only the standard library.
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


def golden_phases(steps: int):
    """``(phase, counts)`` for the four phases of one golden op, in order.

    The phases run one after the other in this process and the trace stays
    alive throughout, as in a benchmark worker."""
    from clslr import bundled_model, syntax
    from clslr.engine import replay, verify_decomposition
    from clslr.typed import typed_run

    model = syntax.parse_model(
        Path(bundled_model("mitochondria.clslr")).read_text())
    lam = syntax.parse_model(
        Path(bundled_model("mitochondria.lambda.clslr")).read_text())
    model.elements = syntax.merge_elements(model.elements, lam.elements)
    classif = model.classification()

    trace, run_counts = count_opcodes(
        lambda: typed_run(model.term, model.globals, classif, steps=steps))
    text = syntax.trace_to_json(trace)
    loaded, read_counts = count_opcodes(lambda: syntax.trace_from_json(text))
    ok, verify_counts = count_opcodes(lambda: verify_decomposition(loaded))
    final, replay_counts = count_opcodes(lambda: replay(loaded))
    if not ok or final != trace.final or loaded != trace:
        raise SystemExit("the golden trace does not read back and replay")
    return [("run", run_counts), ("read", read_counts),
            ("verify", verify_counts), ("replay", replay_counts)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--steps", type=int, default=30,
                    help="parallel steps of the golden run (default 30)")
    ap.add_argument("--top", type=int, default=15,
                    help="functions listed per phase (default 15)")
    args = ap.parse_args(argv)
    for phase, counts in golden_phases(args.steps):
        total = sum(counts.values())
        print(f"{phase}: {total} opcodes")
        for name, n in counts.most_common(args.top):
            print(f"  {n:>9}  {100 * n / total:5.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
