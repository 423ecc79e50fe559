"""Find the lines of ``src/clslr`` that no tier-1 test reaches.

    python3 tools/cover.py

Runs ``tests/`` in this process under a ``sys.settrace`` line collector
and prints, per module, the executable lines that never ran, then their
total.  The executable lines are those the module's code objects name in
``co_lines``.  The collector is installed before ``clslr`` is imported,
so module-level lines count, and again before each test, because
hypothesis replaces it.  Lines run only in a child process, as the CLI
tests' subprocesses run them, are not seen.

Tracing slows every line down, so a test that bounds its wall-clock time
can fail here though it passes without the collector (on a 2-core Xeon,
``test_criterion_5_matching_oracle`` takes about 145 s against its 120 s
bound).  The tool names the tests that failed and still exits 0, since
the lines they reach are counted all the same.  Uses only the standard
library and pytest.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clslr"


def executable_lines(path: Path) -> set:
    """The line numbers that the code objects compiled from ``path`` name."""
    lines: set = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's first instruction is at line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Collector:
    """A pytest plugin that keeps the tracer installed and records which
    tests failed."""

    def __init__(self, files: set):
        self.files = files
        self.names: dict = {}  # co_filename -> its file in ``files``, or None
        self.reached: dict = defaultdict(set)
        self.failed: list = []

    def trace(self, frame, event, arg):
        # a frame of another file gets no local tracer
        name = frame.f_code.co_filename
        if name not in self.names:
            path = str(Path(name).resolve())
            self.names[name] = path if path in self.files else None
        return self.line if self.names[name] else None

    def line(self, frame, event, arg):
        if event == "line":
            self.reached[self.names[frame.f_code.co_filename]].add(
                frame.f_lineno)
        return self.line

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)


def main() -> int:
    sources = sorted(PACKAGE.glob("*.py"))
    files = {str(p) for p in sources}
    collector = Collector(files)
    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(collector.trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                    plugins=[collector])
    finally:
        sys.settrace(None)
    total = 0
    print()
    for path in sources:
        missed = sorted(executable_lines(path) - collector.reached[str(path)])
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed))}")
    print(f"unreached: {total} lines")
    if collector.failed:
        print("failed under tracing:", *collector.failed, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
