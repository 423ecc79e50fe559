"""Find the deepest membrane nesting each CLI command accepts.

    python3 tools/depth.py

The model is ``global a => b ;`` beside ``n`` nested membranes, level ``k``
holding the next level and ``bk``::

    loop(m)[loop(m)[... loop(m)[a | b0] ... | bn-2] | bn-1]

For each command it bisects the largest ``n`` in ``[1, HIGH)`` that
exits 0:

- check: ``clslr check``;
- typecheck: ``clslr typecheck --permissive-lambda``;
- run: ``clslr run --format json`` (one maximal step);
- replay: ``clslr replay`` of that ``run``'s JSON output, which must exist,
  so replay's bound is never above run's.

Each probe is one fresh ``python3 -I`` process that imports ``clslr`` from
this checkout's ``src`` and calls its ``main``, as the console script does,
under the interpreter's default recursion limit; probes run one at a time.
A command that still exits 0 at ``HIGH`` (1024) is reported as ``>= 1024``.
Uses only the standard library.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BOOT = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "from clslr.cli import main; sys.exit(main())")
COMMANDS = ("check", "typecheck", "run", "replay")
HIGH = 1024  # the depth the bisection starts below


def model_text(n: int) -> str:
    """``global a => b`` beside ``n`` nested membranes."""
    term = "a"
    for k in range(n):
        term = f"loop(m)[{term} | b{k}]"
    return f"global a => b ;\n{term}\n"


def clslr(*args: str) -> int:
    """The exit status of one fresh ``clslr`` process."""
    return subprocess.run([sys.executable, "-I", "-c", BOOT, *args],
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def accepts(command: str, n: int, tmp: Path) -> bool:
    """Whether ``command`` exits 0 on the model nested ``n`` deep."""
    model = tmp / "deep.clslr"
    model.write_text(model_text(n))
    if command == "check":
        return clslr("check", str(model)) == 0
    if command == "typecheck":
        return clslr("typecheck", "--permissive-lambda", str(model)) == 0
    trace = tmp / "deep.trace.json"
    trace.unlink(missing_ok=True)
    ran = clslr("run", "--format", "json", "--out", str(trace),
                str(model)) == 0
    if command == "run":
        return ran
    return ran and clslr("replay", str(trace)) == 0


def deepest(command: str, tmp: Path) -> int:
    """The largest ``n < HIGH`` that ``command`` accepts, or ``HIGH`` when
    it accepts ``HIGH`` itself; 0 when it rejects ``n = 1``."""
    if accepts(command, HIGH, tmp):
        return HIGH
    lo, hi = 0, HIGH  # accepted at lo (vacuously at 0), rejected at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(command, mid, tmp):
            lo = mid
        else:
            hi = mid
    return lo


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            n = deepest(command, Path(tmp))
            print(f"{command}: {'>= ' if n == HIGH else ''}{n}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
