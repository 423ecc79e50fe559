"""Outside-in span tracing of the clslr layers, for the traced benchmark run.

:meth:`Tracer.install` replaces module attributes of ``clslr.engine``,
``clslr.matching`` and ``clslr.typed`` with timing wrappers, so every call
that crosses from one module into another records a span.  A span has a
name, a start, an end and a parent; spans stay in memory in flat arrays
until :meth:`Tracer.layers` folds them into calls and self time, and
:meth:`Tracer.write` writes them out.

Generator functions (``match_parts``, ``match_seq_rotations``) are timed
per ``next()``: the wrapper is itself a generator that pulls one item at a
time, so the engine still consumes matches lazily and spends its match
budget exactly as it does untraced.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter_ns

# (module whose attribute is replaced, attribute, span name)
BOUNDARIES = (
    ("engine", "find_redexes", "engine.find_redexes"),
    ("engine", "apply_label", "engine.apply_label"),
    ("engine", "match_parts", "matching.match_parts"),
    ("engine", "match_seq_rotations", "matching.match_seq_rotations"),
    ("engine", "substitute", "matching.substitute"),
    ("engine", "normalize", "terms.normalize"),
    ("engine", "erase", "terms.erase"),
    ("matching", "normalize", "terms.normalize"),
    ("typed", "normalize", "terms.normalize"),
    ("typed", "typed_ok", "typed.typed_ok"),
    ("typed", "pattern_type", "typecheck.pattern_type"),
    ("typed", "infer_basis", "typecheck.infer_basis"),
    ("typed", "membrane_type", "typecheck.membrane_type"),
)
GENERATORS = {"match_parts", "match_seq_rotations"}
# counters read off a boundary's return value: span name -> (counter, tally)
TALLIES = {
    "engine.find_redexes": ("engine.find_redexes.labels_built", len),
}


class Tracer:
    """Spans kept in memory as parallel arrays, plus event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as one span called ``name``."""
        nid = self._id(name)
        counter, tally = TALLIES.get(name, (None, None))
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if tally is not None:
                counts[counter] += tally(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """``fn`` with each ``next()`` recorded as one span called ``name``."""
        nid = self._id(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[name + ".yields"] += 1
                    yield item
            finally:
                gen.close()

        return traced

    def install(self, clslr) -> None:
        """Replace the boundary attributes of the imported ``clslr`` package."""
        for module_name, attr, name in BOUNDARIES:
            module = getattr(clslr, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapper = (self.wrap_generator if attr in GENERATORS
                       else self.wrap)(name, fn)
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def layers(self) -> dict:
        """``{name: [spans, self_ns]}``; self time excludes child spans."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: [0, 0] for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg[0] += 1
            agg[1] += self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as ``name,start_ns,end_ns,parent`` CSV lines."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")
