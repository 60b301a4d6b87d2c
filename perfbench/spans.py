"""In-memory spans around calls into galcd's public functions.

The benchmark wraps each call it makes into a galcd layer in
``Spans.call``; nothing inside galcd is instrumented.  A span holds the
layer call's name, start, end, parent span and operation id, and a
layer's self time is its spans' durations minus the parts their child
spans cover.  ``OFF`` has the same interface and only makes the call,
so the untraced timed phase pays one extra Python call per layer call.
"""

from __future__ import annotations

from time import perf_counter

SPANS_TAG = "PERFBENCH-SPANS "   # prefixes the span list a traced child process writes to stderr


class Spans:
    def __init__(self):
        self.records: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.records))
        self.records.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def add(self, name, start, end):
        """A span measured elsewhere (a child process), under the open span."""
        self.records.append([name, start, end, self._stack[-1] if self._stack else None, self.op])

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.records):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def root_time(self, since: float = float("-inf")) -> float:
        """Total duration of top-level spans starting at or after ``since``.

        Over all spans this equals the sum of all self times.
        """
        return sum(end - start for _, start, end, parent, _ in self.records
                   if parent is None and start >= since)


class _Off:
    op = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, start, end):
        pass

    def count(self, name, k=1):
        pass


OFF = _Off()
