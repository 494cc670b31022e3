"""In-memory spans recorded by the benchmark around calls into eigencount.

Spans are kept in a list while the run lasts and written out once, when it
ends.  A span's parent is the span open when it started, so every span of
one trial or request shares that trial's root span as its ancestor.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Records (name, start_ns, end_ns, parent) spans and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._end(index, start, perf_counter_ns())

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        index = self._begin(name)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index, start, perf_counter_ns())

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0, 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def _end(self, index: int, start: int, end: int) -> None:
        self._open.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def durations_ns(self) -> dict[str, list[int]]:
        """Span durations grouped by name."""
        grouped: dict[str, list[int]] = {}
        for name, start, end, _ in self.spans:
            grouped.setdefault(name, []).append(end - start)
        return grouped

    def write_csv(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,parent,name,start_ns,end_ns\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{index},{parent},{name},{start},{end}\n")


def layer_stats(durations_ns: list[int]) -> dict[str, float]:
    """us_p50, calls and busy_s of one layer from its span durations."""
    return {
        "us_p50": statistics.median(durations_ns) / 1e3,
        "calls": len(durations_ns),
        "busy_s": sum(durations_ns) / 1e9,
    }
