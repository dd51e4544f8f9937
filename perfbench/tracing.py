"""Spans and counters recorded by the benchmark around calls into localscores.

A span is one call into a layer's public function: its name
(`<layer>.<function>`), start, end, parent span and operation id. Spans and
counts stay in memory until the run writes them out at its end. The untraced
runs use `NullTracer`, which records nothing.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import defaultdict

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    enabled = False
    op = None

    def span(self, name):
        return _NULL_SPAN

    def count(self, name, value=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[tuple[str, str | None], float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name, start, end, parent):
        """Record a span timed outside the tracer, under the span `parent`."""
        rec = {"id": len(self.spans), "name": name, "start": start, "end": end,
               "parent": parent, "op": self.op}
        self.spans.append(rec)

    def count(self, name, value=1):
        self.counts[(name, self.op)] += value

    # -- aggregation ------------------------------------------------------

    def named(self, name, ops=None):
        return [s for s in self.spans if s["name"] == name and (ops is None or s["op"] in ops)]

    def busy(self, name, ops=None) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name, ops))

    def calls(self, name, ops=None) -> int:
        return len(self.named(name, ops))

    def self_time(self, name, ops=None) -> float:
        """Span durations minus the part of each covered by its children."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        total = 0.0
        for s in self.named(name, ops):
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children[s["id"]]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            total += (s["end"] - s["start"]) - covered
        return total

    def total(self, name, ops=None) -> float:
        return sum(v for (n, op), v in self.counts.items() if n == name and (ops is None or op in ops))


class LineClock(io.TextIOBase):
    """Text sink that keeps every complete line with the time it ended."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)
