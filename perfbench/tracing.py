"""Spans recorded by the benchmark around its calls into the package.

A span holds a name (layer.function), a tag (the engine it serves), its
start and end on the perf_counter clock, the index of its parent span and
the call id it belongs to.  Spans stay in memory and are written out once
the run ends.  With tracing off the benchmark passes `no_span` instead, a
shared do-nothing context manager.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

_NULL = contextlib.nullcontext()


def no_span(name, tag=None, call=None):
    return _NULL


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # [name, tag, start, end, parent, call]
        self._open = []

    @contextlib.contextmanager
    def span(self, name, tag=None, call=None):
        parent = self._open[-1] if self._open else None
        if call is None and parent is not None:
            call = self.spans[parent][5]
        rec = [name, tag, perf_counter(), None, parent, call]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Each span's duration minus the time its children cover."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                out[s[4]] -= s[3] - s[2]
        return out

    def select(self, names, tag=None):
        """Self times of the spans with one of the names (and the tag)."""
        names = {names} if isinstance(names, str) else set(names)
        return [
            t
            for s, t in zip(self.spans, self.self_times())
            if s[0] in names and (tag is None or s[1] == tag)
        ]

    def median_ms(self, names, tag=None) -> float:
        times = self.select(names, tag)
        return 1e3 * statistics.median(times) if times else 0.0

    def total_ms(self, names) -> float:
        return 1e3 * sum(self.select(names))

    def records(self):
        keys = ("name", "tag", "start", "end", "parent", "call")
        return [dict(zip(keys, s)) for s in self.spans]
