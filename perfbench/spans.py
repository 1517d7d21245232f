"""In-memory spans recorded around calls into formaltrip's layers.

A span has a name, start, end, parent span and an optional key (record id
or grammar id). Spans are kept in a list and aggregated when the run ends;
a span's self time is its duration minus the time its child spans cover.
Each thread keeps its own stack of open spans.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, key]
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, key=None):
        stack = self._local.__dict__.setdefault("stack", [])
        row = [name, time.perf_counter(), None, stack[-1] if stack else None, key]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            row[2] = time.perf_counter()

    def self_times(self) -> list[tuple[str, float, float, object]]:
        """(name, duration, self time, key) for every closed span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            (name, end - start, end - start - child_time[i], key)
            for i, (name, start, end, _, key) in enumerate(self.spans)
        ]


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    """Stands in for Tracer in untraced runs at the cost of one call."""

    _span = _NullSpan()

    def span(self, name: str, key=None):
        return self._span


NULL_TRACER = _NullTracer()
