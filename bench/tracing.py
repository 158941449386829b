"""In-memory spans recorded by the benchmark around calls into jkl.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and
the index of the enclosing span (-1 at top level).  ``max_depth`` limits
which spans are kept: the untraced run keeps only the top-level calls it
needs for its end-to-end rates, the traced run keeps every level.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.rec[1] = perf_counter()

    def __exit__(self, *exc):
        self.rec[2] = perf_counter()
        self.tracer._stack.pop()
        if self.rec[3] < 0 and self.tracer.on_top_exit is not None:
            self.tracer.on_top_exit()
        return False


class Tracer:
    def __init__(self, max_depth: int | None = None, on_top_exit=None):
        self.max_depth = max_depth
        self.on_top_exit = on_top_exit  # called after each top-level span ends
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        if self.max_depth is not None and len(self._stack) >= self.max_depth:
            return _NULL
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return _Span(self, rec)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Per-name sum of span duration minus the time its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, own):
            out[s[0]] += t
        return dict(out)
