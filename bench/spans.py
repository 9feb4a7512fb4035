"""Span tracing for the traced benchmark run.

`Tracer.wrap` replaces a public method at class level with a wrapper that
records one span (name, start, end, parent) per call in flat in-memory
arrays.  `fold` turns the recorded spans into per-name call counts, total
and self time (a span's duration minus its children's), then drops them.
Leaving the `with` block puts every original method back, even on error.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Optional

_ABSENT = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]  # indices of open spans; -1 is the root's parent
        #: Values the probes add up (e.g. free-list length at each alloc).
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[type, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        return self._spanned(name, fn)(*args, **kwargs)

    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        probe: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span called `name` around every call of owner.attr.

        `probe(counters, *args, **kwargs)` runs before each call with the
        method's own arguments (self first)."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self._spanned(name, getattr(owner, attr), probe))

    def _spanned(self, name: str, fn: Callable, probe: Optional[Callable[..., None]] = None):
        sid = self._name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        open_spans, counters, clock = self._open, self.counters, time.perf_counter

        def spanned(*args, **kwargs):
            if probe is not None:
                probe(counters, *args, **kwargs)
            index = len(start)
            span_name.append(sid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                open_spans.pop()

        return spanned

    def restore(self) -> None:
        """Put back every wrapped method, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def fold(self) -> dict[str, list[float]]:
        """Per span name: [calls, total seconds, self seconds].  Drops the
        recorded spans; the counters stay."""
        n = len(self.start)
        if len(self._open) != 1:
            raise RuntimeError("fold called with spans still open")
        start, end, parent, span_name = self.start, self.end, self.parent, self.span_name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list[float]] = {}
        for i in range(n):
            duration = end[i] - start[i]
            row = out.setdefault(self.names[span_name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[i]
        for buf in (self.span_name, self.parent, self.start, self.end):
            del buf[:]
        return out
