"""Span recording for traced benchmark runs.

A span is recorded around each call the benchmark makes into a layer of
``haar_besov``: name, start and end (``perf_counter_ns``), the index of the
enclosing span (-1 at the top) and the id of the item being evaluated (-1
outside items).  Spans live in memory and are written out once, after the
run.  Untraced runs use :class:`NullTracer`, whose spans are one shared
no-op context manager, so the end-to-end numbers carry no recording cost.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracer that records nothing (the untraced runs)."""

    enabled = False
    counting = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: int) -> None:
        pass

    def defer(self, fn) -> None:
        pass


class Tracer:
    """In-memory span recorder; spans nest through ``with tracer.span(...)``."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, item]
        self.counts: dict[str, int] = {}
        self.counting = False  # exact counts are taken on one pass only
        self._deferred: list = []
        self.item = -1
        self._open: list[int] = []
        self._pending = ""

    def span(self, name: str) -> "Tracer":
        self._pending = name
        return self

    def __enter__(self):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([self._pending, time.perf_counter_ns(), 0, parent, self.item])

    def __exit__(self, *exc):
        self.spans[self._open.pop()][2] = time.perf_counter_ns()
        return False

    def count(self, name: str, n: int) -> None:
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    def defer(self, fn) -> None:
        """Queue an input-property count to run after the timed passes."""
        if self.counting:
            self._deferred.append(fn)

    def settle(self) -> None:
        """Run the queued counts (outside every timed pass)."""
        self.counting = True
        for fn in self._deferred:
            fn()
        self._deferred.clear()
        self.counting = False

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (children are strictly nested, so they never overlap).
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            rec["calls"] += 1
            rec["busy_ns"] += end - start
            rec["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "item": item}
                    )
                    + "\n"
                )
