"""In-memory span tracer and self-time arithmetic.

A span is one call into a wrapped function: its name, layer, start and
end (``time.perf_counter``), the span that caused it, the thread it ran
on, and the peak of ``tracemalloc``-traced memory above its starting level.
Spans are kept in memory and written out when the run ends.

Each thread keeps its own stack of open spans. A span opened on a thread
whose stack is empty (a ``ThreadPoolExecutor`` worker) attaches to the
innermost open span of the thread that issued the op, which is blocked
waiting for it.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
import tracemalloc
from typing import Callable, Iterable


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start", "end", "thread",
                 "op", "base", "peak", "info")

    def __init__(self, sid: int, parent: int, name: str, layer: str,
                 start: float, end: float, thread: int = 0, op: int = -1):
        self.sid = sid
        self.parent = parent          # sid of the causing span, -1 for a root
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.thread = thread
        self.op = op
        self.base = 0                 # traced bytes when the span opened
        self.peak = 0                 # highest traced bytes while it was open
        self.info: dict | None = None  # counts read off the call's result

    @property
    def alloc_peak(self) -> int:
        return max(self.peak - self.base, 0)

    def to_dict(self) -> dict:
        return {"sid": self.sid, "parent": self.parent, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "thread": self.thread, "op": self.op,
                "alloc_peak": self.alloc_peak, "info": self.info}


class Tracer:
    """Opens and closes spans; wraps callables so that each call is a span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._root_thread = threading.get_ident()
        self._op = -1

    def begin_op(self, op: int) -> None:
        """Mark the start of op ``op``, issued from the calling thread."""
        self._op = op
        self._root_thread = threading.get_ident()

    def _fold_peak(self) -> None:
        # tracemalloc keeps one process-wide peak: fold it into every open
        # span before resetting it, so nested spans each see their own peak.
        if not tracemalloc.is_tracing():
            return
        _, peak = tracemalloc.get_traced_memory()
        for stack in self._stacks.values():
            for span in stack:
                if peak > span.peak:
                    span.peak = peak
        tracemalloc.reset_peak()

    def open(self, name: str, layer: str) -> Span:
        tid = threading.get_ident()
        with self._lock:
            self._fold_peak()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1].sid
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1].sid if root and tid != self._root_thread else -1
            span = Span(len(self.spans), parent, name, layer, 0.0, 0.0, tid, self._op)
            if tracemalloc.is_tracing():
                span.base = span.peak = tracemalloc.get_traced_memory()[0]
            self.spans.append(span)
            stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self._fold_peak()
            stack = self._stacks[span.thread]
            stack.pop()

    def wrap(self, fn: Callable, name: str, layer: str,
             probe: Callable | None = None) -> Callable:
        """``fn`` with each call recorded as a span.

        ``probe(args, result)`` may return a dict of counts for the span; it
        runs after the span is closed, so it adds nothing to its time.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if probe is not None:
                span.info = probe(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write every span as one JSON line to a gzip file."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its children (clipped to the span, overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [(s.end - s.start) - union_length(children.get(s.sid, ())) for s in spans]


def outermost_time(spans: list[Span], names: set[str]) -> float:
    """Summed duration of the spans named in ``names`` that are not inside
    another such span, so that nested calls are not counted twice."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            total += s.end - s.start
    return total
