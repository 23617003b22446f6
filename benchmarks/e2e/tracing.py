"""Span recording from outside the program under test.

The benchmark never edits ``src/``: a :class:`Tracer` shadow-wraps public
callables on the live objects the server entry script built (an instance
attribute hides the class's method), so each call into a layer records one
span ``[name, start, end, parent, op_id]``.  Spans stay in per-thread
lists in memory and are merged and written out once, at exit.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from typing import Any, Callable, List


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[List[list]] = []
        self._lock = threading.Lock()
        self._ops = itertools.count()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: List[list] = []
            state = self._local.state = (spans, [])
            with self._lock:
                self._threads.append(spans)
        return state

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call; nested calls become children."""
        clock = time.perf_counter
        state_of = self._state
        ops = self._ops

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = state_of()
            parent = stack[-1] if stack else -1
            op_id = spans[parent][4] if parent >= 0 else next(ops)
            span = [name, clock(), 0.0, parent, op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def shadow(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced form, on the object."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def spans(self) -> List[list]:
        """Every finished span, parents re-indexed into the merged list."""
        merged: List[list] = []
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            offset = len(merged)
            for name, start, end, parent, op_id in list(spans):
                # a span still open when the dump is taken keeps its place
                # (children index it) and counts as empty
                merged.append(
                    [name, start, end or start,
                     parent + offset if parent >= 0 else -1, op_id]
                )
        return merged


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on this machine now."""
    probe = Tracer()

    def nothing() -> None:
        return None

    wrapped = probe.wrap("probe", nothing)
    clock = time.perf_counter
    # the collector walking the program's heap is not the span's cost
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        for _ in range(calls):
            nothing()
        bare = clock() - started
        started = clock()
        for _ in range(calls):
            wrapped()
        return max(0.0, (clock() - started - bare) / calls)
    finally:
        if collecting:
            gc.enable()
