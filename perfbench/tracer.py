"""Span recorder for the benchmark's traced runs.

Spans are recorded only around calls into the system's public
functions; the wrappers are installed from outside by the benchmark (in
its own process and in the endpoint processes it launches), never by
editing the program.  Each span is ``[name, start, end, parent,
request_id, depth]`` with :func:`time.perf_counter` timestamps, which on
Linux read ``CLOCK_MONOTONIC`` and so compare across processes.  Spans
stay in memory and are written out when the process ends.

Synchronous wrappers nest through a per-thread stack.  The async
service facade (``ProtectionService.handle``) is recorded as a root span
that never enters the stack, because several requests interleave on one
event-loop thread; work it hands to the thread pool names its parent
explicitly.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, REQUEST, DEPTH = range(6)


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._append_lock = threading.Lock()

    def stack(self) -> List[int]:
        """Open synchronous spans of the calling thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self,
        name: str,
        parent: Optional[int] = None,
        request_id: Any = None,
        push: bool = True,
    ) -> int:
        stack = self.stack()
        if parent is None and push and stack:
            parent = stack[-1]
        depth = 0
        if parent is not None:
            record = self.spans[parent]
            depth = record[DEPTH] + 1
            if request_id is None:
                request_id = record[REQUEST]
        span = [name, time.perf_counter(), None, parent, request_id, depth]
        with self._append_lock:
            index = len(self.spans)
            self.spans.append(span)
        if push:
            stack.append(index)
        return index

    def close(self, index: int, pop: bool = True) -> None:
        self.spans[index][END] = time.perf_counter()
        if pop:
            stack = self.stack()
            if stack and stack[-1] == index:
                stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value


def wrap(
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    after: Optional[Callable[..., None]] = None,
    parent_of: Optional[Callable[..., Tuple[Optional[int], Any]]] = None,
) -> None:
    """Replace ``owner.attr`` with a spanned call of the original.

    *after* receives ``(span_index, result, args, kwargs)`` once the call
    returned; *parent_of* may name an explicit ``(parent, request_id)``
    for calls that start a thread's stack.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        parent, request_id = (None, None)
        if parent_of is not None and not tracer.stack():
            parent, request_id = parent_of(*args, **kwargs)
        index = tracer.open(name, parent=parent, request_id=request_id)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(index, result, args, kwargs)
        return result

    setattr(owner, attr, traced)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[List[Any]]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its children's.

    *spans* is a whole span list as recorded (parents are indices into it).
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out: Dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        out[span[NAME]] += span[END] - span[START] - child_time.get(i, 0.0)
    return dict(out)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def exclusive_times(
    spans: Sequence[List[Any]], window: Tuple[float, float]
) -> Tuple[Dict[str, float], float]:
    """Partition *window* among spans that may overlap across threads.

    Every instant goes to the deepest span active at that instant (the
    latest-started one on a tie), so the parts sum to the window exactly;
    instants no span covers come back as the second value.  On a single
    thread this equals the usual self time.
    """
    lo, hi = window
    events: List[Tuple[float, int, int]] = []
    for i, span in enumerate(spans):
        start, end = max(span[START], lo), min(span[END], hi)
        if end > start:
            events.append((start, 1, i))
            events.append((end, 0, i))
    events.sort()
    out: Dict[str, float] = defaultdict(float)
    active: Dict[int, Tuple[int, float]] = {}
    covered = 0.0
    prev = lo
    for t, kind, i in events:
        if t > prev and active:
            top = max(active, key=active.__getitem__)
            out[spans[top][NAME]] += t - prev
            covered += t - prev
        prev = max(prev, t)
        if kind:
            active[i] = (spans[i][DEPTH], spans[i][START])
        else:
            active.pop(i, None)
    return dict(out), (hi - lo) - covered
