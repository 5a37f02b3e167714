"""Span recorder that instruments a program from outside.

:meth:`Tracer.wrap` replaces a function attribute (a method on a class,
or a name a module imported) with a wrapper that records one
:class:`Span` per call: wall time (``perf_counter``), the calling
thread's CPU time (``thread_time``, so pool and interpreter-lock waiting
shows as wall minus CPU, not as busy time), the thread, and the parent
span on the same thread.  Spans stay in memory until the caller reads
them.  Wrappers cost one attribute check while the tracer is inactive.

The analysis half works on plain spans: self time (a span minus its
direct children on its thread) and coverage (how much of each root
interval some non-root span covers, across threads).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    name: str
    sid: int
    parent: int | None
    thread: int
    t0: float
    t1: float = 0.0
    cpu0: float = 0.0
    cpu1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0


#: ``before(args, kwargs) -> attrs`` and ``after(result, args, kwargs, attrs)``
Before = Callable[[tuple, dict], dict]
After = Callable[[Any, tuple, dict, dict], None]


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        before: Before | None = None,
        after: After | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.  ``name`` may
        be a function of the call's positional arguments (for example to
        name a detector span after ``args[0].name``)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr}: static/class methods are not supported")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before is not None else {}
            span = tracer._open(name(args) if callable(name) else name, attrs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                tracer._close(span)
                raise
            tracer._close(span)
            if after is not None:
                after(result, args, kwargs, span.attrs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        span = Span(
            name=name,
            sid=next(self._ids),
            parent=stack[-1].sid if stack else None,
            thread=threading.get_ident(),
            t0=time.perf_counter(),
            cpu0=time.thread_time(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.cpu1 = time.thread_time()
        span.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


# -- analysis ------------------------------------------------------------------


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint intervals covering the same points."""
    merged: list[list[float]] = []
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    return sum(hi - lo for lo, hi in merge_intervals(intervals))


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """``sid -> (self wall, self cpu)``: each span minus its direct
    children.  Children recorded on the span's own thread nest strictly
    inside it, so subtracting their totals is exact."""
    child_wall: dict[int, float] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] = child_wall.get(s.parent, 0.0) + s.wall
            child_cpu[s.parent] = child_cpu.get(s.parent, 0.0) + s.cpu
    return {
        s.sid: (s.wall - child_wall.get(s.sid, 0.0), s.cpu - child_cpu.get(s.sid, 0.0))
        for s in spans
    }


def coverage(spans: list[Span], root: str) -> tuple[float, float]:
    """``(root wall, covered wall)`` summed over every span named ``root``.

    A root is covered where some other span overlaps it: a descendant on
    the root's own thread, or any span on a worker thread (one that
    never holds a root).  Overlaps across threads count once."""
    roots = [s for s in spans if s.name == root]
    root_threads = {s.thread for s in roots}
    own: dict[int, list[Span]] = {}
    worker_intervals = []
    for s in spans:
        if s.name == root:
            continue
        if s.thread in root_threads:
            own.setdefault(s.thread, []).append(s)
        else:
            worker_intervals.append((s.t0, s.t1))
    workers = merge_intervals(worker_intervals)
    starts = [lo for lo, _ in workers]
    total = covered = 0.0
    for r in roots:
        pieces = [
            (s.t0, s.t1) for s in own.get(r.thread, []) if r.t0 <= s.t0 and s.t1 <= r.t1
        ]
        # Disjoint worker intervals that can overlap [r.t0, r.t1].
        first = max(0, bisect.bisect_right(starts, r.t0) - 1)
        last = bisect.bisect_left(starts, r.t1)
        pieces += workers[first:last]
        covered += union_length((max(lo, r.t0), min(hi, r.t1)) for lo, hi in pieces)
        total += r.wall
    return total, covered
