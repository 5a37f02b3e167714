"""Dict vector clocks and the pairwise happens-before checker: the parity
oracle for :func:`repro.runtime.hb_races`.

The runtime checks races with FastTrack's epoch rule over each trace's
:class:`~repro.runtime.ClockBank`.  This module keeps the original
algorithm it replaced — every conflicting pair at a location, in
``combinations`` order, compared with full dict-clock algebra — so that
tests and ``benchmarks/bench_runtime_throughput.py`` can check the fast
path against an implementation that shares none of its clock logic.
:func:`banked_trace` builds traces by hand for unit tests.

Import it as ``tests.runtime.hb_oracle`` with the repository root on
``sys.path`` (``python -m pytest`` from the root puts it there).
"""

from __future__ import annotations

from itertools import combinations

from repro.runtime import ClockBank, MemEvent, RaceReport, Trace
from repro.runtime.machine import events_conflict


class VectorClock:
    """A mapping thread-id -> logical time with the usual VC algebra."""

    __slots__ = ("clock",)

    def __init__(self, clock: dict | None = None) -> None:
        self.clock: dict = dict(clock) if clock else {}

    def copy(self) -> "VectorClock":
        return VectorClock(self.clock)

    def tick(self, tid) -> None:
        """Advance ``tid``'s component (a new local event epoch)."""
        self.clock[tid] = self.clock.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """In-place component-wise max (receive knowledge from ``other``)."""
        for t, v in other.clock.items():
            if self.clock.get(t, 0) < v:
                self.clock[t] = v

    def happens_before(self, other: "VectorClock") -> bool:
        """True iff self <= other component-wise and self != other."""
        if not all(other.clock.get(t, 0) >= v for t, v in self.clock.items()):
            return False
        keys = set(self.clock) | set(other.clock)
        return any(other.clock.get(t, 0) > self.clock.get(t, 0) for t in keys)

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock precedes the other and they are not equal."""
        return (
            self != other
            and not self.happens_before(other)
            and not other.happens_before(self)
        )

    def get(self, tid) -> int:
        return self.clock.get(tid, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        keys = set(self.clock) | set(other.clock)
        return all(self.clock.get(k, 0) == other.clock.get(k, 0) for k in keys)

    def __hash__(self):  # pragma: no cover - VCs are not hashable
        raise TypeError("VectorClock is mutable and unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{t}:{v}" for t, v in sorted(self.clock.items(), key=str))
        return f"VC({inner})"


def hb_races_reference(
    trace: Trace,
    include_lane_events: bool = True,
    max_reports: int = 10,
) -> list[RaceReport]:
    """Pairwise ``combinations`` over dict vector clocks.  Same
    contract as :func:`repro.runtime.hb_races`: reports, their order and
    ``max_reports`` truncation must match it bit for bit."""
    by_loc: dict[tuple, list[MemEvent]] = {}
    for e in trace.events:
        if e.lane and not include_lane_events:
            continue
        by_loc.setdefault(e.loc, []).append(e)
    bank = trace.clock_bank
    clocks: dict[int, VectorClock] = {}  # bank row -> its dict clock

    def vc(e: MemEvent) -> VectorClock:
        c = clocks.get(e.clock_row)
        if c is None:
            row = bank.rows[e.clock_row]
            c = clocks[e.clock_row] = VectorClock(
                {bank.tids[i]: v for i, v in enumerate(row) if v}
            )
        return c

    reports: list[RaceReport] = []
    for loc, events in by_loc.items():
        writes_present = any(e.is_write for e in events)
        if not writes_present or len({e.tid for e in events}) < 2:
            continue
        for a, b in combinations(events, 2):
            if not events_conflict(a, b):
                continue
            if vc(a).concurrent_with(vc(b)):
                reports.append(RaceReport(loc, a, b))
                if len(reports) >= max_reports:
                    return reports
    return reports


def banked_trace(events: list[dict]) -> Trace:
    """A :class:`Trace` from hand-written events.

    Each item holds :class:`MemEvent` fields except ``clock_row``, plus
    an optional ``clock`` (thread id -> time, default ``{tid: seq + 1}``)
    that is interned into the trace's bank; ``locks`` defaults to none.
    """
    bank = ClockBank()
    built = []
    for fields in events:
        fields = dict(fields)
        clock = fields.pop("clock", None) or {fields["tid"]: fields["seq"] + 1}
        cols = {bank.col(tid): v for tid, v in clock.items()}
        values = [0] * len(bank.tids)
        for col, v in cols.items():
            values[col] = v
        fields["locks"] = frozenset(fields.get("locks", ()))
        built.append(MemEvent(clock_row=bank.add_row(values), **fields))
    return Trace(clock_bank=bank, events=built)
