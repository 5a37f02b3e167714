"""Lazy schedule exploration and report-truncation semantics."""

import pytest

import repro.runtime.interpreter as interpreter
from repro.openmp import parse_c
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.interpreter import CompiledProgram
from repro.runtime.machine import hb_races
from tests.runtime.hb_oracle import hb_races_reference

RACY = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 8; i++) { s = s + 1; }
"""

RACE_FREE = """
int i;
double a[16];
#pragma omp parallel for
for (i = 0; i < 16; i++) { a[i] = i; }
"""


class _CountingExecute:
    """Counts the schedules the machine executes (each one is a
    ``CompiledProgram.execute`` call on the program compiled once)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        run = CompiledProgram.execute

        def counted(code, *args, **kwargs):
            self.calls += 1
            return run(code, *args, **kwargs)

        monkeypatch.setattr(CompiledProgram, "execute", counted)


class TestShortCircuit:
    def test_any_hb_race_stops_at_first_racy_schedule(self, monkeypatch):
        counter = _CountingExecute(monkeypatch)
        m = Machine(MachineConfig(n_threads=2, n_schedules=6))
        assert m.any_hb_race(parse_c(RACY))
        assert counter.calls == 1  # eager seed code executed all 6 up front

    def test_race_free_program_still_explores_all_schedules(self, monkeypatch):
        counter = _CountingExecute(monkeypatch)
        m = Machine(MachineConfig(n_threads=2, n_schedules=6))
        assert not m.any_hb_race(parse_c(RACE_FREE))
        assert counter.calls == 6

    def test_iter_traces_is_lazy(self, monkeypatch):
        counter = _CountingExecute(monkeypatch)
        m = Machine(MachineConfig(n_threads=2, n_schedules=4))
        it = m.iter_traces(parse_c(RACY))
        assert counter.calls == 0
        next(it)
        assert counter.calls == 1
        next(it)
        assert counter.calls == 2

    def test_program_compiles_once_across_schedules(self, monkeypatch):
        compiled = []
        compile_stmt = interpreter._compile_stmt

        def counting(stmt, private):
            compiled.append(id(stmt))
            return compile_stmt(stmt, private)

        monkeypatch.setattr(interpreter, "_compile_stmt", counting)
        Machine(MachineConfig(n_threads=2, n_schedules=1)).traces(parse_c(RACY))
        once = len(compiled)
        compiled.clear()
        Machine(MachineConfig(n_threads=2, n_schedules=4)).traces(parse_c(RACY))
        assert once > 0 and len(compiled) == once

    def test_traces_still_returns_full_list(self):
        m = Machine(MachineConfig(n_threads=2, n_schedules=3))
        traces = m.traces(parse_c(RACY))
        assert isinstance(traces, list) and len(traces) == 3


class TestMaxReports:
    @pytest.fixture(scope="class")
    def hot_trace(self):
        # 2 threads x 40 unsynchronised RMWs on one scalar: hundreds of
        # racy pairs at a single location.
        src = """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < 40; i++) { s = s + 1; }
"""
        return execute(parse_c(src), n_threads=2, schedule_seed=0)

    def test_exactly_max_reports_returned(self, hot_trace):
        assert len(hb_races(hot_trace, max_reports=1000)) == 1000
        for cap in (1, 5, 10):
            assert len(hb_races(hot_trace, max_reports=cap)) == cap

    def test_truncation_is_deterministic_and_matches_reference(self, hot_trace):
        for cap in (3, 17):
            once = [(r.loc, r.first.seq, r.second.seq) for r in hb_races(hot_trace, max_reports=cap)]
            twice = [(r.loc, r.first.seq, r.second.seq) for r in hb_races(hot_trace, max_reports=cap)]
            ref = [(r.loc, r.first.seq, r.second.seq) for r in hb_races_reference(hot_trace, max_reports=cap)]
            assert once == twice == ref

    def test_reports_are_seq_ordered_pairs(self, hot_trace):
        for r in hb_races(hot_trace, max_reports=20):
            assert r.first.seq < r.second.seq
            assert r.first.loc == r.second.loc == r.loc


class TestLaneFiltering:
    @pytest.fixture(scope="class")
    def simd_trace(self):
        # Dependence distance 1 < safelen: lanes race with each other,
        # but a thread-level tool sees one host thread.
        src = """
int i;
double a[16];
#pragma omp simd
for (i = 1; i < 16; i++) { a[i] = a[i-1] + 1; }
"""
        return execute(parse_c(src), n_threads=2, schedule_seed=0)

    def test_lane_race_visible_to_oracle(self, simd_trace):
        assert all(e.lane for e in simd_trace.events)
        assert hb_races(simd_trace, include_lane_events=True, max_reports=1)

    def test_lane_only_race_suppressed_for_thread_level_tools(self, simd_trace):
        assert hb_races(simd_trace, include_lane_events=False) == []

    def test_lane_filter_matches_reference(self, simd_trace):
        for lanes in (True, False):
            got = [(r.first.seq, r.second.seq) for r in hb_races(simd_trace, lanes)]
            ref = [(r.first.seq, r.second.seq) for r in hb_races_reference(simd_trace, lanes)]
            assert got == ref
