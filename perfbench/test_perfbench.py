"""Self-tests for the benchmark's own helpers (no model, no repro build).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from perfbench import serving
from perfbench.measure import percentile, summarize, tail, timed_repeats
from perfbench.spans import Span, Tracer, coverage, self_times, union_length


# -- percentiles and sample counts -------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(200)))[0] == 95.0  # exactly 10 beyond p95
    assert tail(list(range(199)))[0] == 90.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(20)))[0] == 50.0


def test_tail_falls_back_to_max_on_small_samples():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 95) == 95.0
    assert percentile([7.0], 99) == 7.0


def test_summary_states_sample_count_and_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    s = summarize(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (5, med, q1, q3)
    assert (s["tail_p"], s["tail"]) == (100.0, 5.0)


def test_timed_repeats_honours_minimum_and_budget():
    runs = timed_repeats(lambda i: i, budget_s=0.0, min_repeats=3)
    assert [r for _, r in runs] == [0, 1, 2]
    runs = timed_repeats(lambda i: time.sleep(0.01), budget_s=0.055, min_repeats=1)
    walls = [w for w, _ in runs]
    assert sum(walls[:-1]) < 0.055 <= sum(walls) + 0.005  # the last one starts in budget


# -- closed-loop serving rounds -------------------------------------------------------------


class _FakeFrontend:
    """Answers ``a:<question>``, detects "yes" for every kernel, and
    answers a retrieval question with the System of an ingested
    document whose Accelerator the question names."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.served: list = []
        self.facts: dict[str, str] = {}

    def _record(self, item) -> None:
        with self.lock:
            self.served.append(item)

    def answer(self, question, retrieval=False):
        self._record(question)
        time.sleep(0.001)
        if retrieval:
            for accel, system in self.facts.items():
                if accel in question:
                    return system
            return "unknown"
        return f"a:{question}"

    def detect(self, code, language):
        self._record(code)
        return "yes"

    def ingest(self, documents):
        self._record(documents[0]["text"])
        time.sleep(0.002)
        with self.lock:
            for doc in documents:
                self.facts[doc["facts"]["Accelerator"]] = doc["facts"]["System"]
        return {"chunks": len(documents)}


def test_round_checks_every_reply_and_asks_facts_after_their_ingest():
    questions = [f"q{i}" for i in range(6)]
    kernels = [("k_race", "C/C++"), ("k_clean", "C/C++")]
    expected = {("answer", q): f"a:{q}" for q in questions}
    expected.update({("detect", "k_race", "C/C++"): "yes", ("detect", "k_clean", "C/C++"): "no"})
    reqs = serving.make_round(np.random.default_rng(0), questions, kernels, expected, "t")
    frontend = _FakeFrontend()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = serving.run_round(frontend, reqs, clients=8)
    finally:
        sys.setswitchinterval(old)

    n_ingest = serving.INGESTS_PER_ROUND
    assert len(reqs) == 2 * len(questions) + len(kernels) + n_ingest
    assert len(outcomes) == len(reqs) + n_ingest  # each ingest's fact question
    assert len(frontend.served) == len(outcomes)  # every request sent exactly once
    failed = [o for o in outcomes if not o.ok]
    assert len(failed) == 1 and failed[0].kind == "detect"  # the clean kernel
    facts = [o for o in outcomes if o.kind == "fact"]
    assert len(facts) == n_ingest and all(o.ok for o in facts)
    assert all(o.latency_s > 0 for o in outcomes)


def test_round_counts_a_raising_request_as_failed():
    class Broken(_FakeFrontend):
        def detect(self, code, language):
            raise RuntimeError("boom")

    reqs = [serving.Request("detect", ("k", "C/C++"), "yes"), serving.Request("answer", "q", "a:q")]
    outcomes = serving.run_round(Broken(), reqs, clients=2)
    by_kind = {o.kind: o for o in outcomes}
    assert not by_kind["detect"].ok and "boom" in by_kind["detect"].error
    assert by_kind["answer"].ok


# -- spans: self time and coverage ----------------------------------------------------------


def _span(name, sid, parent, thread, t0, t1, cpu=0.0):
    return Span(name, sid, parent, thread, t0, t1, 0.0, cpu)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 1, None, 1, 0.0, 10.0, cpu=9.0),
        _span("a", 2, 1, 1, 1.0, 5.0, cpu=4.0),
        _span("a.b", 3, 2, 1, 2.0, 3.0, cpu=1.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx((6.0, 5.0))
    assert selfs[2] == pytest.approx((3.0, 3.0))
    assert selfs[3] == pytest.approx((1.0, 1.0))


def test_coverage_unions_overlapping_worker_threads():
    spans = [
        _span("root", 1, None, 1, 0.0, 10.0),
        _span("child", 2, 1, 1, 1.0, 3.0),
        _span("work", 3, None, 2, 2.0, 6.0),   # overlaps the child
        _span("work", 4, None, 3, 5.0, 8.0),   # overlaps the other worker
        _span("late", 5, None, 2, 9.5, 12.0),  # clipped to the root
    ]
    total, covered = coverage(spans, "root")
    assert total == pytest.approx(10.0)
    assert covered == pytest.approx(7.5)  # [1, 8] and [9.5, 10]


def test_coverage_ignores_other_roots_on_the_same_thread():
    spans = [
        _span("root", 1, None, 1, 0.0, 2.0),
        _span("child", 2, 1, 1, 0.5, 1.0),
        _span("root", 3, None, 1, 3.0, 5.0),
    ]
    total, covered = coverage(spans, "root")
    assert (total, covered) == pytest.approx((4.0, 0.5))


def test_union_length_merges_overlaps():
    assert union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_tracer_records_thread_parent_and_wait():
    class Box:
        def outer(self):
            return self.inner()

        def inner(self):
            time.sleep(0.03)
            return 1

    originals = (Box.__dict__["outer"], Box.__dict__["inner"])
    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    Box().outer()
    assert tracer.spans == []  # inactive wrappers record nothing
    tracer.active = True
    threads = [threading.Thread(target=Box().outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    tracer.uninstall()
    assert (Box.__dict__["outer"], Box.__dict__["inner"]) == originals

    spans = tracer.take()
    outers = {s.sid: s for s in spans if s.name == "outer"}
    inners = [s for s in spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 2
    for s in inners:
        assert s.parent in outers and outers[s.parent].thread == s.thread
        assert s.wall >= 0.025 and s.cpu < s.wall / 2  # sleeping is waiting
    assert len({s.thread for s in inners}) == 2


# -- BENCHMARK.json agrees with the runner ------------------------------------------------


def test_benchmark_json_lists_what_the_runner_prints():
    from pathlib import Path

    from perfbench import layers, run
    from perfbench.workloads import WORKLOADS

    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in spec["end_to_end"])
               for m in spec["end_to_end"])
