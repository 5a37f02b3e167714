"""Tests for the evaluation harness and the Task-1 QA evaluator."""

import pytest

from repro.detectors import LLOVDetector, ThreadSanitizerDetector
from repro.drb import DRBSuite
from repro.drb.generator import generate_eval_suite
from repro.eval import EvaluationHarness, Task1Evaluator
from repro.eval.task1_eval import build_qa_set
from repro.knowledge import build_mlperf_table, build_plp_catalog
from repro.ontology import HPCOntology
from repro.runtime import MachineConfig


@pytest.fixture(scope="module")
def mini_suite():
    # Subset for speed: 2 kernels per (language, category).
    full = DRBSuite.evaluation(seed=0)
    keep, seen = [], {}
    for s in full.specs:
        k = (s.language, s.category)
        if seen.get(k, 0) < 2:
            keep.append(s)
            seen[k] = seen.get(k, 0) + 1
    return DRBSuite(keep)


class TestHarness:
    def test_runs_static_and_dynamic(self, mini_suite):
        harness = EvaluationHarness(mini_suite, MachineConfig(n_schedules=1))
        out = harness.run([LLOVDetector(), ThreadSanitizerDetector()])
        assert len(out.rows) == 4  # 2 tools x 2 languages
        row = out.row("LLOV", "C/C++")
        assert row.counts.total == len(mini_suite.by_language("C/C++"))

    def test_trace_cache_reused(self, mini_suite):
        harness = EvaluationHarness(mini_suite, MachineConfig(n_schedules=1))
        spec = mini_suite.specs[0]
        t1 = harness.traces_for(spec)
        t2 = harness.traces_for(spec)
        assert t1 is t2

    def test_missing_row_raises(self, mini_suite):
        harness = EvaluationHarness(mini_suite)
        out = harness.run([LLOVDetector()], languages=("C/C++",))
        with pytest.raises(KeyError):
            out.row("LLOV", "Fortran")

    def test_tsan_beats_chance(self, mini_suite):
        harness = EvaluationHarness(mini_suite, MachineConfig(n_schedules=2))
        out = harness.run([ThreadSanitizerDetector()], languages=("C/C++",))
        row = out.row("Thread Sanitizer", "C/C++")
        assert row.accuracy > 0.6
        assert row.precision > 0.9  # TSan's defining property


class TestTask1Evaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        catalog = build_plp_catalog()
        table = build_mlperf_table()
        qa = build_qa_set(catalog, table, n_plp=10, n_mlperf=10)
        return catalog, table, qa

    def test_anchors_first(self, setup):
        _, _, qa = setup
        assert qa[0].answer_entity == "CodeTrans"
        assert qa[1].answer_entity == "dgxh100_n64"

    def test_ontology_scores_high_on_templates_low_coverage_elsewhere(self, setup):
        catalog, table, qa = setup
        onto = HPCOntology(catalog, table)
        score = Task1Evaluator(qa).score("HPC-Ontology", lambda qs: [onto.answer(q) for q in qs])
        assert score.total == len(qa)
        # The ontology answers the Listing-3/4 anchors correctly.
        assert score.correct >= 2
        assert score.coverage <= 1.0

    def test_perfect_method(self, setup):
        _, _, qa = setup
        gold = {ex.question: ex.answer_entity for ex in qa}
        score = Task1Evaluator(qa).score("oracle", lambda qs: [gold.get(q) for q in qs])
        assert score.accuracy == 1.0 and score.coverage == 1.0

    def test_generic_method_scores_zero(self, setup):
        _, _, qa = setup
        score = Task1Evaluator(qa).score(
            "generic", lambda qs: ["it depends on many factors"] * len(qs)
        )
        assert score.correct == 0 and score.coverage == 1.0

    def test_declining_method_has_zero_coverage(self, setup):
        _, _, qa = setup
        score = Task1Evaluator(qa).score("mute", lambda qs: [None] * len(qs))
        assert score.coverage == 0.0

    def test_answer_count_mismatch_rejected(self, setup):
        _, _, qa = setup
        with pytest.raises(ValueError, match="returned 1 answers"):
            Task1Evaluator(qa).score("short", lambda qs: ["x"])

    def test_empty_qa_rejected(self):
        with pytest.raises(ValueError):
            Task1Evaluator([])


class TestSuiteOversize:
    def test_pad_flag_off(self):
        specs = generate_eval_suite(seed=0, pad_oversize=False)
        assert not any("oversize" in s.features for s in specs)

    def test_oversize_does_not_change_labels_or_parse(self):
        padded = [s for s in generate_eval_suite(seed=0) if "oversize" in s.features]
        assert len(padded) == 14
        for s in padded[:3]:
            prog = s.parse()  # comments stripped; still parses
            assert prog.language == "C/C++"
