"""Tests for the LLM-based detectors: token budget (TSR), base-model
behaviour, GPT heuristic sims, and the HPC-GPT margin classifier."""

import numpy as np
import pytest

from repro.detectors import (
    GPTHeuristicDetector,
    HPCGPTDetector,
    LLMBaseModelDetector,
    TOKEN_BUDGET,
    Verdict,
    race_prompt,
)
from repro.detectors.llm_detector import parse_yes_no, race_margins
from repro.drb import DRBSuite
from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def suite():
    return DRBSuite.evaluation(seed=0)


@pytest.fixture(scope="module")
def tok(suite):
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    corpus += [s.source for s in suite.specs[:20]]
    return train_tokenizer_on(corpus, vocab_size=400)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = ModelConfig(vocab_size=400, dim=16, n_layers=1, n_heads=2,
                      hidden_dim=32, max_seq_len=256)
    return CausalLM(cfg, derive_rng(9, "llm-det"))


@pytest.fixture(scope="module")
def engine(tiny_model, tok):
    return InferenceEngine(tiny_model, tok)


class TestTokenBudget:
    def test_oversize_c_files_unsupported(self, suite, tok):
        det = GPTHeuristicDetector("GPT-4", "gpt-4", tok)
        oversize = [s for s in suite.specs if "oversize" in s.features]
        assert len(oversize) == 14
        assert all(s.language == "C/C++" for s in oversize)
        assert all(not det.supports(s) for s in oversize)
        assert all(det.run(s).verdict is Verdict.UNSUPPORTED for s in oversize[:2])

    def test_normal_files_supported(self, suite, tok):
        det = GPTHeuristicDetector("GPT-4", "gpt-4", tok)
        normal = [s for s in suite.specs if "oversize" not in s.features][:10]
        assert all(det.supports(s) for s in normal)

    def test_fortran_all_supported(self, suite, tok):
        det = GPTHeuristicDetector("GPT-4", "gpt-4", tok)
        assert all(det.supports(s) for s in suite.by_language("Fortran"))

    def test_budget_is_8k(self):
        assert TOKEN_BUDGET == 8192


class TestParseYesNo:
    def test_first_occurrence_wins(self):
        assert parse_yes_no("Well, no — although yes in theory") == "no"
        assert parse_yes_no("Yes, there is a race.") == "yes"

    def test_default_on_garbage(self):
        assert parse_yes_no("ssssss") == "yes"
        assert parse_yes_no("", default="no") == "no"

    def test_word_boundaries(self):
        assert parse_yes_no("nothing to note here") == "yes"  # 'no' not standalone


class TestGPTSims:
    def test_gpt4_beats_gpt35(self, suite, tok):
        specs = [s for s in suite.by_language("C/C++") if "oversize" not in s.features]
        g4 = GPTHeuristicDetector("GPT-4", "gpt-4", tok)
        g35 = GPTHeuristicDetector("GPT-3.5", "gpt-3.5", tok)

        def acc(det):
            ok = 0
            for s in specs:
                v = det.run(s).verdict
                ok += (v is Verdict.RACE) == (s.label == "yes")
            return ok / len(specs)

        a4, a35 = acc(g4), acc(g35)
        assert a4 > a35
        assert 0.55 < a35 < 0.95 and 0.6 < a4 <= 0.95

    def test_deterministic(self, suite, tok):
        det1 = GPTHeuristicDetector("GPT-4", "gpt-4", tok, seed=1)
        det2 = GPTHeuristicDetector("GPT-4", "gpt-4", tok, seed=1)
        s = suite.specs[3]
        assert det1.run(s).verdict == det2.run(s).verdict

    def test_serial_code_is_no(self, suite, tok):
        det = GPTHeuristicDetector("GPT-4", "gpt-4", tok)
        serial = next(s for s in suite.specs if "serial" in s.features)
        # Modulo error channel may flip; check the raw heuristic.
        assert det._gpt4_answer(serial.source) == "no"

    def test_unknown_skill_rejected(self, tok):
        with pytest.raises(ValueError):
            GPTHeuristicDetector("x", "gpt-5", tok)


class TestBaseModelDetector:
    def test_returns_verdict_and_deterministic(self, suite, engine):
        det = LLMBaseModelDetector("LLaMa", engine)
        s = next(s for s in suite.specs if "oversize" not in s.features)
        v1 = det.run(s).verdict
        v2 = det.run(s).verdict
        assert v1 == v2 and v1 in (Verdict.RACE, Verdict.NO_RACE)

    def test_near_chance_overall(self, suite, engine):
        """An untuned model cannot beat the heuristic sims; accuracy must
        sit near chance (the paper's LLaMA rows: 0.52-0.54)."""
        det = LLMBaseModelDetector("LLaMa", engine)
        rng = np.random.default_rng(0)
        pool = suite.by_language("Fortran")
        specs = list(rng.permutation(np.array(pool, dtype=object)))[:40]
        assert 10 <= sum(s.label == "yes" for s in specs) <= 30  # balanced slice
        ok = sum(
            (det.run(s).verdict is Verdict.RACE) == (s.label == "yes") for s in specs
        )
        assert 0.2 <= ok / len(specs) <= 0.8


class TestBatchedVerdictParity:
    """The engine acceptance bar: batched detection yields identical
    verdicts to the per-program (sequential) path."""

    def _sample(self, suite, n=12):
        supported = [s for s in suite.specs if "oversize" not in s.features]
        return supported[:n]

    def test_hpcgpt_detector_batch_matches_sequential(self, suite, engine):
        det = HPCGPTDetector("hg", engine, threshold=0.0)
        specs = self._sample(suite)
        batched = det.detect_many(specs)
        sequential = [det.detect_many([s])[0] for s in specs]
        assert batched == sequential

    def test_base_model_detector_batch_matches_sequential(self, suite, engine):
        det = LLMBaseModelDetector("LLaMa", engine)
        specs = self._sample(suite, n=8)
        batched = det.detect_many(specs)
        sequential = [det.detect_many([s])[0] for s in specs]
        assert batched == sequential

    def test_run_many_matches_run(self, suite, engine):
        det = HPCGPTDetector("hg", engine, threshold=0.0)
        specs = suite.specs[:16]  # includes unsupported oversize programs
        batched = det.run_many(specs)
        sequential = [det.run(s) for s in specs]
        assert batched == sequential

    def test_heuristic_detector_run_many_matches_run(self, suite, tok):
        det = GPTHeuristicDetector("GPT-4", "gpt-4", tok)
        specs = suite.specs[:16]
        assert det.run_many(specs) == [det.run(s) for s in specs]

    def test_run_many_all_unsupported(self, suite, engine):
        """A batch where no program fits the token budget must yield
        UNSUPPORTED rows, not crash the batched scorer."""
        det = HPCGPTDetector("hg", engine, threshold=0.0)
        oversize = [s for s in suite.specs if "oversize" in s.features][:4]
        assert oversize and not any(det.supports(s) for s in oversize)
        results = det.run_many(oversize)
        assert [r.verdict for r in results] == [Verdict.UNSUPPORTED] * len(oversize)

    def test_empty_batches_are_empty(self, suite, engine):
        det = HPCGPTDetector("hg", engine, threshold=0.0)
        assert det.run_many([]) == []
        assert det.detect_many([]) == []
        assert det.engine.yes_no_margins([]) == []


class TestHPCGPTDetector:
    def test_margin_threshold_behaviour(self, suite, engine):
        s = next(s for s in suite.specs if "oversize" not in s.features)
        margin = engine.yes_no_margins([race_prompt(s)])[0]
        low = HPCGPTDetector("hg", engine, threshold=margin - 1.0)
        high = HPCGPTDetector("hg", engine, threshold=margin + 1.0)
        assert low.run(s).verdict is Verdict.RACE
        assert high.run(s).verdict is Verdict.NO_RACE

    def test_margin_is_finite_float(self, suite, engine):
        s = suite.specs[0]
        [m] = race_margins(engine, [(s.source, s.language)])
        assert isinstance(m, float) and np.isfinite(m)

    def test_race_margins_score_the_race_prompt(self, suite, engine):
        specs = [suite.specs[0], suite.by_language("Fortran")[0]]
        assert race_margins(engine, [(s.source, s.language) for s in specs]) == (
            engine.yes_no_margins([race_prompt(s) for s in specs])
        )

    def test_long_prompt_truncated_not_crashing(self, suite, engine):
        s = next(s for s in suite.specs if "oversize" in s.features)
        m = engine.yes_no_margins([race_prompt(s)])[0]
        assert np.isfinite(m)
