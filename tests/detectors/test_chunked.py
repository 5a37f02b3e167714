"""Tests for the §5 chunking mitigation detector."""

import pytest

from repro.detectors.llm_detector import ChunkedHPCGPTDetector, HPCGPTDetector
from repro.drb import DRBSuite
from repro.llm import CausalLM, InferenceEngine, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def setup():
    suite = DRBSuite.evaluation(seed=0)
    corpus = build_general_corpus(PretrainConfig(n_sentences=120))
    corpus += [s.source for s in suite.specs[:10]]
    tok = train_tokenizer_on(corpus, vocab_size=380)
    cfg = ModelConfig(vocab_size=380, dim=16, n_layers=1, n_heads=2,
                      hidden_dim=32, max_seq_len=256)
    engine = InferenceEngine(CausalLM(cfg, derive_rng(2, "chunk")), tok)
    return suite, tok, engine


class TestChunked:
    def test_supports_everything(self, setup):
        suite, tok, engine = setup
        det = ChunkedHPCGPTDetector("chunked", engine, 0.0)
        oversize = [s for s in suite.specs if "oversize" in s.features]
        assert all(det.supports(s) for s in oversize)
        plain = HPCGPTDetector("plain", engine, 0.0)
        assert all(not plain.supports(s) for s in oversize)

    def test_segments_fit_budget(self, setup):
        suite, tok, engine = setup
        det = ChunkedHPCGPTDetector("chunked", engine, 0.0, budget=512)
        oversize = next(s for s in suite.specs if "oversize" in s.features)
        segments = det._segments(oversize.source)
        assert len(segments) > 1
        assert "".join(segments) == oversize.source  # lossless split
        for seg in segments:
            assert tok.token_count(seg) <= 512

    def test_small_file_single_segment(self, setup):
        suite, tok, engine = setup
        det = ChunkedHPCGPTDetector("chunked", engine, 0.0)
        small = next(s for s in suite.specs if "oversize" not in s.features)
        assert len(det._segments(small.source)) == 1

    def test_verdict_is_or_of_segments(self, setup):
        suite, tok, engine = setup
        # Threshold below any margin -> every segment says RACE.
        det_low = ChunkedHPCGPTDetector("c", engine, threshold=-1e9, budget=512)
        # Threshold above any margin -> every segment says NO_RACE.
        det_high = ChunkedHPCGPTDetector("c", engine, threshold=1e9, budget=512)
        oversize = next(s for s in suite.specs if "oversize" in s.features)
        from repro.detectors.base import Verdict

        assert det_low.run(oversize).verdict is Verdict.RACE
        assert det_high.run(oversize).verdict is Verdict.NO_RACE
