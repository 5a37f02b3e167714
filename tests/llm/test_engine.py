"""Tests for the batched inference engine: batched-vs-sequential parity,
the context-overflow regression, growable KV caches, and micro-batching."""

import threading

import numpy as np
import pytest

from repro.llm import CausalLM, GenerationConfig, InferenceEngine, MicroBatcher, ModelConfig
from repro.llm.engine import clamp_prompt
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.utils.rng import derive_rng

SMALL = ModelConfig(vocab_size=300, dim=16, n_layers=2, n_heads=2, hidden_dim=32, max_seq_len=64)


@pytest.fixture(scope="module")
def tok():
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    return train_tokenizer_on(corpus, vocab_size=300)


@pytest.fixture(scope="module")
def model():
    return CausalLM(SMALL, derive_rng(0, "tests/llm/engine"))


@pytest.fixture(scope="module")
def engine(model, tok):
    return InferenceEngine(model, tok)


@pytest.fixture(scope="module")
def mixed_prompts(tok):
    texts = [
        "the river",
        "a small bird sings in the morning over the quiet water",
        "water",
        "the mountain wind moves the old trees and the river flows",
        "morning light",
    ]
    return [tok.encode(t, bos=True) for t in texts]


class TestGenerateBatchParity:
    def test_greedy_batch_equals_sequential(self, engine, mixed_prompts):
        cfg = GenerationConfig(max_new_tokens=10)
        batched = engine.generate_batch(mixed_prompts, cfg)
        sequential = [engine.generate_batch([p], cfg)[0] for p in mixed_prompts]
        assert batched == sequential

    def test_greedy_parity_without_eos_stop(self, engine, mixed_prompts):
        cfg = GenerationConfig(max_new_tokens=12, stop_at_eos=False)
        batched = engine.generate_batch(mixed_prompts, cfg)
        sequential = [engine.generate_batch([p], cfg)[0] for p in mixed_prompts]
        assert batched == sequential

    def test_generate_many_chunks(self, engine, mixed_prompts):
        cfg = GenerationConfig(max_new_tokens=4)
        whole = engine.generate_batch(mixed_prompts, cfg)
        chunked = engine.generate_many(mixed_prompts, cfg, batch_size=2)
        assert whole == chunked

    def test_empty_prompt_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.generate_batch([[1, 2], []])
        with pytest.raises(ValueError):
            engine.generate_batch([])


class TestScoreBatchParity:
    def test_margins_match_sequential_within_tolerance(self, engine):
        instructions = [
            "is there a data race in this loop?",
            "the quick brown fox jumps over the lazy dog " * 8,  # forces truncation
            "short",
            "does the reduction clause protect the accumulation here?",
        ]
        batched = engine.yes_no_margins(instructions)
        sequential = [engine.yes_no_margins([s])[0] for s in instructions]
        np.testing.assert_allclose(batched, sequential, atol=1e-5)

    def test_margins_batch_size_invariant(self, engine):
        instructions = ["alpha beta", "gamma", "delta epsilon zeta eta theta"]
        a = engine.yes_no_margins(instructions, batch_size=1)
        b = engine.yes_no_margins(instructions, batch_size=3)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_next_token_logits_match_direct_forward(self, engine, model, mixed_prompts):
        from repro.tensor import no_grad

        batched = engine.next_token_logits(mixed_prompts)
        with no_grad():
            for i, p in enumerate(mixed_prompts):
                direct = model.forward(np.asarray(p)).numpy()[0, -1]
                np.testing.assert_allclose(batched[i], direct, atol=1e-5)


class TestContextOverflowRegression:
    def test_max_new_tokens_at_context_edge(self, engine, tok):
        """max_new_tokens >= max_seq_len - 1 with an over-long prompt used
        to keep the whole prompt and crash the RoPE table mid-prefill."""
        long_prompt = tok.encode("the river flows past the hill " * 30, bos=True)
        assert len(long_prompt) > SMALL.max_seq_len
        for n in (SMALL.max_seq_len - 1, SMALL.max_seq_len, SMALL.max_seq_len + 40):
            out = engine.generate_batch(
                [long_prompt], GenerationConfig(max_new_tokens=n, stop_at_eos=False)
            )[0]
            assert 0 < len(out) <= n
            # The decode can never exceed the model context.
            assert len(out) < SMALL.max_seq_len

    def test_clamp_prompt_cases(self):
        ids = list(range(100))
        # Short prompts pass through untouched.
        assert clamp_prompt(ids[:10], 32, 64) == ids[:10]
        # Normal over-long prompt keeps the most recent window.
        assert clamp_prompt(ids, 16, 64) == ids[-47:]
        # Degenerate budgets still leave at least one token and room to decode.
        assert clamp_prompt(ids, 63, 64) == ids[-1:]
        assert clamp_prompt(ids, 1000, 64) == ids[-1:]
        assert len(clamp_prompt(ids, 0, 64)) == 63


class TestMicroBatcher:
    def test_concurrent_submissions_are_batched(self):
        seen_batches = []
        gate = threading.Barrier(8 + 1, timeout=5.0)

        def run_batch(items):
            seen_batches.append(list(items))
            return [x * 2 for x in items]

        mb = MicroBatcher(run_batch, window_ms=50.0, max_batch=8)
        results = {}

        def worker(i):
            gate.wait()
            results[i] = mb.submit(i)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        gate.wait()
        for t in threads:
            t.join(timeout=5.0)
        mb.close()
        assert results == {i: i * 2 for i in range(8)}
        # The 8 concurrent submissions must have shared batches.
        assert max(len(b) for b in seen_batches) > 1

    def test_error_propagates_to_caller(self):
        def run_batch(items):
            raise RuntimeError("boom")

        mb = MicroBatcher(run_batch, window_ms=1.0)
        with pytest.raises(RuntimeError, match="boom"):
            mb.submit(1)
        mb.close()

    def test_submit_after_close_rejected(self):
        mb = MicroBatcher(lambda items: items, window_ms=1.0)
        mb.close()
        with pytest.raises(RuntimeError):
            mb.submit(1)

    def test_result_count_mismatch_is_error(self):
        mb = MicroBatcher(lambda items: [], window_ms=1.0)
        with pytest.raises(RuntimeError):
            mb.submit(1)
        mb.close()
