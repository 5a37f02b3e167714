"""Tests for the causal LM, generation, chat formatting, and pretraining."""

import numpy as np
import pytest

from repro.llm import (
    CausalLM,
    ChatFormat,
    GenerationConfig,
    InferenceEngine,
    ModelConfig,
    PretrainConfig,
    build_general_corpus,
    pretrain,
)
from repro.llm.pretrain import train_tokenizer_on
from repro.tensor import no_grad
from repro.utils.rng import derive_rng

SMALL = ModelConfig(vocab_size=300, dim=16, n_layers=2, n_heads=2, hidden_dim=32, max_seq_len=64)


@pytest.fixture(scope="module")
def tok():
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    return train_tokenizer_on(corpus, vocab_size=300)


@pytest.fixture(scope="module")
def model():
    return CausalLM(SMALL, derive_rng(0, "tests/llm/model"))


@pytest.fixture(scope="module")
def engine(model, tok):
    return InferenceEngine(model, tok)


class TestModel:
    def test_logit_shape(self, model):
        ids = np.array([[1, 7, 8, 9]])
        assert model.forward(ids).shape == (1, 4, 300)

    def test_1d_input_promoted(self, model):
        assert model.forward(np.array([1, 2, 3])).shape == (1, 3, 300)

    def test_causality_of_model(self, model):
        a = np.array([[1, 7, 8, 9, 10]])
        b = a.copy()
        b[0, -1] = 42
        with no_grad():
            la = model.forward(a).numpy()
            lb = model.forward(b).numpy()
        np.testing.assert_allclose(la[0, :4], lb[0, :4], atol=1e-5)

    def test_loss_positive_and_near_uniform_at_init(self, model):
        ids = np.array([[1, 7, 8, 9]])
        targets = np.array([[7, 8, 9, 2]])
        loss = model.loss(ids, targets).item()
        assert 0 < loss < 2 * np.log(300)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(dim=10, n_heads=3)  # not divisible
        with pytest.raises(ValueError):
            ModelConfig(dim=12, n_heads=4)  # head_dim=3 odd, breaks RoPE

    def test_copy_is_independent(self, model):
        dup = model.copy()
        dup.tok_emb.weight.data += 1.0
        assert not np.allclose(dup.tok_emb.weight.data, model.tok_emb.weight.data)

    def test_param_count_reasonable(self, model):
        assert 5_000 <= model.num_parameters() < 200_000


class TestGeneration:
    def test_greedy_is_deterministic(self, engine, tok):
        ids = tok.encode("the river", bos=True)
        a = engine.generate_batch([ids], GenerationConfig(max_new_tokens=8))[0]
        b = engine.generate_batch([ids], GenerationConfig(max_new_tokens=8))[0]
        assert a == b

    def test_cache_matches_recompute(self, engine, model, tok):
        """Greedy with KV cache equals greedy recomputing from scratch."""
        prompt = tok.encode("the river", bos=True)
        fast = engine.generate_batch([prompt], GenerationConfig(max_new_tokens=6))[0]
        # Reference: recompute full forward each step.
        slow: list[int] = []
        ctx = list(prompt)
        with no_grad():
            for _ in range(6):
                logits = model.forward(np.asarray(ctx)).numpy()[0, -1]
                nxt = int(np.argmax(logits))
                if nxt == tok.special.eos_id:
                    break
                slow.append(nxt)
                ctx.append(nxt)
        assert fast == slow

    def test_sampling_needs_rng(self, engine):
        with pytest.raises(ValueError):
            engine.generate_batch(
                [[1, 2]], GenerationConfig(max_new_tokens=2, temperature=1.0)
            )

    def test_sampling_deterministic_given_rng(self, engine):
        cfg = GenerationConfig(max_new_tokens=5, temperature=0.8, top_k=10)
        a = engine.generate_batch([[1, 7, 8]], cfg, rng=derive_rng(3, "s"))[0]
        b = engine.generate_batch([[1, 7, 8]], cfg, rng=derive_rng(3, "s"))[0]
        assert a == b

    def test_empty_prompt_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.generate_batch([[]])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=0)
        with pytest.raises(ValueError):
            GenerationConfig(temperature=-1)


class TestChatFormat:
    def test_example_shapes_align(self, tok):
        chat = ChatFormat(tok)
        ids, targets = chat.example_ids("detect the race", "yes")
        assert ids.shape == targets.shape
        assert ids[0] == tok.special.bos_id

    def test_prompt_masked_answer_supervised(self, tok):
        chat = ChatFormat(tok)
        ids, targets = chat.example_ids("is this a race?", "no")
        prompt_len = len(chat.prompt_ids("is this a race?"))
        assert (targets[: prompt_len - 1] == chat.ignore_index).all()
        supervised = targets[prompt_len - 1 :]
        assert (supervised != chat.ignore_index).all()
        assert supervised[-1] == tok.special.eos_id

    def test_next_token_alignment(self, tok):
        chat = ChatFormat(tok)
        ids, targets = chat.example_ids("q", "a")
        # targets[t] should equal ids[t+1] wherever not masked.
        for t in range(len(ids) - 1):
            if targets[t] != chat.ignore_index:
                assert targets[t] == ids[t + 1]

    def test_input_text_included(self, tok):
        chat = ChatFormat(tok)
        with_input = chat.prompt_ids("classify", "some code here")
        without = chat.prompt_ids("classify")
        assert len(with_input) > len(without)


class TestPretraining:
    def test_pretraining_reduces_loss(self):
        cfg = ModelConfig(vocab_size=300, dim=16, n_layers=1, n_heads=2, hidden_dim=32, max_seq_len=64)
        pre = PretrainConfig(n_sentences=120, steps=40, batch_size=8, seq_len=32, lr=5e-3)
        _, _, losses = pretrain(cfg, pre)
        first = np.mean(losses[:5])
        last = np.mean(losses[-5:])
        assert last < first * 0.9

    def test_corpus_scaling(self):
        base = build_general_corpus(PretrainConfig(n_sentences=100, corpus_scale=1.0))
        bigger = build_general_corpus(PretrainConfig(n_sentences=100, corpus_scale=1.4))
        assert len(bigger) == 140 and len(base) == 100

    def test_corpus_contains_no_hpc_terms(self):
        corpus = " ".join(build_general_corpus(PretrainConfig(n_sentences=200)))
        for term in ("openmp", "pragma", "mlperf", "dataset", "race"):
            assert term not in corpus.lower()

    def test_corpus_deterministic(self):
        a = build_general_corpus(PretrainConfig(n_sentences=50))
        b = build_general_corpus(PretrainConfig(n_sentences=50))
        assert a == b
