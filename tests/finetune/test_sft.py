"""Tests for the SFT stack: dataset construction and the trainer's
ability to actually fit instruction data."""

import numpy as np
import pytest

from repro.datagen.schema import InstructionRecord
from repro.finetune import SFTConfig, SFTDataset, SFTTrainer
from repro.llm import CausalLM, ModelConfig
from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
from repro.nn import LoRAConfig
from repro.train import Fp16Config
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def tok():
    corpus = build_general_corpus(PretrainConfig(n_sentences=150))
    corpus += ["the race answer is yes", "the race answer is no"]
    return train_tokenizer_on(corpus, vocab_size=360)


def toy_records(n=12):
    recs = []
    for i in range(n):
        label = "yes" if i % 2 == 0 else "no"
        marker = "storm" if label == "yes" else "garden"
        recs.append(
            InstructionRecord(
                instruction=f"does the {marker} pattern {i} race?",
                output=label,
                task="datarace",
            )
        )
    return recs


class TestDataset:
    def test_left_truncation_keeps_answer(self, tok):
        long_instruction = "analyze this " + "word " * 300 + "is it racy?"
        rec = InstructionRecord(long_instruction, "yes", task="datarace")
        ds = SFTDataset([rec], tok, max_seq_len=48)
        ids, targets = ds.examples[0]
        assert len(ids) <= 48
        assert (targets != -100).sum() >= 1  # answer survived

    def test_validation(self, tok):
        with pytest.raises(ValueError):
            SFTDataset([], tok, max_seq_len=64)
        with pytest.raises(ValueError):
            SFTDataset(toy_records(2), tok, max_seq_len=4)


class TestTrainer:
    def _model_tok(self, tok):
        cfg = ModelConfig(vocab_size=360, dim=16, n_layers=1, n_heads=2,
                          hidden_dim=32, max_seq_len=128)
        return CausalLM(cfg, derive_rng(4, "sft-test"))

    def test_full_ft_fits_toy_task(self, tok):
        """Full fine-tuning must drive loss down hard on a memorisable set."""
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=5e-3, epochs=25, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=0))
        report = SFTTrainer(model, tok, cfg).train(toy_records(12))
        assert model.num_parameters(trainable_only=True) == model.num_parameters()
        assert np.mean(report.losses[-5:]) < 0.5 * np.mean(report.losses[:5])

    def test_lora_only_adapters_and_norms_train(self, tok):
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=1e-2, epochs=1, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=2))
        SFTTrainer(model, tok, cfg).train(toy_records(6))
        trainable = model.num_parameters(trainable_only=True)
        assert 0 < trainable < 0.5 * model.num_parameters()

    def test_fp16_training_runs(self, tok):
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=5e-3, epochs=2, batch_size=6, max_seq_len=128,
                        lora=LoRAConfig(rank=0), fp16=Fp16Config(enabled=True))
        report = SFTTrainer(model, tok, cfg).train(toy_records(6))
        assert report.steps > 0
        assert np.isfinite(report.mean_loss())

    def test_projects_only_supervised_positions(self, tok, monkeypatch):
        # Every SFT batch masks its prompts, so the LM head sees only
        # the answer positions (2-D rows), never a full (B, T) batch.
        shapes = []
        head = CausalLM.output_logits

        def spy(model, hidden):
            shapes.append(hidden.shape)
            return head(model, hidden)

        monkeypatch.setattr(CausalLM, "output_logits", spy)
        model = self._model_tok(tok)
        cfg = SFTConfig(lr=5e-3, epochs=1, batch_size=4, max_seq_len=128,
                        lora=LoRAConfig(rank=0))
        trainer = SFTTrainer(model, tok, cfg).trainer(toy_records(8))
        supervised = sum(int((t != -100).sum()) for _, t in trainer.source.examples)
        trainer.train()
        assert len(shapes) == trainer.config.max_steps == 2
        assert all(len(shape) == 2 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == supervised

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SFTConfig(epochs=0)

    def test_deterministic_given_seed(self, tok):
        losses = []
        for _ in range(2):
            model = self._model_tok(tok)
            cfg = SFTConfig(lr=5e-3, epochs=2, batch_size=6, max_seq_len=128,
                            lora=LoRAConfig(rank=0), seed=7)
            report = SFTTrainer(model, tok, cfg).train(toy_records(8))
            losses.append(report.losses)
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-5)
