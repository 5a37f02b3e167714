"""Checkpoint/resume parity: a run resumed from a mid-run checkpoint
must be *bit-identical* to the uninterrupted run — weights, optimizer
moments, data-RNG trajectory, and loss curve."""

import json

import numpy as np
import pytest

from repro.finetune import SFTConfig, SFTTrainer
from repro.llm import CausalLM, ModelConfig
from repro.nn import LoRAConfig
from repro.train import (
    Fp16Config,
    PaddedExampleSource,
    TokenStreamSource,
    Trainer,
    TrainerConfig,
    read_checkpoint_meta,
)
from repro.utils.rng import derive_rng

CFG = ModelConfig(vocab_size=90, dim=16, n_layers=1, n_heads=2,
                  hidden_dim=32, max_seq_len=48)


def make_rows():
    rng = derive_rng(3, "tests/train/ck-rows")
    return rng.integers(0, CFG.vocab_size, size=(50, 17)).astype(np.int64)


def make_examples(n=13):
    rng = derive_rng(3, "tests/train/ck-ex")
    out = []
    for _ in range(n):
        length = int(rng.integers(4, 40))
        ids = rng.integers(1, CFG.vocab_size, size=length).astype(np.int64)
        targets = ids.copy()
        targets[: length // 2] = -100
        out.append((ids, targets))
    return out


def rewrite_meta(path, **changes):
    """Edit the JSON document of a checkpoint file in place."""
    with np.load(path, allow_pickle=False) as npz:
        payload = {key: npz[key] for key in npz.files}
    doc = json.loads(str(payload["__train_json__"][()]))
    doc.update(changes)
    payload["__train_json__"] = np.asarray(json.dumps(doc))
    np.savez_compressed(path, **payload)


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key], err_msg=key)


class TestStreamResume:
    def _trainer(self, **overrides):
        kwargs = dict(max_steps=14, lr=2e-3, schedule="cosine")
        kwargs.update(overrides)
        model = CausalLM(CFG, derive_rng(0, "tests/train/ck-model"))
        source = TokenStreamSource(make_rows(), 4, seed=0)
        return Trainer(model, source, TrainerConfig(**kwargs))

    def test_resume_is_bit_identical(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        full = self._trainer()
        full_report = full.train()

        part = self._trainer(checkpoint_every=5, checkpoint_path=ck)
        part.train()  # periodic saves at steps 5 and 10

        resumed = self._trainer()
        resumed_report = resumed.train(resume_from=ck)
        assert resumed_report.resumed_from_step == 10
        assert resumed_report.losses == full_report.losses
        assert_states_equal(full.model.state_dict(), resumed.model.state_dict())
        assert_states_equal(full.optimizer.state_dict(), resumed.optimizer.state_dict())

    def test_resumes_checkpoint_with_top_level_skip_count(self, tmp_path):
        # Older checkpoints also carried a top-level copy of the
        # scaler's skipped-step count; it is ignored, not required.
        ck = str(tmp_path / "ck.npz")
        full_report = self._trainer().train()
        self._trainer(checkpoint_every=5, checkpoint_path=ck).train()
        assert "skipped_steps" not in read_checkpoint_meta(ck)
        rewrite_meta(ck, skipped_steps=0)
        assert self._trainer().train(resume_from=ck).losses == full_report.losses

    def test_meta_readable_without_arrays(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        trainer = self._trainer(checkpoint_every=5, checkpoint_path=ck)
        trainer.train()
        meta = read_checkpoint_meta(ck)
        assert meta["step"] == 10
        assert meta["optimizer"] == "AdamW"
        assert meta["source"]["kind"] == "stream"

    def test_optimizer_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        self._trainer(checkpoint_every=5, checkpoint_path=ck).train()
        rewrite_meta(ck, optimizer="SGD")
        with pytest.raises(ValueError, match="written with SGD"):
            self._trainer().train(resume_from=ck)

    def test_checkpoint_beyond_max_steps_rejected(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        self._trainer(checkpoint_every=5, checkpoint_path=ck).train()  # step 10
        short = self._trainer(max_steps=8)
        with pytest.raises(ValueError, match="beyond max_steps"):
            short.train(resume_from=ck)

    def test_no_tmp_file_left_behind(self, tmp_path):
        ck = str(tmp_path / "ck.npz")
        self._trainer(checkpoint_every=5, checkpoint_path=ck).train()
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ck.npz"]
        assert leftovers == []


class TestExampleSourceResume:
    """SFT-style resume: bucketed batches, fp16 scaling, mid-epoch."""

    def _trainer(self, ck=None, every=0):
        model = CausalLM(CFG, derive_rng(1, "tests/train/ck-sft"))
        source = PaddedExampleSource(make_examples(), batch_size=4, seed=2)
        return Trainer(
            model, source,
            TrainerConfig(max_steps=11, lr=2e-3, fp16=Fp16Config(enabled=True),
                          checkpoint_every=every, checkpoint_path=ck),
        )

    def test_mid_epoch_resume_bit_identical(self, tmp_path):
        ck = str(tmp_path / "sft.npz")
        full = self._trainer()
        full_report = full.train()
        # 13 examples / batch 4 => 4 steps per epoch; step 6 is mid-epoch.
        self._trainer(ck=ck, every=6).train()
        resumed = self._trainer()
        resumed_report = resumed.train(resume_from=ck)
        assert resumed_report.resumed_from_step == 6
        assert resumed_report.losses == full_report.losses
        assert_states_equal(full.model.state_dict(), resumed.model.state_dict())


class TestSFTTrainerResume:
    """The SFT wrapper exposes checkpoint/resume end to end."""

    SFT_CFG = ModelConfig(vocab_size=330, dim=16, n_layers=1, n_heads=2,
                          hidden_dim=32, max_seq_len=64)

    def _fresh(self):
        from repro.llm.pretrain import PretrainConfig, build_general_corpus, train_tokenizer_on
        from repro.datagen.schema import InstructionRecord

        corpus = build_general_corpus(PretrainConfig(n_sentences=120))
        tok = train_tokenizer_on(corpus, vocab_size=330)
        records = [
            InstructionRecord(f"does pattern {i} race?", "yes" if i % 2 else "no",
                              task="datarace")
            for i in range(10)
        ]
        model = CausalLM(self.SFT_CFG, derive_rng(5, "tests/train/sft-wrapper"))
        return model, tok, records

    def test_sft_resume_matches_uninterrupted(self, tmp_path):
        cfg = SFTConfig(lr=3e-3, epochs=3, batch_size=4, max_seq_len=64,
                        lora=LoRAConfig(rank=0), seed=1)
        model_a, tok, records = self._fresh()
        stats_full = SFTTrainer(model_a, tok, cfg).train(records)

        ck = str(tmp_path / "sft-wrap.npz")
        model_b, tok_b, _ = self._fresh()
        SFTTrainer(model_b, tok_b, cfg).train(
            records, checkpoint_every=4, checkpoint_path=ck
        )
        model_c, tok_c, _ = self._fresh()
        stats_res = SFTTrainer(model_c, tok_c, cfg).train(records, resume_from=ck)
        assert stats_res.losses == stats_full.losses
        assert_states_equal(model_a.state_dict(), model_c.state_dict())
