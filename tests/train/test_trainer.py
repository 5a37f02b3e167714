"""Tests for the unified Trainer: fitting, schedules, the LM-head path,
callbacks, skipped steps, and config validation."""

import numpy as np
import pytest

from repro.llm import CausalLM, ModelConfig
from repro.nn import AdamW
from repro.nn.schedule import ConstantLR, CosineLR, LinearWarmupCosine
from repro.train import (
    Fp16Config,
    PaddedExampleSource,
    StepInfo,
    TokenStreamSource,
    Trainer,
    TrainerConfig,
    make_schedule,
)
from repro.utils.rng import derive_rng

CFG = ModelConfig(vocab_size=64, dim=16, n_layers=1, n_heads=2,
                  hidden_dim=32, max_seq_len=32)


def make_model(seed=0):
    return CausalLM(CFG, derive_rng(seed, "tests/train/model"))


def make_source(batch_size=4, seed=0):
    rng = derive_rng(7, "tests/train/data")
    rows = rng.integers(0, CFG.vocab_size, size=(60, 17)).astype(np.int64)
    return TokenStreamSource(rows, batch_size, seed=seed)


class TestTraining:
    def test_loss_decreases(self):
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=40, lr=3e-3))
        report = trainer.train()
        assert report.steps == 40
        assert np.mean(report.losses[-5:]) < np.mean(report.losses[:5])
        assert report.tokens == 40 * 4 * 16
        assert not trainer.model.training  # back to eval mode

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            trainer = Trainer(make_model(), make_source(),
                              TrainerConfig(max_steps=8, lr=1e-3))
            runs.append(trainer.train().losses)
        assert runs[0] == runs[1]

    def test_adamw_default(self):
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=1, lr=1e-3))
        assert isinstance(trainer.optimizer, AdamW)

    def test_callbacks_see_every_step(self):
        infos: list[StepInfo] = []
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=6, lr=1e-3),
                          callbacks=[infos.append])
        trainer.train()
        assert [i.step for i in infos] == list(range(6))
        assert all(np.isfinite(i.loss) and i.lr > 0 for i in infos)

    def test_fp16_rounds_weights(self):
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=3, lr=1e-3,
                                        fp16=Fp16Config(enabled=True)))
        trainer.train()
        for p in trainer.model.trainable_parameters():
            np.testing.assert_array_equal(
                p.data, p.data.astype(np.float16).astype(np.float32)
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in backward
    def test_skipped_steps_come_from_the_scaler(self):
        # An infinite loss scale overflows every gradient (and halving
        # keeps it infinite): each step is skipped, and the report
        # counts the scaler's skips.
        trainer = Trainer(make_model(), make_source(),
                          TrainerConfig(max_steps=3, lr=1e-3,
                                        fp16=Fp16Config(init_scale=np.inf)))
        report = trainer.train()
        assert report.steps == 0 and report.losses == []
        assert report.skipped_steps == trainer.scaler.skipped == 3

    def test_custom_ignore_index_equivalent_to_default(self):
        # The sparse supervised-only path must honour the source's
        # ignore index, not a hardcoded -100.
        rng = derive_rng(9, "tests/train/ignore")
        examples = []
        for _ in range(8):
            length = int(rng.integers(6, 20))
            ids = rng.integers(1, CFG.vocab_size, size=length).astype(np.int64)
            targets = ids.copy()
            targets[: length // 2] = -100
            examples.append((ids, targets))

        def run(ignore):
            exs = [(ids, np.where(t == -100, ignore, t)) for ids, t in examples]
            model = make_model(seed=2)
            src = PaddedExampleSource(exs, batch_size=4, ignore_index=ignore, seed=0)
            cfg = TrainerConfig(max_steps=4, lr=1e-3)
            return Trainer(model, src, cfg).train().losses

        assert run(-100) == run(-1)


class TestLossPath:
    """The trainer picks the LM-head path from each batch: only the
    supervised positions when the batch masks any target, the full
    forward otherwise."""

    @staticmethod
    def head_inputs(monkeypatch, source, steps=3):
        shapes = []
        head = CausalLM.output_logits

        def spy(model, hidden):
            shapes.append(hidden.shape)
            return head(model, hidden)

        monkeypatch.setattr(CausalLM, "output_logits", spy)
        batches = []
        next_batch = source.next_batch

        def record():
            batches.append(next_batch())
            return batches[-1]

        source.next_batch = record
        Trainer(make_model(), source, TrainerConfig(max_steps=steps, lr=1e-3)).train()
        return shapes, batches

    def test_stream_batches_take_the_full_forward(self, monkeypatch):
        shapes, batches = self.head_inputs(monkeypatch, make_source(batch_size=4))
        assert shapes == [(4, 16, CFG.dim)] * 3
        assert all(b.n_supervised == b.n_tokens for b in batches)

    def test_masked_batches_take_the_supervised_head(self, monkeypatch):
        rng = derive_rng(5, "tests/train/head")
        examples = []
        for _ in range(8):
            length = int(rng.integers(6, 20))
            ids = rng.integers(1, CFG.vocab_size, size=length).astype(np.int64)
            targets = ids.copy()
            targets[: length - 2] = -100  # a prompt, then a 2-token answer
            examples.append((ids, targets))
        source = PaddedExampleSource(examples, batch_size=4, seed=0)
        shapes, batches = self.head_inputs(monkeypatch, source)
        assert shapes == [(b.n_supervised, CFG.dim) for b in batches]
        assert all(b.n_supervised == 2 * b.ids.shape[0] for b in batches)


class TestSchedules:
    def test_constant_schedule(self):
        sched = make_schedule(TrainerConfig(max_steps=10, lr=2e-3))
        assert isinstance(sched, ConstantLR)
        assert sched(0) == sched(9) == 2e-3

    def test_cosine_decays_lr(self):
        lrs = []
        trainer = Trainer(
            make_model(), make_source(),
            TrainerConfig(max_steps=10, lr=1e-3, schedule="cosine"),
            callbacks=[lambda i: lrs.append(i.lr)],
        )
        assert isinstance(trainer.schedule, CosineLR)
        trainer.train()
        assert lrs[0] == pytest.approx(1e-3)
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] < lrs[0]

    def test_warmup_cosine_ramps_then_decays(self):
        lrs = []
        trainer = Trainer(
            make_model(), make_source(),
            TrainerConfig(max_steps=12, lr=1e-3, schedule="warmup-cosine",
                          warmup_steps=4),
            callbacks=[lambda i: lrs.append(i.lr)],
        )
        assert isinstance(trainer.schedule, LinearWarmupCosine)
        trainer.train()
        assert lrs[0] < lrs[3]  # warmup ramps up
        assert lrs[3] == pytest.approx(1e-3)
        assert lrs[-1] < lrs[4]  # cosine decays after warmup

    def test_schedule_drives_optimizer_lr(self):
        trainer = Trainer(
            make_model(), make_source(),
            TrainerConfig(max_steps=10, lr=1e-3, schedule="cosine"),
        )
        trainer.train()
        assert trainer.optimizer.lr == pytest.approx(trainer.schedule(9))


class TestValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=0, lr=1e-3)
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=1, lr=1e-3, schedule="step")
        with pytest.raises(ValueError):
            TrainerConfig(max_steps=1, lr=1e-3, checkpoint_every=5)
        # ``step % -2 == 0`` would checkpoint every 2 steps.
        with pytest.raises(ValueError, match="checkpoint_every"):
            TrainerConfig(max_steps=4, lr=1e-3, checkpoint_every=-2,
                          checkpoint_path="ck.npz")
