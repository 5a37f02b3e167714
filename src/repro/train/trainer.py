"""The unified training engine: one checkpointable, schedulable loop.

Every training workload in the repo — base-model pretraining
(:func:`repro.llm.pretrain.pretrain`), supervised fine-tuning
(:class:`repro.finetune.SFTTrainer`), and §5 continual updates
(:meth:`repro.core.HPCGPTSystem.update_with`) — delegates here, the
same way every decode path delegates to
:class:`repro.llm.engine.InferenceEngine`.

The loop composes the pluggable pieces:

* a **data source** (:mod:`repro.train.data`) with serialisable RNG
  position;
* **AdamW** with ``state_dict`` moments;
* an **LR schedule** (:mod:`repro.nn.schedule` — constant, cosine, or
  linear-warmup cosine), evaluated every step;
* **fp16 loss scaling** (:mod:`repro.train.fp16`) and global-norm
  clipping at 1.0;
* the **fused cross-entropy** objective
  (:func:`repro.tensor.fused_cross_entropy`), which never materialises
  the full log-prob matrix — and, when a batch masks any target, runs
  the LM head over the supervised positions only;
* periodic :mod:`repro.train.checkpoint` files, from which
  :meth:`Trainer.train` resumes *bit-exactly*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.nn.module import Module
from repro.nn.optim import AdamW, GradClipper
from repro.nn.schedule import ConstantLR, CosineLR, LinearWarmupCosine
from repro.tensor import fused_cross_entropy, take_rows
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.fp16 import Fp16Config, LossScaler, round_to_fp16

SCHEDULES = ("constant", "cosine", "warmup-cosine")


@dataclass(frozen=True)
class TrainerConfig:
    """Everything the loop needs beyond model + data."""

    max_steps: int
    lr: float
    weight_decay: float = 0.0
    schedule: str = "constant"
    warmup_steps: int = 0
    fp16: Fp16Config = field(default_factory=lambda: Fp16Config(enabled=False))
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; have {SCHEDULES}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_path:
            raise ValueError("checkpoint_every requires checkpoint_path")


def make_schedule(config: TrainerConfig):
    """Instantiate the :mod:`repro.nn.schedule` object for ``config``."""
    if config.schedule == "constant":
        return ConstantLR(config.lr)
    if config.schedule == "cosine":
        return CosineLR(config.lr, total_steps=config.max_steps)
    return LinearWarmupCosine(
        config.lr, warmup_steps=config.warmup_steps, total_steps=config.max_steps
    )


@dataclass(frozen=True)
class StepInfo:
    """What a callback sees after each loop iteration."""

    step: int  # 0-based loop index
    loss: float
    lr: float
    skipped: bool  # fp16 overflow: gradients discarded, no update


@dataclass
class TrainReport:
    """Outcome of one :meth:`Trainer.train` call."""

    losses: list[float] = field(default_factory=list)
    steps: int = 0  # applied optimizer steps
    skipped_steps: int = 0
    tokens: int = 0  # tokens forwarded (for throughput accounting)
    seconds: float = 0.0
    resumed_from_step: int = 0

    def mean_loss(self, last: int = 20) -> float:
        tail = self.losses[-last:] if self.losses else [float("nan")]
        return float(np.mean(tail))


class Trainer:
    """Drives ``model`` over ``source`` for ``config.max_steps`` steps.

    Parameters
    ----------
    model:
        A :class:`repro.llm.CausalLM` (``forward(ids, return_hidden=...)``
        and ``output_logits``); only its *trainable* parameters are
        optimised (so LoRA-wrapped models train just the adapters).
    source:
        A data source from :mod:`repro.train.data` (or anything with
        ``next_batch()`` / ``state_dict()`` / ``load_state_dict()``).
    callbacks:
        Callables invoked with a :class:`StepInfo` after every loop
        iteration (applied or skipped).
    """

    def __init__(
        self,
        model: Module,
        source,
        config: TrainerConfig,
        callbacks: list[Callable[[StepInfo], None]] | None = None,
    ) -> None:
        self.model = model
        self.source = source
        self.config = config
        self.callbacks = list(callbacks or [])
        self.params = model.trainable_parameters()
        self.optimizer = AdamW(
            self.params, lr=config.lr, weight_decay=config.weight_decay
        )
        self.schedule = make_schedule(config)
        self.scaler = LossScaler(config.fp16)
        self.clipper = GradClipper(1.0)
        # Mutable run state (also what checkpoints capture).
        self._step = 0
        self._losses: list[float] = []

    def _loss(self, batch):
        """Forward + objective for one batch.

        A batch that masks any target (SFT: prompt and pad positions)
        projects only its supervised positions through the LM head —
        the gradient is identical, since ignored positions contribute
        zero, but the head matmul shrinks to the answer spans.  A batch
        with no masked target (pretraining) runs the full head.  The
        ignore index travels with the batch (set by the data source),
        so non-default masking works on both paths."""
        flat_targets = batch.targets.reshape(-1)
        supervised = flat_targets != batch.ignore_index
        if not supervised.all():
            idx = np.nonzero(supervised)[0]
            hidden = self.model.forward(batch.ids, return_hidden=True)
            b, t, d = hidden.shape
            # nonzero yields unique indices, so the fast-gather op's
            # plain-add backward applies (no np.add.at scatter).
            picked = take_rows(hidden.reshape(b * t, d), idx)
            logits = self.model.output_logits(picked)
            return fused_cross_entropy(
                logits, flat_targets[idx], ignore_index=batch.ignore_index
            )
        logits = self.model.forward(batch.ids)
        return fused_cross_entropy(
            logits, batch.targets, ignore_index=batch.ignore_index
        )

    # -- checkpointing -------------------------------------------------------

    def save_checkpoint(self, path: str, extra: dict | None = None) -> None:
        """Snapshot the complete run state (resume with ``resume_from``)."""
        save_checkpoint(
            path,
            self.model,
            self.optimizer,
            self.source,
            self.scaler,
            step=self._step,
            losses=self._losses,
            extra=extra,
        )

    def _restore(self, path: str) -> None:
        meta = load_checkpoint(
            path, self.model, self.optimizer, self.source, self.scaler
        )
        self._step = meta["step"]
        self._losses = list(meta["losses"])
        if self._step > self.config.max_steps:
            raise ValueError(
                f"checkpoint at step {self._step} is beyond max_steps "
                f"{self.config.max_steps}"
            )

    # -- the loop ------------------------------------------------------------

    def train(self, resume_from: str | None = None) -> TrainReport:
        cfg = self.config
        report = TrainReport()
        if resume_from is not None:
            self._restore(resume_from)
            report.resumed_from_step = self._step
        model, params = self.model, self.params
        model.train()
        t0 = time.perf_counter()
        for step in range(self._step, cfg.max_steps):
            lr = self.schedule(step)
            self.optimizer.lr = lr
            self.optimizer.zero_grad()
            batch = self.source.next_batch()
            loss = self._loss(batch)
            loss.backward(np.asarray(self.scaler.loss_factor(), dtype=np.float32))
            step_loss = loss.item()
            report.tokens += batch.n_tokens
            skipped = not self.scaler.unscale_and_check(params)
            if not skipped:
                self.clipper.clip(params)
                self.optimizer.step()
                if cfg.fp16.enabled:
                    round_to_fp16(model, trainable_only=True)
                self._losses.append(step_loss)
            self._step = step + 1
            for cb in self.callbacks:
                cb(StepInfo(step=step, loss=step_loss, lr=lr, skipped=skipped))
            if (
                cfg.checkpoint_every
                and self._step % cfg.checkpoint_every == 0
                and self._step < cfg.max_steps
            ):
                self.save_checkpoint(cfg.checkpoint_path)
        report.seconds = time.perf_counter() - t0
        report.losses = list(self._losses)
        report.steps = len(self._losses)
        report.skipped_steps = self.scaler.skipped
        model.eval()
        return report
