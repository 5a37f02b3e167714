"""The supervised fine-tuning trainer (paper §3.5 / §4.1).

Recipe knobs mirror the paper: constant learning rate (2e-5 on the real
13B models; scaled up for the tiny substrate), batch size 16, LoRA with
PEFT semantics (base frozen, adapters trained), fp16 simulation, and
gradient clipping.

The loop itself is the unified :class:`repro.train.Trainer`, batching
is :class:`repro.train.PaddedExampleSource` (length-bucketed), and
:meth:`SFTTrainer.train` returns the engine's
:class:`repro.train.TrainReport` unchanged.  This module owns only the
SFT-specific parts: LoRA application and the chat-formatted dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.schema import InstructionRecord
from repro.finetune.dataset import SFTDataset
from repro.llm.model import CausalLM
from repro.nn import LoRAConfig, apply_lora
from repro.tokenizer import BPETokenizer
from repro.train import (
    Fp16Config,
    PaddedExampleSource,
    Trainer,
    TrainerConfig,
    TrainReport,
)
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class SFTConfig:
    """Fine-tuning hyper-parameters."""

    lr: float = 5e-3  # tiny-model scale; the paper used 2e-5 at 13B
    epochs: int = 4
    batch_size: int = 16
    max_seq_len: int = 448
    lora: LoRAConfig = field(default_factory=lambda: LoRAConfig(rank=4))
    fp16: Fp16Config = field(default_factory=Fp16Config)
    schedule: str = "constant"  # the paper trains at a constant LR
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


class SFTTrainer:
    """Fine-tunes a model in place on instruction records."""

    def __init__(
        self, model: CausalLM, tokenizer: BPETokenizer, config: SFTConfig | None = None
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.config = config or SFTConfig()

    def trainer(
        self,
        records: list[InstructionRecord],
        checkpoint_every: int = 0,
        checkpoint_path: str | None = None,
    ) -> Trainer:
        """Apply LoRA and assemble (but do not run) the unified
        :class:`repro.train.Trainer` for ``records`` — the CLI and
        benchmarks hook callbacks / resume through this."""
        cfg = self.config
        model = self.model

        lora_rng = derive_rng(cfg.seed, "sft/lora")
        wrapped = apply_lora(model, cfg.lora, lora_rng)
        if cfg.lora.rank > 0 and not wrapped:
            raise RuntimeError("LoRA requested but no target modules matched")

        max_len = min(cfg.max_seq_len, model.config.max_seq_len)
        dataset = SFTDataset(records, self.tokenizer, max_seq_len=max_len)
        source = PaddedExampleSource(
            dataset.examples,
            cfg.batch_size,
            pad_id=self.tokenizer.special.pad_id,
            ignore_index=dataset.ignore_index,
            seed=cfg.seed,
            scope="sft/batches",
        )
        tcfg = TrainerConfig(
            max_steps=cfg.epochs * source.steps_per_epoch,
            lr=cfg.lr,
            schedule=cfg.schedule,
            warmup_steps=cfg.warmup_steps,
            fp16=cfg.fp16,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        return Trainer(model, source, tcfg)

    def train(
        self,
        records: list[InstructionRecord],
        resume_from: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_path: str | None = None,
    ) -> TrainReport:
        trainer = self.trainer(
            records, checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path
        )
        return trainer.train(resume_from=resume_from)
