"""The unified training engine (the training-side sibling of
:class:`repro.llm.engine.InferenceEngine`).

One :class:`Trainer` is the only training loop in the repo: base-model
pretraining, supervised fine-tuning, and §5 continual updates all wire
through it with different data sources and configs.  It is one recipe —
AdamW, global-norm clipping at 1.0, an LR schedule
(:mod:`repro.nn.schedule`), optional fp16 — and checkpointable: an
interrupted run resumes bit-exactly from a :mod:`repro.train.checkpoint`
file.
"""

from repro.train.checkpoint import (
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.train.data import Batch, PaddedExampleSource, TokenStreamSource
from repro.train.fp16 import Fp16Config, LossScaler, round_to_fp16
from repro.train.trainer import (
    StepInfo,
    Trainer,
    TrainerConfig,
    TrainReport,
    make_schedule,
)

__all__ = [
    "Batch",
    "PaddedExampleSource",
    "TokenStreamSource",
    "Fp16Config",
    "LossScaler",
    "round_to_fp16",
    "StepInfo",
    "Trainer",
    "TrainerConfig",
    "TrainReport",
    "make_schedule",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
]
