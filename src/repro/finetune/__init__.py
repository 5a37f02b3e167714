"""Supervised fine-tuning (Figure 1, stage 2).

Implements the paper's training recipe at laptop scale: instruction SFT
with LoRA adapters (PEFT — only adapter parameters train), fp16
mixed-precision simulation with loss scaling, AdamW at a constant
learning rate, gradient clipping, and checkpointing.  The loop, the
fp16 simulation and the batching live in :mod:`repro.train`; this
package owns the chat-formatted dataset and the LoRA wiring.
"""

from repro.finetune.dataset import SFTDataset
from repro.finetune.sft import SFTConfig, SFTTrainer

__all__ = [
    "SFTDataset",
    "SFTConfig",
    "SFTTrainer",
]
