"""Neural-network layer library over :mod:`repro.tensor`.

Provides the modules a LLaMA-architecture causal LM needs (token
embedding, RMSNorm, rotary-position multi-head attention, SwiGLU MLP),
plus LoRA adapters for parameter-efficient fine-tuning, the AdamW
optimizer, LR schedules, and checkpoint (de)serialization.
"""

from repro.nn.module import Module, Parameter, ParameterDict
from repro.nn.layers import Embedding, Linear, RMSNorm
from repro.nn.attention import (
    KVCache,
    MultiHeadAttention,
    RotaryEmbedding,
    causal_mask,
    padding_causal_mask,
)
from repro.nn.transformer import SwiGLU, TransformerBlock
from repro.nn.lora import LoRAConfig, LoRALinear, apply_lora, lora_state, merge_lora
from repro.nn.optim import AdamW, GradClipper, Optimizer
from repro.nn.schedule import ConstantLR, CosineLR, LinearWarmupCosine
from repro.nn.serialization import atomic_savez, load_state, save_state, state_dict_to_bytes

__all__ = [
    "Module",
    "Parameter",
    "ParameterDict",
    "Embedding",
    "Linear",
    "RMSNorm",
    "KVCache",
    "MultiHeadAttention",
    "RotaryEmbedding",
    "causal_mask",
    "padding_causal_mask",
    "SwiGLU",
    "TransformerBlock",
    "LoRAConfig",
    "LoRALinear",
    "apply_lora",
    "lora_state",
    "merge_lora",
    "Optimizer",
    "AdamW",
    "GradClipper",
    "ConstantLR",
    "CosineLR",
    "LinearWarmupCosine",
    "atomic_savez",
    "save_state",
    "load_state",
    "state_dict_to_bytes",
]
