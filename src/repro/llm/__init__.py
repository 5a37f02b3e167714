"""Causal language models: configs, the LLaMA-style network, generation,
pretraining on a synthetic general-domain corpus, chat formatting, and a
model registry (the reproduction's stand-ins for LLaMA/LLaMA-2 13B).
"""

from repro.llm.model import CausalLM, ModelConfig
from repro.llm.engine import GenerationConfig, InferenceEngine, MicroBatcher
from repro.llm.chat import ChatFormat
from repro.llm.pretrain import PretrainConfig, build_general_corpus, pretrain
from repro.llm.registry import ModelRegistry

__all__ = [
    "CausalLM",
    "ModelConfig",
    "GenerationConfig",
    "InferenceEngine",
    "MicroBatcher",
    "ChatFormat",
    "PretrainConfig",
    "build_general_corpus",
    "pretrain",
    "ModelRegistry",
]
