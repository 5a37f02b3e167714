"""The causal LM: token embedding -> N transformer blocks -> RMSNorm ->
tied-embedding logits.  Architecture mirrors LLaMA at laptop scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import Embedding, RMSNorm, TransformerBlock
from repro.nn.attention import KVCache, RotaryEmbedding
from repro.nn.module import Module
from repro.tensor import Tensor, cross_entropy_logits


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of a causal LM.

    The defaults give a ~0.6M-parameter model that pretrains in seconds on
    CPU while retaining the full LLaMA architecture (RoPE, RMSNorm,
    SwiGLU, tied embeddings).
    """

    vocab_size: int = 512
    dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    hidden_dim: int = 176  # ~ 8/3 * dim, rounded like LLaMA
    max_seq_len: int = 256
    name: str = "tiny-llama-sim"
    tie_embeddings: bool = True

    def __post_init__(self) -> None:
        if self.dim % self.n_heads:
            raise ValueError("dim must be divisible by n_heads")
        if (self.dim // self.n_heads) % 2:
            raise ValueError("head dim must be even for RoPE")


class CausalLM(Module):
    """LLaMA-architecture autoregressive transformer."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.tok_emb = Embedding(config.vocab_size, config.dim, rng)
        self.rope = RotaryEmbedding(config.dim // config.n_heads, config.max_seq_len)
        for i in range(config.n_layers):
            setattr(
                self,
                f"block{i}",
                TransformerBlock(config.dim, config.n_heads, config.hidden_dim, rng),
            )
        self.norm = RMSNorm(config.dim)
        if not config.tie_embeddings:
            from repro.nn import Linear

            self.lm_head = Linear(config.dim, config.vocab_size, rng)
        else:
            self.lm_head = None

    # -- caches -------------------------------------------------------------

    def new_caches(self, reserve: int = 0) -> list[KVCache]:
        """One empty KV cache per block (incremental decoding state).

        ``reserve`` hints the final sequence length so each cache's
        buffer allocates once instead of growing during decode.
        """
        caches = [KVCache() for _ in range(self.config.n_layers)]
        if reserve:
            for cache in caches:
                cache.reserve(reserve)
        return caches

    def _blocks(self) -> list[TransformerBlock]:
        return [getattr(self, f"block{i}") for i in range(self.config.n_layers)]

    # -- forward -------------------------------------------------------------

    def forward(
        self,
        ids: np.ndarray,
        caches: list[KVCache] | None = None,
        attn_mask: np.ndarray | None = None,
        positions: np.ndarray | None = None,
        q_tail: int | None = None,
        return_hidden: bool = False,
    ) -> Tensor:
        """Return logits of shape (B, T, vocab) — or (B, q_tail, vocab).

        Parameters
        ----------
        ids:
            Integer token ids, shape (B, T) (a single sequence may be
            passed as shape (T,)).
        caches:
            Optional per-layer KV caches for incremental decoding.
        attn_mask:
            Optional additive attention mask broadcastable to
            (B, H, T_q, T_k); defaults to causal.
        positions:
            Optional per-token absolute RoPE positions, shape (B, T) or
            (T,) — used by the batched engine for left-padded rows with
            per-sequence lengths.
        q_tail:
            If set, only the last ``q_tail`` positions run through the
            final block's queries, the norm, and the LM head.  Next-token
            scoring and prefill need just the last position's logits, and
            this prunes the largest per-token costs of producing them.
            KV caches (when given) still record every position.
        return_hidden:
            Return the final *normed hidden states* (B, T, dim) instead
            of logits, skipping the LM head.  The training engine uses
            this to project only supervised positions through the head
            (see :meth:`output_logits`) — SFT supervises a small tail of
            each row, so the full-T head matmul is mostly wasted there.
        """
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        x = self.tok_emb(ids)
        blocks = self._blocks()
        layer_caches = caches if caches is not None else [None] * len(blocks)
        last = len(blocks) - 1
        for i, (block, cache) in enumerate(zip(blocks, layer_caches)):
            x = block(
                x,
                self.rope,
                cache=cache,
                attn_mask=attn_mask,
                positions=positions,
                q_tail=q_tail if i == last else None,
            )
        x = self.norm(x)
        if return_hidden:
            return x
        return self.output_logits(x)

    def output_logits(self, hidden: Tensor) -> Tensor:
        """Project hidden states (..., dim) to vocab logits — the LM
        head, exposed so callers can apply it to a subset of positions."""
        if self.lm_head is not None:
            return self.lm_head(hidden)
        return hidden @ self.tok_emb.weight.T

    def loss(
        self, ids: np.ndarray, targets: np.ndarray, ignore_index: int = -100
    ) -> Tensor:
        """Mean next-token cross-entropy; ``targets`` already shifted."""
        logits = self.forward(ids)
        return cross_entropy_logits(logits, targets, ignore_index=ignore_index)

    # -- convenience --------------------------------------------------------------

    def copy(self) -> "CausalLM":
        """Deep copy (new parameter arrays, same values)."""
        import copy as _copy

        dup = CausalLM(self.config, np.random.default_rng(0))
        dup.load_state_dict(self.state_dict())
        dup.config = _copy.deepcopy(self.config)
        return dup
