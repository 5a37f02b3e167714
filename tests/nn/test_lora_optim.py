"""Tests for LoRA adapters, AdamW and grad clipping, schedules, and serialization."""

import numpy as np
import pytest

from repro.nn import (
    AdamW,
    ConstantLR,
    CosineLR,
    GradClipper,
    Linear,
    LinearWarmupCosine,
    LoRAConfig,
    LoRALinear,
    Module,
    apply_lora,
    load_state,
    lora_state,
    merge_lora,
    save_state,
)
from repro.tensor import Tensor
from repro.utils.rng import derive_rng

RNG = derive_rng(7, "tests/lora")


def randn(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class ToyAttn(Module):
    def __init__(self):
        super().__init__()
        self.wq = Linear(8, 8, RNG)
        self.wk = Linear(8, 8, RNG)

    def forward(self, x):
        return self.wq(x) + self.wk(x)


class ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.attn = ToyAttn()
        self.out = Linear(8, 2, RNG)

    def forward(self, x):
        return self.out(self.attn(x))


class TestLoRA:
    def test_initial_function_unchanged(self):
        base = Linear(8, 8, RNG)
        x = Tensor(randn(3, 8))
        before = base(x).numpy().copy()
        wrapped = LoRALinear(base, LoRAConfig(rank=2), RNG)
        np.testing.assert_allclose(wrapped(x).numpy(), before, atol=1e-6)

    def test_base_frozen_adapters_trainable(self):
        wrapped = LoRALinear(Linear(8, 8, RNG), LoRAConfig(rank=2), RNG)
        trainable = {n for n, p in wrapped.named_parameters() if p.requires_grad}
        assert trainable == {"lora_a", "lora_b"}

    def test_apply_lora_targets_only_matching(self):
        model = ToyModel()
        wrapped = apply_lora(model, LoRAConfig(rank=2, target_modules=("attn.wq",)), RNG)
        assert wrapped == ["attn.wq"]
        assert isinstance(model.attn.wq, LoRALinear)
        assert isinstance(model.attn.wk, Linear)
        # Everything except adapters is frozen.
        names = {n for n, p in model.named_parameters() if p.requires_grad}
        assert names == {"attn.wq.lora_a", "attn.wq.lora_b"}

    def test_rank_zero_is_noop(self):
        model = ToyModel()
        assert apply_lora(model, LoRAConfig(rank=0), RNG) == []
        assert model.num_parameters(trainable_only=True) == model.num_parameters()

    def test_merge_lora_preserves_function(self):
        model = ToyModel()
        apply_lora(model, LoRAConfig(rank=2, target_modules=("wq", "wk")), RNG)
        # Perturb the adapters so the merge is non-trivial.
        model.attn.wq.lora_b.data += 0.3 * randn(8, 2)
        x = Tensor(randn(4, 8))
        before = model(x).numpy().copy()
        n = merge_lora(model)
        assert n == 2
        assert isinstance(model.attn.wq, Linear)
        np.testing.assert_allclose(model(x).numpy(), before, atol=1e-5)

    def test_lora_state_extracts_adapters(self):
        model = ToyModel()
        apply_lora(model, LoRAConfig(rank=2, target_modules=("wq",)), RNG)
        st = lora_state(model)
        assert set(st) == {"attn.wq.lora_a", "attn.wq.lora_b"}

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LoRAConfig(rank=-1)
        with pytest.raises(ValueError):
            LoRAConfig(alpha=0)
        with pytest.raises(ValueError):
            LoRALinear(Linear(4, 4, RNG), LoRAConfig(rank=0), RNG)

    def test_lora_training_reduces_loss(self):
        model = ToyModel()
        apply_lora(model, LoRAConfig(rank=4, target_modules=("wq", "wk")), RNG)
        x = Tensor(randn(16, 8))
        y = randn(16, 2)
        opt = AdamW(model.trainable_parameters(), lr=1e-2)
        losses = []
        for _ in range(30):
            pred = model(x)
            loss = ((pred - Tensor(y)) ** 2).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.5 * losses[0]


class TestOptim:
    def _quadratic_min(self, opt_factory, steps=200):
        from repro.nn.module import Parameter

        p = Parameter(np.array([5.0, -3.0], dtype=np.float32))
        opt = opt_factory([p])
        for _ in range(steps):
            loss = (Tensor(p.data * 0) + p * p).sum() if False else (p * p).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        return p.data

    def test_adamw_converges(self):
        final = self._quadratic_min(lambda ps: AdamW(ps, lr=0.1))
        np.testing.assert_allclose(final, [0.0, 0.0], atol=1e-2)

    def test_adamw_weight_decay_shrinks(self):
        from repro.nn.module import Parameter

        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = AdamW([p], lr=0.01, weight_decay=0.5)
        # No gradient signal: decay alone shrinks the weight.
        for _ in range(10):
            (p * 0.0).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1.0

    def test_optimizer_validation(self):
        from repro.nn.module import Parameter

        p = Parameter(np.zeros(2))
        with pytest.raises(ValueError):
            AdamW([p], lr=0)
        with pytest.raises(ValueError):
            AdamW([p], lr=0.1, betas=(1.0, 0.999))
        p.requires_grad = False
        with pytest.raises(ValueError):
            AdamW([p], lr=0.1)

    def test_grad_clipper(self):
        from repro.nn.module import Parameter

        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        norm = GradClipper(1.0).clip([p])
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_grad_clipper_no_clip_below_threshold(self):
        from repro.nn.module import Parameter

        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 0.1, dtype=np.float32)
        GradClipper(10.0).clip([p])
        np.testing.assert_allclose(p.grad, 0.1)


class TestSchedules:
    def test_constant(self):
        assert ConstantLR(2e-5)(0) == ConstantLR(2e-5)(1000) == 2e-5

    def test_cosine_endpoints(self):
        sched = CosineLR(1.0, total_steps=100, min_lr=0.1)
        assert sched(0) == pytest.approx(1.0)
        assert sched(100) == pytest.approx(0.1)
        assert sched(50) == pytest.approx(0.55, abs=1e-6)

    def test_warmup_shape(self):
        sched = LinearWarmupCosine(1.0, warmup_steps=10, total_steps=100)
        assert sched(0) < sched(5) < sched(9)
        assert sched(9) <= 1.0
        assert sched(99) < sched(10)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CosineLR(1.0, total_steps=0)
        with pytest.raises(ValueError):
            LinearWarmupCosine(1.0, warmup_steps=10, total_steps=10)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        a, b = ToyModel(), ToyModel()
        save_state(a, tmp_path / "ckpt.npz", extra={"step": 42})
        meta = load_state(b, tmp_path / "ckpt.npz")
        assert int(meta["step"]) == 42
        np.testing.assert_array_equal(a.out.weight.data, b.out.weight.data)

    def test_meta_key_never_clobbers_parameter(self, tmp_path):
        # Metadata is namespaced with a __meta__ prefix, so even a key equal
        # to a parameter name round-trips without touching weights.
        a, b = ToyModel(), ToyModel()
        save_state(a, tmp_path / "x.npz", extra={"attn.wq.weight": 7})
        meta = load_state(b, tmp_path / "x.npz")
        assert int(meta["attn.wq.weight"]) == 7
        np.testing.assert_array_equal(a.attn.wq.weight.data, b.attn.wq.weight.data)
