"""Inference throughput: the batching lever, measured.

Times the two engine workloads every consumer runs, over real Table-5
race prompts:

* **generation** (batched prefill + incremental decode): tokens/sec at
  batch width 1 vs 16 — decode steps are tiny-matmul dispatch-bound
  work, so micro-batching 16 rows amortises nearly all of it;
* **margin scoring** (``logit(" yes") - logit(" no")``): margins/sec for
  the pre-engine *sequential path* (one full forward per prompt, all
  positions through the LM head — what per-prompt margin scoring did
  before the engine existed), vs the engine at batch 1 and batch 16.

Margin prefill at these prompt lengths is bandwidth-bound single-core
compute, so its batched ceiling is architectural: the sequential path
pays (n_layers full + full-T head) per prompt while the batched path
cannot go below (n_layers - 1 full layers) — about 2.3x for the 2-layer
presets here; more cores move that ceiling, more batch width does not.

Writes ``benchmarks/out/BENCH_inference.json`` so the perf trajectory is
tracked from this PR onward.  Defaults to the small preset; set
``REPRO_BENCH_PRESET=paper`` for the full bench configuration.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from _shared import OUT_DIR, write_out
from repro.core import HPCGPTSystem, PAPER_PRESET, SMALL_PRESET
from repro.datagen.prompts import race_instruction
from repro.drb import DRBSuite
from repro.llm import GenerationConfig, InferenceEngine
from repro.tensor import no_grad

N_PROMPTS = 32
BIG_BATCH = 16
MAX_NEW_TOKENS = 16
REPEATS = 3


def _rate(n_items: int, fn) -> float:
    fn()  # warm
    start = time.perf_counter()
    for _ in range(REPEATS):
        fn()
    return REPEATS * n_items / (time.perf_counter() - start)


def main() -> None:
    cfg = PAPER_PRESET if os.environ.get("REPRO_BENCH_PRESET") == "paper" else SMALL_PRESET
    system = HPCGPTSystem(cfg)
    # The pretrained base suffices for throughput (SFT changes weights,
    # not FLOPs) and keeps the bench warm-up to seconds.
    model = system.registry.base_model("llama2-13b-sim")
    engine = InferenceEngine(model, system.tokenizer)

    suite = DRBSuite.evaluation(seed=0)
    specs = [s for s in suite.by_language("C/C++") if "oversize" not in s.features]
    specs = specs[:N_PROMPTS]
    instructions = [race_instruction(s.source, s.language) for s in specs]
    prompts = [engine.chat.prompt_ids(i) for i in instructions]
    limit = model.config.max_seq_len - 1
    prompts = [p[-limit:] if len(p) > limit else p for p in prompts]

    # -- margin scoring ------------------------------------------------------

    def sequential_margins() -> None:
        # The pre-engine path: one full forward per prompt, every
        # position through the final block and the LM head.
        with no_grad():
            for p in prompts:
                model.forward(np.asarray(p)).numpy()[0, -1]

    margins_seq = _rate(len(prompts), sequential_margins)
    margins_b1 = _rate(len(prompts), lambda: engine.next_token_logits(prompts, batch_size=1))
    margins_b16 = _rate(
        len(prompts), lambda: engine.next_token_logits(prompts, batch_size=BIG_BATCH)
    )

    # -- generation ----------------------------------------------------------

    gen_cfg = GenerationConfig(max_new_tokens=MAX_NEW_TOKENS, stop_at_eos=False)
    n_tokens = sum(len(o) for o in engine.generate_many(prompts, gen_cfg, batch_size=BIG_BATCH))
    tokens_b1 = _rate(n_tokens, lambda: engine.generate_many(prompts, gen_cfg, batch_size=1))
    tokens_b16 = _rate(
        n_tokens, lambda: engine.generate_many(prompts, gen_cfg, batch_size=BIG_BATCH)
    )

    payload = {
        "preset": cfg.model.name,
        "model": {
            "dim": cfg.model.dim,
            "n_layers": cfg.model.n_layers,
            "n_heads": cfg.model.n_heads,
            "max_seq_len": cfg.model.max_seq_len,
        },
        "n_prompts": len(prompts),
        "max_new_tokens": MAX_NEW_TOKENS,
        "margins_per_sec": {
            "sequential_path": margins_seq,
            "batch_1": margins_b1,
            f"batch_{BIG_BATCH}": margins_b16,
        },
        "tokens_per_sec": {"batch_1": tokens_b1, f"batch_{BIG_BATCH}": tokens_b16},
        "speedup": {
            "margins_batched_vs_sequential": margins_b16 / margins_seq,
            "margins_batch16_vs_batch1": margins_b16 / margins_b1,
            "generation": tokens_b16 / tokens_b1,
        },
    }
    (OUT_DIR / "BENCH_inference.json").write_text(json.dumps(payload, indent=1) + "\n")

    write_out(
        "bench_inference_throughput.txt",
        "\n".join(
            [
                f"Inference throughput ({cfg.model.name}, {len(prompts)} Table-5 prompts)",
                f"  margins/sec   sequential: {margins_seq:8.2f}   "
                f"engine b1: {margins_b1:8.2f}   engine b{BIG_BATCH}: {margins_b16:8.2f}",
                f"                batched-vs-sequential speedup: "
                f"{payload['speedup']['margins_batched_vs_sequential']:.2f}x "
                f"(single-core ceiling ~2.3x for a 2-layer model; see module docstring)",
                f"  tokens/sec    batch=1: {tokens_b1:8.2f}   "
                f"batch={BIG_BATCH}: {tokens_b16:8.2f}   "
                f"speedup: {payload['speedup']['generation']:.2f}x",
                f"  artifact: {OUT_DIR / 'BENCH_inference.json'}",
            ]
        ),
    )


if __name__ == "__main__":
    main()
