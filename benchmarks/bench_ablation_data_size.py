"""E15 — instruction-dataset-size ablation.

The paper's pipeline collects 5.86k instances; this ablation asks how
much of that data the fine-tune actually needs by training on growing
fractions of the collected set and measuring held-out detection
accuracy.  Expected shape: accuracy grows (noisily) with data.
"""

import dataclasses

import numpy as np

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.detectors.llm_detector import race_margins
from repro.drb import DRBSuite
from repro.finetune import SFTTrainer
from repro.llm import InferenceEngine

from benchmarks._shared import write_out

FRACTIONS = (0.25, 1.0)


def _subset(records, fraction, rng):
    """Stratified subset: keep the task mix and yes/no balance."""
    by_group = {}
    for r in records:
        by_group.setdefault((r.task, r.output if r.task == "datarace" else ""), []).append(r)
    out = []
    for group in by_group.values():
        k = max(1, int(round(len(group) * fraction)))
        idx = rng.choice(len(group), size=k, replace=False)
        out.extend(group[i] for i in idx)
    return out


def test_data_size_ablation(benchmark):
    cfg = dataclasses.replace(SMALL_PRESET, use_cache=False)
    sys_ = HPCGPTSystem(cfg)
    records = sys_.collect_data().records
    base = sys_.registry.base_model("llama2-13b-sim")
    tok = sys_.tokenizer

    suite = DRBSuite.evaluation(seed=0)
    rng = np.random.default_rng(5)
    pool = [s for s in suite.by_language("C/C++") if "oversize" not in s.features]
    specs = list(rng.permutation(np.array(pool, dtype=object)))[:70]

    def run_fraction(fraction):
        sub = _subset(records, fraction, np.random.default_rng(11))
        model = base.copy()
        SFTTrainer(model, tok, cfg.sft).train(sub)
        thr = sys_._calibrate(model, sub, max_examples=80)
        margins = race_margins(
            InferenceEngine(model, tok), [(s.source, s.language) for s in specs]
        )
        ok = sum((m >= thr) == (s.label == "yes") for m, s in zip(margins, specs))
        return len(sub), ok / len(specs)

    results = benchmark.pedantic(
        lambda: {f: run_fraction(f) for f in FRACTIONS}, rounds=1, iterations=1
    )

    lines = ["E15 — instruction-data-size ablation (small preset, C/C++ sample)"]
    for frac, (n, acc) in results.items():
        lines.append(f"  fraction {frac:>5.0%}  ({n:>4} records)  accuracy={acc:.3f}")
    write_out("ablation_data_size.txt", "\n".join(lines))

    # Full data should not be worse than a quarter of it by a wide margin.
    assert results[1.0][1] >= results[0.25][1] - 0.08
    assert results[1.0][1] >= 0.6
