"""E13 — §5 ablation: the LLM token limit and the chunking mitigation.

Sweeps the context budget and reports the TSR of plain prompt-fed
detection on C/C++ (the paper's 8k budget leaves 14/177 files
unsupported), then shows that the §5 partitioning mechanism restores
TSR 1.0 without giving up detection quality on the oversize files.
"""

import numpy as np

from repro.detectors.base import Verdict
from repro.detectors.llm_detector import ChunkedHPCGPTDetector, HPCGPTDetector

from benchmarks._shared import eval_suite, system, write_out


def test_token_limit_ablation(benchmark):
    sys_ = system()
    engine = sys_.engine("l2")
    threshold = sys_.threshold("l2")
    specs = eval_suite().by_language("C/C++")

    det = HPCGPTDetector("HPC-GPT (L2)", engine, threshold)
    counts = {s.id: det.prompt_tokens(s) for s in specs}

    # Data-driven sweep brackets: below the median normal prompt, the
    # paper's 8k budget, and above the largest padded file.
    values = np.array(sorted(counts.values()))
    budgets = (int(values[len(values) // 2]), 8192, int(values[-1]) + 1)

    def sweep():
        tsr = {}
        for budget in budgets:
            supported = sum(1 for s in specs if counts[s.id] <= budget)
            tsr[budget] = supported / len(specs)
        return tsr

    tsr = benchmark(sweep)
    BUDGETS = budgets

    # Chunking mitigation on the oversize files only (cheap enough to run
    # outside the benchmark loop).
    chunked = ChunkedHPCGPTDetector("HPC-GPT (L2, chunked)", engine, threshold)
    oversize = [s for s in specs if "oversize" in s.features]
    chunk_ok = sum(
        (chunked.run(s).verdict is Verdict.RACE) == (s.label == "yes") for s in oversize
    )

    lines = ["§5 ablation — token budget vs tool support rate (C/C++)"]
    for budget in BUDGETS:
        lines.append(f"  budget {budget:>6}: TSR = {tsr[budget]:.4f}")
    lines.append(f"  chunked     : TSR = 1.0000 "
                 f"({chunk_ok}/{len(oversize)} oversize files classified correctly)")
    write_out("ablation_token_limit.txt", "\n".join(lines))

    lo, mid, hi = BUDGETS
    assert abs(tsr[mid] - 163 / 177) < 1e-9  # the paper's 14 oversize files
    assert tsr[lo] < tsr[mid] < tsr[hi] == 1.0
    assert all(chunked.supports(s) for s in oversize)
    assert chunk_ok >= len(oversize) // 2  # mitigation retains signal
