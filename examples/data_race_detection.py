"""Compare every data-race detector on a handful of benchmark kernels.

Shows the Table-5 cast side by side: the four tools (LLOV, Inspector,
ROMP, ThreadSanitizer), the zero-shot LLM comparators, and HPC-GPT — on
one kernel per Table-3 category.

Usage::

    python examples/data_race_detection.py [--language Fortran]
"""

import argparse

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.datagen.pipeline import ALL_DRB_CATEGORIES
from repro.drb import DRBSuite
from repro.eval import EvaluationHarness
from repro.runtime import MachineConfig


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--language", default="C/C++", choices=["C/C++", "Fortran"])
    args = parser.parse_args()

    print("Building HPC-GPT (small preset)...")
    system = HPCGPTSystem(SMALL_PRESET)
    detectors = system.table5_detectors()

    suite = DRBSuite.evaluation(seed=0)
    picks = []
    for cat in ALL_DRB_CATEGORIES:
        picks.append(next(
            s for s in suite.specs
            if s.language == args.language and s.category == cat
            and "oversize" not in s.features
        ))
    harness = EvaluationHarness(DRBSuite(picks), MachineConfig(n_schedules=2))

    width = max(len(c) for c in ALL_DRB_CATEGORIES) + 2
    header = f"{'category':<{width}} truth " + " ".join(f"{d.name[:9]:>9}" for d in detectors)
    print(header)
    print("-" * len(header))
    rows = {}
    for det in detectors:
        for spec in picks:
            traces = harness.traces_for(spec) if det.kind == "dynamic" else None
            result = det.run(spec, traces)
            rows.setdefault(spec.id, {})[det.name] = result.verdict.value
    for spec in picks:
        cells = " ".join(f"{rows[spec.id][d.name][:9]:>9}" for d in detectors)
        print(f"{spec.category:<{width}} {spec.label:>5} {cells}")


if __name__ == "__main__":
    main()
