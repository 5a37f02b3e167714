"""Task 1 — managing AI models and datasets for HPC (paper §4.7.1).

Reproduces the Listing-3/Listing-4 comparison and then scores the three
answering methods (GPT-4 sim, HPC Ontology, HPC-GPT) on a quantitative
QA set over the PLP catalog and MLPerf results table.

Usage::

    python examples/manage_models_datasets.py
"""

from repro.core import HPCGPTSystem, SMALL_PRESET
from repro.eval import Task1Evaluator
from repro.eval.task1_eval import build_qa_set
from repro.knowledge import build_mlperf_table, build_plp_catalog

LISTING3_Q = ("What kind of dataset can be used for code translation tasks if the "
              "source language is Java and the target language is C#?")
LISTING4_Q = ("What is the System if the Accelerator used is NVIDIA H100-SXM5-80GB "
              "and the Software used is MXNet NVIDIA Release 23.04?")


def main() -> None:
    print("Building HPC-GPT (small preset)...")
    system = HPCGPTSystem(SMALL_PRESET)
    methods = system.task1_methods()

    for title, q in (("Listing 3 (PLP task)", LISTING3_Q), ("Listing 4 (MLPerf task)", LISTING4_Q)):
        print(f"\n== {title} ==")
        print("Question:", q)
        for name, fn in methods.items():
            print(f"  {name:<14}: {fn([q])[0]}")

    print("\n== Quantitative QA comparison ==")
    catalog = build_plp_catalog(system.config.plp_entries_per_category, seed=system.config.seed)
    table = build_mlperf_table(system.config.mlperf_rows, seed=system.config.seed)
    evaluator = Task1Evaluator(build_qa_set(catalog, table, n_plp=15, n_mlperf=15))
    print(f"{'method':<14} {'accuracy':>9} {'coverage':>9}")
    for name, fn in methods.items():
        score = evaluator.score(name, fn)
        print(f"{name:<14} {score.accuracy:>9.3f} {score.coverage:>9.3f}")


if __name__ == "__main__":
    main()
