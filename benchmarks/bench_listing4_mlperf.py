"""E12 — Listing 4: the MLPerf-task qualitative comparison.

Question: which System pairs the NVIDIA H100-SXM5-80GB accelerator with
MXNet NVIDIA Release 23.04 (gold: dgxh100_n64).
"""

from repro.eval.task1_eval import Task1Evaluator

from benchmarks._shared import system, write_out

QUESTION = ("What is the System if the Accelerator used is NVIDIA H100-SXM5-80GB "
            "and the Software used is MXNet NVIDIA Release 23.04?")
GOLD = "dgxh100_n64"


def test_listing4_mlperf(benchmark):
    methods = system().task1_methods()

    def ask_all():
        return {name: fn([QUESTION])[0] for name, fn in methods.items()}

    answers = benchmark.pedantic(ask_all, rounds=1, iterations=1)

    lines = ["Listing 4 — MLPerf task example", f"Question: {QUESTION}", ""]
    for name, ans in answers.items():
        lines.append(f"Answer ({name}): {ans}")
    write_out("listing4_mlperf.txt", "\n".join(lines))

    assert not Task1Evaluator.contains_entity(answers["GPT-4"] or "", GOLD)
    assert answers["HPC-Ontology"] == GOLD
    assert isinstance(answers["HPC-GPT (L2)"], str) and answers["HPC-GPT (L2)"].strip()
