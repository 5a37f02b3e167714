"""E11 — Listing 3: the PLP-task qualitative comparison.

Question: dataset for Java -> C# code translation.  Expected behaviours:
GPT-4 answers generically (no entity), HPC-Ontology answers exactly via
its hand-written SPARQL template, HPC-GPT answers in natural language.
"""

from repro.eval.task1_eval import Task1Evaluator

from benchmarks._shared import system, write_out

QUESTION = ("What kind of dataset can be used for code translation tasks if the "
            "source language is Java and the target language is C#?")
GOLD = "CodeTrans"


def test_listing3_plp(benchmark):
    methods = system().task1_methods()

    def ask_all():
        return {name: fn([QUESTION])[0] for name, fn in methods.items()}

    answers = benchmark.pedantic(ask_all, rounds=1, iterations=1)

    lines = ["Listing 3 — PLP task example", f"Question: {QUESTION}", ""]
    for name, ans in answers.items():
        lines.append(f"Answer ({name}): {ans}")
    write_out("listing3_plp.txt", "\n".join(lines))

    # GPT-4 (no post-cutoff catalog knowledge) must miss the entity...
    assert not Task1Evaluator.contains_entity(answers["GPT-4"] or "", GOLD)
    # ...the ontology must return it exactly...
    assert answers["HPC-Ontology"] == GOLD
    # ...and HPC-GPT must produce a non-empty free-form answer.
    assert isinstance(answers["HPC-GPT (L2)"], str) and answers["HPC-GPT (L2)"].strip()
