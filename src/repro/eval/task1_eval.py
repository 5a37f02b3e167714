"""Task-1 evaluation: QA over the PLP catalog and MLPerf table.

The paper's §4.7.1 is qualitative (Listings 3-4), comparing GPT-4,
HPC-Ontology, and HPC-GPT answers.  We add a quantitative harness: a
held-out set of entity questions with ground-truth answers; a method's
answer counts as correct when it *contains* the ground-truth entity
(Listing 3's HPC-GPT answer embeds "CodeTrans" in a sentence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.knowledge.mlperf import MLPerfRow
from repro.knowledge.plp_catalog import PLPEntry
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class QAExample:
    """One evaluation question with its gold entity."""

    question: str
    answer_entity: str
    task: str  # plp | mlperf


def build_qa_set(
    plp_catalog: list[PLPEntry],
    mlperf_table: list[MLPerfRow],
    n_plp: int = 20,
    n_mlperf: int = 20,
    seed: int = 0,
) -> list[QAExample]:
    """Deterministic question set grounded in the structured knowledge.

    Includes the paper's two anchor questions (Listings 3 and 4) first.
    """
    examples: list[QAExample] = [
        QAExample(
            "What kind of dataset can be used for code translation tasks if the "
            "source language is Java and the target language is C#?",
            "CodeTrans",
            "plp",
        ),
        QAExample(
            "What is the System if the Accelerator used is NVIDIA H100-SXM5-80GB "
            "and the Software used is MXNet NVIDIA Release 23.04?",
            "dgxh100_n64",
            "mlperf",
        ),
    ]
    rng = derive_rng(seed, "eval/task1")
    plp_pool = [e for e in plp_catalog if e.dataset != "CodeTrans"]
    for _ in range(n_plp):
        e = plp_pool[int(rng.integers(len(plp_pool)))]
        kind = int(rng.integers(3))
        if kind == 0:
            examples.append(
                QAExample(
                    f"Which baseline model is commonly evaluated on the {e.dataset} dataset?",
                    e.baseline,
                    "plp",
                )
            )
        elif kind == 1:
            examples.append(
                QAExample(
                    f"Identify the evaluation metric used for the {e.dataset} dataset.",
                    e.metric,
                    "plp",
                )
            )
        else:
            examples.append(
                QAExample(
                    f"Name the programming language targeted by the {e.dataset} dataset.",
                    e.language,
                    "plp",
                )
            )
    ml_pool = [r for r in mlperf_table if r.system != "dgxh100_n64"]
    for _ in range(n_mlperf):
        r = ml_pool[int(rng.integers(len(ml_pool)))]
        kind = int(rng.integers(3))
        if kind == 0:
            examples.append(
                QAExample(
                    f"What is the System if the Accelerator used is {r.accelerator} "
                    f"and the Software used is {r.software}?",
                    r.system,
                    "mlperf",
                )
            )
        elif kind == 1:
            examples.append(
                QAExample(
                    f"What processor does the {r.system} system use?", r.processor, "mlperf"
                )
            )
        else:
            examples.append(
                QAExample(
                    f"What software stack powers the {r.system} system?", r.software, "mlperf"
                )
            )
    return examples


@dataclass
class Task1Score:
    """Accuracy of one answering method on the QA set."""

    method: str
    correct: int
    answered: int
    total: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of questions the method answered at all (the
        ontology declines out-of-template questions)."""
        return self.answered / self.total if self.total else 0.0


class Task1Evaluator:
    """Scores answering methods over the QA set.

    A method maps a list of questions to one answer string (or ``None``,
    declined) per question.
    """

    def __init__(self, examples: list[QAExample]) -> None:
        if not examples:
            raise ValueError("empty QA set")
        self.examples = examples

    @staticmethod
    def contains_entity(answer: str, entity: str) -> bool:
        """Case-insensitive containment with word boundaries, so a short
        entity like the language "C" does not match inside ordinary
        words."""
        import re

        return bool(
            re.search(
                rf"(?<![A-Za-z0-9]){re.escape(entity)}(?![A-Za-z0-9])",
                answer,
                re.IGNORECASE,
            )
        )

    def score(
        self, method_name: str, answer_batch: Callable[[list[str]], list[str | None]]
    ) -> Task1Score:
        """Score one answering method: all questions are answered in one
        call (the engine-backed HPC-GPT methods decode them in batches)."""
        answers = answer_batch([ex.question for ex in self.examples])
        if len(answers) != len(self.examples):
            raise ValueError(
                f"{method_name} returned {len(answers)} answers "
                f"for {len(self.examples)} questions"
            )
        correct = 0
        answered = 0
        for ex, ans in zip(self.examples, answers):
            if ans is None or not str(ans).strip():
                continue
            answered += 1
            if self.contains_entity(str(ans), ex.answer_entity):
                correct += 1
        return Task1Score(method_name, correct, answered, len(self.examples))
