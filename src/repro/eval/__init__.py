"""Evaluation: the paper's §4.5 metrics, the Table-5 harness, table
rendering, and the Task-1 QA evaluator."""

from repro.eval.metrics import ConfusionCounts, MetricRow, compute_metrics
from repro.eval.harness import EvaluationHarness
from repro.eval.tables import render_table4, render_table5, improvements_over
from repro.eval.task1_eval import Task1Evaluator, QAExample

__all__ = [
    "ConfusionCounts",
    "MetricRow",
    "compute_metrics",
    "EvaluationHarness",
    "render_table4",
    "render_table5",
    "improvements_over",
    "Task1Evaluator",
    "QAExample",
]
