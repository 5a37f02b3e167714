"""The Table-5 harness: run every detector over the evaluation suite.

Dynamic detectors share one Machine exploration per program (traces are
computed once and reused), which keeps full-suite evaluation fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detectors.base import Detector, ToolResult
from repro.drb.generator import KernelSpec
from repro.drb.suite import DRBSuite
from repro.eval.metrics import MetricRow, compute_metrics
from repro.runtime import Machine, MachineConfig
from repro.runtime.interpreter import Trace


@dataclass
class HarnessOutput:
    """All raw results plus per-(tool, language) metric rows."""

    results: dict[str, list[ToolResult]] = field(default_factory=dict)
    rows: list[MetricRow] = field(default_factory=list)

    def row(self, tool: str, language: str) -> MetricRow:
        for r in self.rows:
            if r.tool == tool and r.language == language:
                return r
        raise KeyError((tool, language))


class EvaluationHarness:
    """Runs detectors across the suite and computes Table-5 rows."""

    def __init__(self, suite: DRBSuite, machine_config: MachineConfig | None = None) -> None:
        """``machine_config`` defaults to 4 explored schedules of the seed
        ``random`` strategy (the policy Table 5 is defined against): four
        give the dynamic tools' schedule-dependent behaviours (e.g.
        Inspector's lockset false positives on barrier-separated phases,
        which need a non-master single winner) a realistic chance to
        manifest."""
        self.suite = suite
        self.machine = Machine(machine_config or MachineConfig(n_schedules=4))
        self._trace_cache: dict[str, list[Trace]] = {}

    def traces_for(self, spec: KernelSpec) -> list[Trace]:
        cached = self._trace_cache.get(spec.id)
        if cached is None:
            cached = self.machine.traces(spec.parse())
            self._trace_cache[spec.id] = cached
        return cached

    def run(self, detectors: list[Detector], languages: tuple[str, ...] = ("C/C++", "Fortran")) -> HarnessOutput:
        """Evaluate every detector on every program of the requested
        languages; returns raw results and metric rows per language.

        Each detector sees the whole language slice at once via
        ``run_many``, so LLM-based rows decode/score in batches through
        the inference engine instead of one program at a time.
        """
        out = HarnessOutput()
        labels = self.suite.labels()
        for language in languages:
            specs = self.suite.by_language(language)
            for det in detectors:
                traces_list = [
                    self.traces_for(spec)
                    if det.kind == "dynamic" and det.supports(spec)
                    else None
                    for spec in specs
                ]
                results: list[ToolResult] = det.run_many(specs, traces_list)
                key = f"{det.name}|{language}"
                out.results[key] = results
                out.rows.append(compute_metrics(det.name, language, results, labels))
        return out
