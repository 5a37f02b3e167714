"""Detector interface and result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.drb.generator import KernelSpec
from repro.runtime.interpreter import Trace


class Verdict(str, enum.Enum):
    """A tool's answer for one program."""

    RACE = "yes"
    NO_RACE = "no"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class ToolResult:
    """Outcome of running one detector on one program."""

    tool: str
    program_id: str
    verdict: Verdict
    detail: str = ""

    @property
    def supported(self) -> bool:
        """Whether the tool produced a verdict (TSR numerator)."""
        return self.verdict is not Verdict.UNSUPPORTED


class Detector:
    """Base class.  Subclasses define :attr:`name`, :meth:`supports`, and
    either :meth:`detect` (one program at a time) or :meth:`detect_many`
    (batch-native: the LLM detectors).

    Dynamic detectors receive pre-computed traces from the harness (one
    Machine exploration shared across all dynamic tools); static and
    LLM-based detectors ignore them.
    """

    name: str = "detector"
    kind: str = "static"  # static | dynamic | llm
    #: Languages the tool can ingest at all (per-program support is the
    #: finer-grained :meth:`supports`); the registry filters on this.
    languages: tuple[str, ...] = ("C/C++", "Fortran")

    def supports(self, spec: KernelSpec) -> bool:  # pragma: no cover - default
        return True

    def detect(self, spec: KernelSpec, traces: list[Trace] | None = None) -> Verdict:
        raise NotImplementedError

    def detect_many(
        self,
        specs: list[KernelSpec],
        traces_list: "list[list[Trace] | None] | None" = None,
    ) -> list[Verdict]:
        """Verdicts for a batch of (supported) programs.

        The default loops :meth:`detect`; LLM detectors implement this
        instead, routing the whole batch through the inference engine in
        a few batched forwards.
        """
        traces_list = traces_list or [None] * len(specs)
        return [self.detect(spec, traces) for spec, traces in zip(specs, traces_list)]

    def run(self, spec: KernelSpec, traces: list[Trace] | None = None) -> ToolResult:
        """Support check + detection, packaged: :meth:`run_many` over
        one program."""
        return self.run_many([spec], [traces])[0]

    def run_many(
        self,
        specs: list[KernelSpec],
        traces_list: "list[list[Trace] | None] | None" = None,
    ) -> list[ToolResult]:
        """Batched :meth:`run`: support checks, then one
        :meth:`detect_many` call over the supported programs."""
        traces_list = list(traces_list) if traces_list is not None else [None] * len(specs)
        results: list[ToolResult | None] = [None] * len(specs)
        supported = [i for i, spec in enumerate(specs) if self.supports(spec)]
        verdicts = (
            self.detect_many(
                [specs[i] for i in supported], [traces_list[i] for i in supported]
            )
            if supported
            else []
        )
        for i, verdict in zip(supported, verdicts):
            if not isinstance(verdict, Verdict):
                raise TypeError(f"{self.name}.detect_many returned {verdict!r}")
            results[i] = ToolResult(self.name, specs[i].id, verdict)
        for i, spec in enumerate(specs):
            if results[i] is None:
                results[i] = ToolResult(self.name, spec.id, Verdict.UNSUPPORTED)
        return results
