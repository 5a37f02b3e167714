"""Scan result aggregation: per-kernel verdicts -> ScanReport.

The report is the single exchange format of the subsystem: the CLI
prints its summary, the JSON emitter dumps it verbatim, the SARIF
emitter projects it, and the server returns it from the job queue.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Verdict vocabulary (matching :class:`repro.detectors.base.Verdict`,
#: plus ``error`` for a tool that crashed on the kernel).
RACE, NO_RACE, UNSUPPORTED, ERROR = "yes", "no", "unsupported", "error"


@dataclass
class KernelResult:
    """One kernel's ensemble outcome."""

    id: str
    file: str
    language: str
    start_line: int
    end_line: int
    parse_ok: bool
    cached: bool
    verdicts: dict[str, str] = field(default_factory=dict)  # detector -> yes/no/unsupported/error
    errors: dict[str, str] = field(default_factory=dict)  # detector -> "<ExcType>: <message>"
    llm_verdict: str | None = None
    llm_margin: float | None = None

    @property
    def votes(self) -> tuple[int, int]:
        """(yes, no) counts over supported detector verdicts + the LLM."""
        pool = list(self.verdicts.values())
        if self.llm_verdict is not None:
            pool.append(self.llm_verdict)
        return pool.count(RACE), pool.count(NO_RACE)

    @property
    def ensemble_verdict(self) -> str:
        """Majority over supported votes; the LLM breaks ties (it always
        has an opinion); all-unsupported means no verdict."""
        yes, no = self.votes
        if yes == no:
            if self.llm_verdict is not None:
                return self.llm_verdict
            return UNSUPPORTED if yes == 0 else NO_RACE
        return RACE if yes > no else NO_RACE

    @property
    def agreement(self) -> float:
        """Fraction of voting detectors agreeing with the ensemble."""
        yes, no = self.votes
        total = yes + no
        if total == 0:
            return 0.0
        return (yes if self.ensemble_verdict == RACE else no) / total

    def to_dict(self) -> dict:
        return {
            "id": self.id, "file": self.file, "language": self.language,
            "start_line": self.start_line, "end_line": self.end_line,
            "parse_ok": self.parse_ok, "cached": self.cached,
            "verdicts": dict(self.verdicts), "errors": dict(self.errors),
            "llm_verdict": self.llm_verdict, "llm_margin": self.llm_margin,
            "ensemble_verdict": self.ensemble_verdict,
            "agreement": round(self.agreement, 4),
        }


@dataclass
class ScanReport:
    """Everything one scan produced."""

    root: str
    detectors: list[str] = field(default_factory=list)
    kernels: list[KernelResult] = field(default_factory=list)
    files: dict[str, int] = field(default_factory=dict)  # relpath -> kernel count
    totals: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)

    def racy(self) -> list[KernelResult]:
        return [k for k in self.kernels if k.ensemble_verdict == RACE]

    def disagreements(self) -> list[KernelResult]:
        """Kernels where at least one voter dissents from the ensemble."""
        return [k for k in self.kernels if sum(k.votes) > 1 and k.agreement < 1.0]

    def to_dict(self) -> dict:
        return {
            "schema": "repro-scan-report/1",
            "root": self.root,
            "detectors": list(self.detectors),
            "totals": dict(self.totals),
            "timing": dict(self.timing),
            "cache": dict(self.cache),
            "files": dict(self.files),
            "kernels": [k.to_dict() for k in self.kernels],
        }

    def to_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def summary(self) -> str:
        t = self.totals
        lines = [
            f"scanned {t.get('files_scanned', 0)} files "
            f"({t.get('files_with_omp', 0)} with OpenMP) under {self.root}",
            f"kernels: {t.get('kernels', 0)} "
            f"({t.get('unique_kernels', 0)} unique, "
            f"{t.get('cache_hits', 0)} served from cache)",
            f"races flagged: {t.get('races', 0)}   "
            f"disagreements: {t.get('disagreements', 0)}   "
            f"errors: {t.get('errors', 0)}",
            f"wall time: {self.timing.get('total_s', 0.0):.2f}s "
            f"({self.timing.get('kernels_per_s', 0.0):.1f} kernels/s)",
        ]
        for k in self.racy():
            yes, no = k.votes
            lines.append(f"  RACE  {k.file}:{k.start_line}-{k.end_line}  "
                         f"({yes} yes / {no} no)")
        return "\n".join(lines)
