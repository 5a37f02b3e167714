"""The scan orchestrator: tree -> kernels -> cached ensemble verdicts.

Stages (each timed into the report):

1. **walk** the tree (:mod:`repro.scan.walker`);
2. **extract** OpenMP kernels per file (:mod:`repro.scan.extractor`);
3. **dedupe** by content hash — identical kernels (vendored copies,
   generated variants) are detected once and fanned back out;
4. **cache** lookup in the persistent verdict store — unchanged kernels
   cost one file read, no model and no tools;
5. for the misses: the **tool ensemble** (LLOV / Inspector / ROMP /
   TSan) checks one kernel at a time — its schedules execute once, every
   tool runs on those traces, and they are released before the next
   kernel — then **LLM scoring** routes every kernel through
   :func:`repro.detectors.llm_detector.race_margins` in large batches —
   the same calibrated-margin path as single-kernel ``detect_race``, so
   scan verdicts match it exactly.

``llm_lock`` (a no-op by default) serialises only the model calls,
letting the HTTP server run long scans concurrently with its
micro-batched answer/detect traffic (the model itself is
single-threaded).
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.detectors.llm_detector import race_margins
from repro.detectors.registry import build_tool_detectors
from repro.runtime import Machine, MachineConfig
from repro.scan.cache import VerdictCache, kernel_key, pipeline_fingerprint
from repro.scan.extractor import ExtractedKernel, extract_kernels
from repro.scan.report import ERROR, UNSUPPORTED, KernelResult, ScanReport
from repro.scan.walker import DEFAULT_MAX_BYTES, walk_tree
from repro.utils.languages import normalize_language


@dataclass(frozen=True)
class ScanConfig:
    """Everything that shapes one scan (and the cache fingerprint)."""

    languages: tuple[str, ...] | None = None
    tools_only: bool = False
    llm_version: str = "l2"
    use_cache: bool = True
    cache_dir: str | Path | None = None
    n_threads: int = 2
    n_schedules: int = 4
    base_seed: int = 0
    strategies: tuple[str, ...] = ("random",)
    max_file_bytes: int = DEFAULT_MAX_BYTES


def default_scan_cache_dir() -> Path:
    from repro.llm.registry import default_cache_dir

    return default_cache_dir() / "scan"


class ScanPipeline:
    """Programmatic scanning API (the CLI, server, and bench share it)."""

    def __init__(
        self,
        system=None,
        config: ScanConfig | None = None,
        detectors: list | None = None,
        llm_lock: AbstractContextManager = nullcontext(),
    ) -> None:
        self.config = config or ScanConfig()
        if self.config.languages:
            # Normalise aliases once, up front (raises on unknown names).
            import dataclasses

            self.config = dataclasses.replace(
                self.config,
                languages=tuple(normalize_language(l) for l in self.config.languages),
            )
        # Build (and thereby validate — unknown strategy names raise
        # here, not mid-scan) the machine configuration once.
        self._machine_config = MachineConfig(
            n_threads=self.config.n_threads,
            n_schedules=self.config.n_schedules,
            base_seed=self.config.base_seed,
            strategies=tuple(self.config.strategies),
        )
        if not self.config.tools_only and system is None:
            raise ValueError("LLM scanning needs a system; pass tools_only=True to skip it")
        self.system = system
        if detectors is not None:
            self.detectors = detectors
        else:
            # Single-language scans let the registry drop tools that
            # cannot ingest that language at all.
            langs = self.config.languages
            self.detectors = build_tool_detectors(
                langs[0] if langs and len(langs) == 1 else None
            )
        self._llm_lock = llm_lock
        self.cache = (
            VerdictCache(self.config.cache_dir or default_scan_cache_dir())
            if self.config.use_cache
            else None
        )

    # -- fingerprint ---------------------------------------------------------

    def _fingerprint(self) -> str:
        parts = {
            "detectors": sorted(d.name for d in self.detectors),
            "machine": [self.config.n_threads, self.config.n_schedules,
                        self.config.base_seed,
                        list(self.config.strategies)],
            "tools_only": self.config.tools_only,
        }
        if not self.config.tools_only:
            try:
                model_key = self.system.config.cache_key()
            except AttributeError:
                model_key = type(self.system).__name__
            parts["model"] = model_key
            parts["version"] = self.config.llm_version
            parts["threshold"] = self._threshold()
        return pipeline_fingerprint(parts)

    def _threshold(self) -> float:
        with self._llm_lock:
            return self.system.threshold(self.config.llm_version)

    # -- the scan ------------------------------------------------------------

    def scan(self, root: str | Path) -> ScanReport:
        t0 = time.perf_counter()
        # Snapshot so a reused pipeline reports *this* scan's cache
        # traffic, not the store's lifetime totals.
        stats0 = self.cache.stats.to_dict() if self.cache is not None else None
        files, walk_stats = walk_tree(
            root, languages=self.config.languages,
            max_bytes=self.config.max_file_bytes,
        )
        t_walk = time.perf_counter()

        per_file: list[tuple] = [(f, extract_kernels(f)) for f in files]
        kernels: list[ExtractedKernel] = [k for _, ks in per_file for k in ks]
        t_extract = time.perf_counter()

        fingerprint = self._fingerprint()
        # Content-hash dedupe: one verdict per unique (source, language).
        owners: dict[str, list[ExtractedKernel]] = {}
        for k in kernels:
            owners.setdefault(kernel_key(k.source, k.language, fingerprint), []).append(k)

        payloads: dict[str, dict] = {}
        cached_keys: set[str] = set()
        if self.cache is not None:
            for key in owners:
                hit = self.cache.get(key)
                if hit is not None:
                    payloads[key] = hit
                    cached_keys.add(key)
        misses = [key for key in owners if key not in payloads]
        for key, payload in self._detect_batch(
            [(key, owners[key][0]) for key in misses]
        ).items():
            payloads[key] = payload
            if self.cache is not None:
                self.cache.put(key, payload)
        t_detect = time.perf_counter()

        results = [
            self._result(k, payloads[key], cached=key in cached_keys)
            for key, group in owners.items()
            for k in group
        ]
        results.sort(key=lambda r: (r.file, r.start_line))

        total_s = time.perf_counter() - t0
        report = ScanReport(
            root=str(root),
            detectors=[d.name for d in self.detectors]
            + ([] if self.config.tools_only else [self._llm_name()]),
            kernels=results,
            files={f.relpath: len(ks) for f, ks in per_file if ks},
        )
        report.totals = {
            "files_scanned": walk_stats.files_taken,
            "files_with_omp": sum(1 for _, ks in per_file if ks),
            "kernels": len(kernels),
            "unique_kernels": len(owners),
            "cache_hits": sum(len(owners[key]) for key in cached_keys),
            "races": len(report.racy()),
            "disagreements": len(report.disagreements()),
            "errors": sum(1 for k in results if k.errors),
        }
        report.timing = {
            "walk_s": round(t_walk - t0, 4),
            "extract_s": round(t_extract - t_walk, 4),
            "detect_s": round(t_detect - t_extract, 4),
            "total_s": round(total_s, 4),
            "kernels_per_s": round(len(kernels) / total_s, 2) if total_s > 0 else 0.0,
        }
        report.cache = (
            {k: v - stats0[k] for k, v in self.cache.stats.to_dict().items()}
            if self.cache is not None
            else {"hits": 0, "misses": len(owners), "writes": 0}
        )
        return report

    def _llm_name(self) -> str:
        return f"HPC-GPT ({self.config.llm_version.upper()})"

    # -- detection over the cache misses ------------------------------------

    def _detect_batch(self, items: list[tuple[str, ExtractedKernel]]) -> dict[str, dict]:
        """Ensemble verdicts for unique kernels: the tools kernel by
        kernel, then one LLM batch over all of them."""
        if not items:
            return {}
        machine = Machine(self._machine_config)
        tool_results = [self._tool_verdicts(machine, kernel) for _, kernel in items]

        llm_verdicts: list[str | None] = [None] * len(items)
        llm_margins: list[float | None] = [None] * len(items)
        if not self.config.tools_only:
            # The exact detect_race path: calibrated yes/no margins from
            # the batched engine, compared against the fitted threshold.
            threshold = self._threshold()
            engine = self.system.engine(self.config.llm_version)
            with self._llm_lock:
                margins = race_margins(engine, [(k.source, k.language) for _, k in items])
            for i, margin in enumerate(margins):
                llm_margins[i] = float(margin)
                llm_verdicts[i] = "yes" if margin >= threshold else "no"

        payloads: dict[str, dict] = {}
        for i, (key, kernel) in enumerate(items):
            payloads[key] = {
                "verdicts": tool_results[i][0],
                "errors": tool_results[i][1],
                "llm_verdict": llm_verdicts[i],
                "llm_margin": llm_margins[i],
                "parse_ok": kernel.parse_ok,
            }
        return payloads

    def _tool_verdicts(
        self, machine: Machine, kernel: ExtractedKernel
    ) -> tuple[dict[str, str], dict[str, str]]:
        """Every tool's verdict on one kernel, plus ``"<ExcType>:
        <message>"`` for each tool that crashed on it (its verdict is
        ``error``).  The schedules execute once and the dynamic tools
        share the traces, which are dropped when this returns; a runtime
        crash is an error of every dynamic tool that supports the kernel."""
        if not kernel.parse_ok:
            return {d.name: UNSUPPORTED for d in self.detectors}, {}
        spec = kernel.to_spec()
        traces, runtime_error = None, None
        try:
            traces = machine.traces(spec.parse())
        except Exception as exc:  # noqa: BLE001 - reported per dynamic tool
            runtime_error = exc
        verdicts: dict[str, str] = {}
        errors: dict[str, str] = {}
        for det in self.detectors:
            try:
                if det.kind == "dynamic" and runtime_error is not None and det.supports(spec):
                    raise runtime_error
                verdicts[det.name] = det.run(spec, traces).verdict.value
            except Exception as exc:  # noqa: BLE001 - one kernel must not kill the scan
                verdicts[det.name] = ERROR
                errors[det.name] = f"{type(exc).__name__}: {exc}"
        return verdicts, errors

    def _result(self, kernel: ExtractedKernel, payload: dict, cached: bool) -> KernelResult:
        return KernelResult(
            id=kernel.id,
            file=kernel.file,
            language=kernel.language,
            start_line=kernel.start_line,
            end_line=kernel.end_line,
            parse_ok=kernel.parse_ok,
            cached=cached,
            verdicts=dict(payload.get("verdicts", {})),
            errors=dict(payload.get("errors", {})),
            llm_verdict=payload.get("llm_verdict"),
            llm_margin=payload.get("llm_margin"),
        )
