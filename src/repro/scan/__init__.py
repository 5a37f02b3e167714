"""Repository-scale race scanning.

The subsystem that feeds the batched inference engine a whole project
at once — the "scan my repo" workload of real race-detection tooling:

* :mod:`repro.scan.walker` — find C/C++ and Fortran sources in a tree;
* :mod:`repro.scan.extractor` — pull OpenMP kernels (parallel regions
  plus their enclosing function context) out of each file;
* :mod:`repro.scan.cache` — persistent content-addressed verdict store,
  so unchanged kernels never re-run the ensemble;
* :mod:`repro.scan.pipeline` — the orchestrator: dedupe, cache lookup,
  the tool ensemble one kernel at a time, LLM margins in large engine
  batches;
* :mod:`repro.scan.report` / :mod:`repro.scan.sarif` — aggregation and
  the JSON / SARIF 2.1.0 emitters.

The async job queue behind ``POST /api/scan`` lives in
:mod:`repro.serve.jobs`.
"""

from repro.scan.cache import VerdictCache, kernel_key
from repro.scan.extractor import ExtractedKernel, extract_kernels
from repro.scan.pipeline import ScanConfig, ScanPipeline
from repro.scan.report import KernelResult, ScanReport
from repro.scan.sarif import to_sarif
from repro.scan.walker import SourceFile, walk_tree

__all__ = [
    "ExtractedKernel",
    "KernelResult",
    "ScanConfig",
    "ScanPipeline",
    "ScanReport",
    "SourceFile",
    "VerdictCache",
    "extract_kernels",
    "kernel_key",
    "to_sarif",
    "walk_tree",
]
