"""Scan verdicts equal direct tool runs.

A tools-only scan of the exported DRB slice (one spec per category and
language) must report, for every kernel, exactly the verdict each
detector gives when run directly on the traces of ``ScanConfig``'s
machine defaults.  This pins the scan's kernel-by-kernel detection loop
to the plain ``Machine.traces`` + ``Detector.run`` contract."""

import json

from repro.detectors import build_tool_detectors
from repro.drb import DRBSuite
from repro.runtime import Machine, MachineConfig
from repro.scan import ScanConfig, ScanPipeline


def test_scan_verdicts_equal_direct_tool_runs(tmp_path):
    seen, specs = set(), []
    for spec in DRBSuite.evaluation(seed=0).specs:
        if (spec.language, spec.category) not in seen:
            seen.add((spec.language, spec.category))
            specs.append(spec)
    tree = tmp_path / "tree"
    DRBSuite(specs).write_tree(tree)
    files = {m["id"]: m["file"] for m in json.loads((tree / "manifest.json").read_text())}

    cfg = ScanConfig(tools_only=True, use_cache=False)
    report = ScanPipeline(config=cfg).scan(tree)
    assert report.totals["kernels"] == len(specs)

    machine = Machine(MachineConfig(
        n_threads=cfg.n_threads, n_schedules=cfg.n_schedules,
        base_seed=cfg.base_seed, strategies=cfg.strategies,
    ))
    detectors = build_tool_detectors(None)
    by_file = {k.file: k for k in report.kernels}
    for spec in specs:
        kernel = by_file[files[spec.id]]
        traces = machine.traces(spec.parse())
        direct = {d.name: d.run(spec, traces).verdict.value for d in detectors}
        assert kernel.verdicts == direct, spec.id
