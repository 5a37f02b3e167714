"""Benchmark runner: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan-cold --seed 0 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``scan-cold``   full-ensemble scans of the seeded DRB tree, empty cache;
* ``scan-rescan`` the tree vendored 4x over a warm cache, ~1% edited per pass;
* ``serve-mixed`` closed-loop rounds of mixed requests through the
  serving frontend (answer, retrieval answer, detect, ingest);
* ``build-small`` HPC-GPT (L2) builds of the small preset from an empty cache.

``--workload all`` runs the four in turn, each in its own process, and
ends with one JSON line holding every workload's result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
layer boundaries of ``repro`` (see ``layers.py``) and prints the
per-layer metrics instead.  A human-readable report goes to stderr and
the full detail to ``.bench_build/perfbench/last-<workload>.json``.
The small-preset model is built once per checkout into
``.bench_build/perfbench/model-small`` before anything is timed.
Exits non-zero without a result line when the run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".bench_build" / "perfbench"

#: End-to-end metrics (every workload reports all of them), with units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "op_p50_ms": "ms",
}


def ensure_model_cache() -> Path:
    """Build the small-preset model and retrieval index once per checkout."""
    from repro.core import SMALL_PRESET, HPCGPTSystem

    final = STATE / "model-small"
    if (final / "READY").exists():
        return final
    tmp = STATE / f"model-small.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    os.environ["REPRO_CACHE"] = str(tmp)
    t0 = time.perf_counter()
    system = HPCGPTSystem(SMALL_PRESET)
    system.finetuned("l2")
    system.retrieval_answerer()
    (tmp / "READY").write_text("")
    try:
        tmp.rename(final)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"built the small-preset model cache in {time.perf_counter() - t0:.1f}s",
          file=sys.stderr)
    return final


def run_all(args) -> int:
    """Every workload in its own interpreter (so peak memory and imports
    are each workload's own); their report lines pass through."""
    import subprocess

    from perfbench.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import layers
    from perfbench.measure import envelope, host_info, log
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Context

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")

    STATE.mkdir(parents=True, exist_ok=True)
    model_cache = ensure_model_cache()
    os.environ["REPRO_CACHE"] = str(model_cache)
    work = STATE / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    ctx = Context(ROOT, work, model_cache, args.seed, args.seconds)
    try:
        result = WORKLOADS[args.workload](ctx, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {name: (result.per_layer[name], unit) for name, unit in layers.PER_LAYER.items()}
    else:
        values = result.end_to_end()
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "correct": result.correct,
        "checks": result.checks,
        "named": result.named,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": result.report,
    }
    (STATE / f"last-{args.workload}.json").write_text(json.dumps(detail, indent=1, default=str))

    log(f"== {args.workload} seed={args.seed} trace={args.trace} host={detail['host']}")
    for name, ok in result.checks.items():
        log(f"  check {'PASS' if ok else 'FAIL'}: {name}")
    log(f"  attempted={result.attempted} failed={result.failed} "
        f"error_rate={result.failed / result.attempted:.4g}")
    for name, (value, unit, note) in result.named.items():
        log(f"  {name} = {value:.6g} {unit}  ({note})")
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")
    if args.trace and result.per_layer.get("trace.unattributed_share", 0.0) > 0.10:
        log("  measurement gap: spans leave more than 10% of the root wall unattributed")
    print(envelope(result.correct, result.attempted, result.failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
