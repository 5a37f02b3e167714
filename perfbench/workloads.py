"""The four workloads.

Each workload function takes a :class:`Context` and returns a
:class:`Result`: the generic end-to-end metrics (every workload reports
all of them), the per-layer metrics when traced, the correctness
verdict, and a human-readable report.  Only the seed reaches the
program, through the inputs generated from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import layers, serving
from perfbench.measure import self_peak_rss_mb, summarize, timed_repeats
from perfbench.spans import Tracer

#: Set-up repeats per run (``setup_s`` is their median).
SETUP_REPEATS = 7
#: Vendored copies of the suite in the re-scan tree.
RESCAN_COPIES = 4
#: Share of re-scan files edited before each pass.
RESCAN_EDIT_SHARE = 0.01
#: Kernels per scan-cold run re-checked outside the scan pipeline.
DIRECT_SAMPLE = 48


@dataclass
class Context:
    root: Path  # the checkout
    work: Path  # this run's working directory (removed at the end)
    model_cache: Path  # built small-preset model cache (read-only here)
    seed: int
    seconds: float


@dataclass
class Result:
    setup_s: list[float]  # wall time of each fresh-interpreter set-up
    op_s: list[float]  # wall time of each timed operation
    peak_rss_mb: float
    attempted: int
    failed: int
    checks: dict[str, bool] = field(default_factory=dict)
    #: The workload's own figures for the report: name -> (value, unit, note).
    named: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
            "ok_share": (self.attempted - self.failed) / self.attempted,
            "op_p50_ms": statistics.median(self.op_s) * 1e3,
        }


def _interpreter_setup(ctx: Context, code: str) -> list[float]:
    """Wall times of a fresh interpreter running ``code``: what a
    command-line invocation pays before its first unit of work.  Wall,
    not the child's CPU time: with a core free, NumPy's BLAS threads
    add CPU time the caller never waits for."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    runs = timed_repeats(
        lambda i: subprocess.run([sys.executable, "-c", code], env=env, cwd=ctx.root, check=True),
        0.0, min_repeats=SETUP_REPEATS,
    )
    return [wall for wall, _ in runs]


#: ``repro scan`` before the walk: import, load HPC-GPT, build the pipeline.
SCAN_SETUP = (
    "from repro.core import SMALL_PRESET, HPCGPTSystem\n"
    "from repro.scan import ScanConfig, ScanPipeline\n"
    "s = HPCGPTSystem(SMALL_PRESET)\n"
    "s.engine('l2')\n"
    "ScanPipeline(system=s, config=ScanConfig(use_cache=False))\n"
)


def _load_system():
    from repro.core import SMALL_PRESET, HPCGPTSystem

    system = HPCGPTSystem(SMALL_PRESET)
    system.engine("l2")
    system.threshold("l2")
    return system


def _traced_ops(tracer: Tracer | None, op, budget: float, min_repeats: int):
    """Timed repeats of ``op``; in a traced run every other repeat
    records spans (the others give the untraced baseline)."""

    def call(i: int):
        if tracer is not None:
            tracer.active = i % 2 == 1
        try:
            return op(i)
        finally:
            if tracer is not None:
                tracer.active = False

    return timed_repeats(call, budget, min_repeats=min_repeats)


def _overhead(walls: list[float]) -> float:
    plain, traced = walls[0::2], walls[1::2]
    if not plain or not traced:
        return 0.0
    return statistics.median(traced) / statistics.median(plain) - 1.0


# -- scan verdict bookkeeping -----------------------------------------------------------


def _verdict_table(report, strip_prefix: bool = False) -> dict[tuple[str, int], tuple]:
    """``(file, ordinal in file) -> (tool verdicts, llm verdict, parse_ok)``;
    with ``strip_prefix`` the vendored-copy directory is dropped from
    the file so every copy maps onto the same keys."""
    table: dict[tuple[str, int], tuple] = {}
    seen: dict[str, int] = {}
    for k in report.kernels:
        f = k.file.split("/", 1)[1] if strip_prefix else k.file
        ordinal = seen.get(k.file, 0)
        seen[k.file] = ordinal + 1
        table[(f, ordinal)] = (tuple(sorted(k.verdicts.items())), k.llm_verdict, k.parse_ok)
    return table


def _digest(table: dict) -> str:
    payload = json.dumps(sorted((list(k), list(v)) for k, v in table.items()))
    return hashlib.blake2b(payload.encode(), digest_size=12).hexdigest()


def _quality(report, labels: dict[str, str], strip_prefix: bool = False) -> dict[str, float]:
    """Accuracy and decided shares of one scan against the manifest labels."""
    n = hpc_ok = decided = tool_ok = 0
    per_tool = {slug: 0 for slug in layers.TOOLS.values()}
    for k in report.kernels:
        f = k.file.split("/", 1)[1] if strip_prefix else k.file
        label = labels[f]
        n += 1
        hpc_ok += k.llm_verdict == label
        for tool, verdict in k.verdicts.items():
            if verdict in ("yes", "no"):
                decided += 1
                tool_ok += verdict == label
                per_tool[layers.TOOLS[tool]] += 1
    pairs = n * len(layers.TOOLS)
    q = {
        "llm.detect.accuracy": hpc_ok / n,
        "detectors.accuracy": tool_ok / decided if decided else 0.0,
        "detectors.decided_share": decided / pairs,
        "scan.dedupe_ratio": 1.0 - report.totals["unique_kernels"] / report.totals["kernels"],
    }
    for slug, count in per_tool.items():
        q[f"detectors.{slug}.decided_ratio"] = count / n
    q["_counts"] = {
        "kernels": n, "hpcgpt_correct": hpc_ok, "tool_decided": decided,
        "tool_correct": tool_ok, "tool_pairs": pairs,
    }
    return q


def _direct_mismatches(system, specs, results) -> list[str]:
    """Kernels whose scan verdicts differ from running each tool and the
    LLM directly on the suite's own spec (a tool that raises here, where
    the scan would quietly report it unsupported, is a mismatch too)."""
    from repro.detectors import build_tool_detectors
    from repro.runtime import Machine, MachineConfig
    from repro.scan import ScanConfig

    cfg = ScanConfig()
    machine = Machine(MachineConfig(
        n_threads=cfg.n_threads, n_schedules=cfg.n_schedules,
        base_seed=cfg.base_seed, strategies=tuple(cfg.strategies),
    ))
    detectors = build_tool_detectors(None)
    bad: list[str] = []
    for spec, result in zip(specs, results):
        try:
            traces = machine.traces(spec.parse())
            tools = {d.name: d.run(spec, traces).verdict.value for d in detectors}
            llm = system.detect_race_batch([spec.source], language=spec.language)[0]
        except Exception as exc:  # noqa: BLE001 - reported as a failed kernel
            bad.append(f"{spec.id}: {type(exc).__name__}: {exc}")
            continue
        if (tools, llm) != (result.verdicts, result.llm_verdict):
            bad.append(f"{spec.id}: direct {(tools, llm)} != scan "
                       f"{(result.verdicts, result.llm_verdict)}")
    return bad


def _labels(tree: Path) -> dict[str, str]:
    return {m["file"]: m["label"] for m in json.loads((tree / "manifest.json").read_text())}


def _scan(system, tree: Path, cache: Path):
    from repro.scan import ScanConfig, ScanPipeline

    return ScanPipeline(system=system, config=ScanConfig(cache_dir=cache)).scan(tree)


# -- scan-cold ---------------------------------------------------------------------------


def scan_cold(ctx: Context, tracer: Tracer | None) -> Result:
    """Full-ensemble scans of the seeded DRB tree, each with an empty
    verdict cache; then one warm scan that must reproduce every verdict."""
    from repro.drb import DRBSuite

    setup_s = _interpreter_setup(ctx, SCAN_SETUP)
    tree = ctx.work / "tree"
    suite = DRBSuite.evaluation(ctx.seed)
    suite.write_tree(tree)
    system = _load_system()
    labels = _labels(tree)

    # Warm-up: a small scan so the first timed one pays no lazy start-up.
    sample = ctx.work / "warmup"
    for f in sorted(labels)[:: max(1, len(labels) // 12)]:
        (sample / f).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(tree / f, sample / f)
    _scan(system, sample, ctx.work / "cache-warmup")

    runs = _traced_ops(
        tracer, lambda i: _scan(system, tree, ctx.work / f"cache{i}"),
        ctx.seconds, min_repeats=2,
    )
    walls = [w for w, _ in runs]
    reports = [r for _, r in runs]
    spans = tracer.take() if tracer is not None else []
    warm = _scan(system, tree, ctx.work / f"cache{len(runs) - 1}")

    tables = [_verdict_table(r) for r in reports]
    digests = {_digest(t) for t in tables}
    warm_table = _verdict_table(warm)
    failed = sum(
        1 for t in tables[1:] for key, v in t.items() if tables[0].get(key) != v
    ) + sum(1 for key, v in warm_table.items() if tables[0].get(key) != v)
    n_kernels = reports[0].totals["kernels"]
    by_file = {k.file: k for k in reports[0].kernels}
    files = {m["id"]: m["file"] for m in json.loads((tree / "manifest.json").read_text())}
    sample = np.random.default_rng([ctx.seed, 1]).choice(
        len(suite.specs), size=min(DIRECT_SAMPLE, len(suite.specs)), replace=False
    )
    specs = [suite.specs[int(i)] for i in sorted(sample)]
    direct = _direct_mismatches(system, specs, [by_file[files[s.id]] for s in specs])
    failed += len(direct)
    checks = {
        "scan verdicts equal direct tool and LLM runs": not direct,
        "identical verdicts across cold repeats": len(digests) == 1,
        "warm scan reproduces cold verdicts": _digest(warm_table) == _digest(tables[0]),
        "warm scan served from cache": warm.totals["cache_hits"] == n_kernels,
        "every kernel scanned": all(r.totals["kernels"] == len(labels) for r in reports),
    }
    quality = _quality(reports[0], labels)
    counts = quality.pop("_counts")
    result = Result(
        setup_s=setup_s,
        op_s=walls,
        peak_rss_mb=self_peak_rss_mb(),
        attempted=n_kernels * (len(reports) + 1) + len(specs),
        failed=failed,
        checks=checks,
        report={
            "kernels": n_kernels,
            "scans": len(walls),
            "scan_s": summarize(walls),
            "verdict_digest": _digest(tables[0]),
            "direct_mismatches": direct[:5],
            "timing": reports[0].timing,
        },
    )
    result.named = {
        "kernels_per_s": (n_kernels / statistics.median(walls), "1/s",
                          f"median of {len(walls)} cold scans"),
        "hpcgpt_accuracy": (quality["llm.detect.accuracy"], "ratio",
                            f"{counts['hpcgpt_correct']}/{counts['kernels']}"),
        "tools_accuracy": (quality["detectors.accuracy"], "ratio",
                           f"{counts['tool_correct']}/{counts['tool_decided']}"),
        "tools_decided_share": (quality["detectors.decided_share"], "ratio",
                                f"{counts['tool_decided']}/{counts['tool_pairs']}"),
    }
    if tracer is not None:
        result.per_layer, result.report["self_time_s"] = layers.layer_metrics(
            spans, layers.ROOT_SCAN, _overhead(walls), quality
        )
    return result


# -- scan-rescan -------------------------------------------------------------------------


def _language(path: Path) -> str:
    return "Fortran" if path.suffix == ".f90" else "C/C++"


def _edit(text: str, language: str) -> str:
    """A semantics-preserving edit: one comment line on top."""
    marker = "! perfbench revision" if language == "Fortran" else "// perfbench revision"
    return f"{marker}\n{text}"


def scan_rescan(ctx: Context, tracer: Tracer | None) -> Result:
    """Repeated scans of the suite vendored several times over a warm
    verdict cache, with a seeded ~1% of files edited before each pass."""
    from repro.drb import DRBSuite
    from repro.scan.extractor import extract_kernels
    from repro.scan.walker import SourceFile

    setup_s = _interpreter_setup(ctx, SCAN_SETUP)
    tree = ctx.work / "rtree"
    suite = DRBSuite.evaluation(ctx.seed)
    for c in range(RESCAN_COPIES):
        suite.write_tree(tree / f"vendor{c}")
    system = _load_system()
    labels = _labels(tree / "vendor0")
    cache = ctx.work / "rcache"

    t0 = time.perf_counter()
    warm = _scan(system, tree, cache)  # fills the verdict cache
    warm_s = time.perf_counter() - t0
    baseline = _verdict_table(warm, strip_prefix=True)
    per_copy: dict[tuple[str, int], list[tuple]] = {}
    for (f, j), verdicts in _verdict_table(warm).items():
        per_copy.setdefault((f.split("/", 1)[1], j), []).append(verdicts)
    copies_agree = all(
        len(vs) == RESCAN_COPIES and len(set(vs)) == 1 for vs in per_copy.values()
    )

    files = sorted(p for p in tree.rglob("*") if p.suffix in (".c", ".f90"))
    originals = {p: p.read_text() for p in files}
    n_edit = max(1, int(round(RESCAN_EDIT_SHARE * len(files))))
    rng = np.random.default_rng([ctx.seed, 2])
    edited: list[Path] = []
    passes: list[set[str]] = []

    def timed_pass(i: int):
        # Undo the previous pass's edits, then edit a fresh seeded sample.
        for p in edited:
            p.write_text(originals[p])
        edited[:] = [files[int(j)] for j in rng.choice(len(files), size=n_edit, replace=False)]
        for p in edited:
            p.write_text(_edit(originals[p], _language(p)))
        passes.append({str(p.relative_to(tree)) for p in edited})
        t = time.perf_counter()
        report = _scan(system, tree, cache)
        return time.perf_counter() - t, report

    raw = _traced_ops(tracer, timed_pass, ctx.seconds, min_repeats=3)
    spans = tracer.take() if tracer is not None else []
    walls = [w for (_, (w, _)) in raw]  # scan wall, without the edit step
    reports = [r for (_, (_, r)) in raw]

    # Verify every pass: unedited kernels reproduce the warm verdicts;
    # edited ones keep their tool verdicts, and their LLM verdict equals
    # the single-kernel detect path on the edited source.
    failed = 0
    edited_total = 0
    failures: list[str] = []
    for report, names in zip(reports, passes):
        table = _verdict_table(report)
        refs: dict[tuple[str, int], str] = {}
        by_lang: dict[str, list[tuple[tuple[str, int], str]]] = {}
        for rel in sorted(names):
            path = tree / rel
            language = _language(path)
            edited_file = SourceFile(path, rel, language, _edit(originals[path], language))
            for j, k in enumerate(extract_kernels(edited_file)):
                by_lang.setdefault(k.language, []).append(((rel, j), k.source))
        for language, items in by_lang.items():
            verdicts = system.detect_race_batch([s for _, s in items], language=language)
            refs.update({key: v for (key, _), v in zip(items, verdicts)})
        for (f, j), (tools, llm, parse_ok) in table.items():
            base_tools, base_llm, base_parse = baseline[(f.split("/", 1)[1], j)]
            if f in names:
                edited_total += 1
                ok = tools == base_tools and parse_ok == base_parse and llm == refs.get((f, j))
            else:
                ok = (tools, llm, parse_ok) == (base_tools, base_llm, base_parse)
            if not ok:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{f}#{j}: {(tools, llm, parse_ok)} vs base "
                                    f"{(base_tools, base_llm, base_parse)} ref {refs.get((f, j))}")
    # Leave the tree as generated.
    for p in edited:
        p.write_text(originals[p])

    n_kernels = warm.totals["kernels"]
    checks = {
        "vendored copies share one verdict table": copies_agree,
        "every pass scanned every kernel": all(r.totals["kernels"] == n_kernels for r in reports),
    }
    quality = _quality(reports[0], labels, strip_prefix=True)
    quality.pop("_counts")
    result = Result(
        setup_s=setup_s,
        op_s=walls,
        peak_rss_mb=self_peak_rss_mb(),
        attempted=n_kernels * len(reports),
        failed=failed,
        checks=checks,
        report={
            "kernels": n_kernels,
            "unique_kernels": warm.totals["unique_kernels"],
            "files_edited_per_pass": n_edit,
            "passes": len(walls),
            "pass_s": summarize(walls),
            "pass_stages_s": [
                [r.timing["walk_s"], r.timing["extract_s"], r.timing["detect_s"]] for r in reports
            ],
            "edited_kernels_checked": edited_total,
            "failures": failures,
            "cache_hits_per_pass": statistics.median(r.totals["cache_hits"] for r in reports),
            "timing": reports[0].timing,
        },
    )
    result.named = {
        "kernels_per_s": (n_kernels / statistics.median(walls), "1/s",
                          f"median of {len(walls)} passes"),
        "warm_fill_s": (warm_s, "s", "the cold pass that fills the cache (set-up, once)"),
    }
    if tracer is not None:
        result.per_layer, result.report["self_time_s"] = layers.layer_metrics(
            spans, layers.ROOT_SCAN, _overhead(walls), quality
        )
    return result


# -- build-small -------------------------------------------------------------------------


def _weight_digest(model) -> str:
    h = hashlib.blake2b(digest_size=12)
    for name, arr in sorted(model.state_dict().items()):
        arr = np.ascontiguousarray(arr)
        h.update(name.encode())
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def build_small(ctx: Context, tracer: Tracer | None) -> Result:
    """Builds of HPC-GPT (L2) from an empty model cache: collect ->
    pretrain base -> SFT -> calibrate -> persist."""
    from repro.core import SMALL_PRESET, HPCGPTSystem

    config = dataclasses.replace(SMALL_PRESET, seed=ctx.seed)
    # `repro build` before its first stage: import, construct the system.
    setup_s = _interpreter_setup(ctx, (
        "import dataclasses, repro.core as c\n"
        f"c.HPCGPTSystem(dataclasses.replace(c.SMALL_PRESET, seed={ctx.seed}))\n"
    ))

    def op(i: int):
        cache = ctx.work / f"build{i}"
        os.environ["REPRO_CACHE"] = str(cache)
        try:
            system = HPCGPTSystem(config)
            return cache, system, system.finetuned("l2")
        finally:
            os.environ["REPRO_CACHE"] = str(ctx.model_cache)

    runs = _traced_ops(tracer, op, ctx.seconds, min_repeats=2)
    builds = [(_weight_digest(model), system.threshold("l2")) for _, (_, system, model) in runs]
    persisted = [len(list(cache.glob("hpcgpt-l2-*.npz"))) for _, (cache, _, _) in runs]
    spans = tracer.take() if tracer is not None else []
    walls = [w for w, _ in runs]
    first = builds[0]
    failed = sum(1 for b in builds if b != first)
    result = Result(
        setup_s=setup_s,
        op_s=walls,
        peak_rss_mb=self_peak_rss_mb(),
        attempted=len(builds),
        failed=failed,
        checks={
            "same weights and threshold on every build": failed == 0,
            "every build persisted one checkpoint": set(persisted) == {1},
        },
        report={
            "builds": len(walls),
            "build_s": summarize(walls),
            "weight_digest": first[0],
            "threshold": first[1],
        },
    )
    result.named = {
        "build_s": (statistics.median(walls), "s", f"median of {len(walls)} builds"),
    }
    if tracer is not None:
        result.per_layer, result.report["self_time_s"] = layers.layer_metrics(
            spans, layers.ROOT_BUILD, _overhead(walls)
        )
    return result


# -- serve-mixed -------------------------------------------------------------------------


#: ``repro serve`` before its first request: import, load HPC-GPT and the
#: retrieval index, start the serving frontend.
SERVE_SETUP = (
    "from repro.core import SMALL_PRESET, HPCGPTSystem\n"
    "from repro.serve.server import ServingFrontend\n"
    "s = HPCGPTSystem(SMALL_PRESET)\n"
    "s.engine('l2')\n"
    "s.threshold('l2')\n"
    "s.retrieval_answerer()\n"
    "ServingFrontend(s).close()\n"
)


def serve_mixed(ctx: Context, tracer: Tracer | None) -> Result:
    """Closed-loop rounds of mixed requests (answer, retrieval answer,
    detect, ingest) through the serving frontend's micro-batching
    queues; every reply is checked."""
    from repro.serve.server import ServingFrontend

    setup_s = _interpreter_setup(ctx, SERVE_SETUP)
    questions, kernels = serving.make_inputs(ctx.seed)
    # Ingestion rewrites the persisted retrieval index: serve from a copy.
    cache = ctx.work / "serve-cache"
    shutil.copytree(ctx.model_cache, cache)
    os.environ["REPRO_CACHE"] = str(cache)
    try:
        system = _load_system()
        system.retrieval_answerer()
        expected = serving.expected_results(system, questions, kernels)
        rng = np.random.default_rng([ctx.seed, 4])

        def serve_round(tag: str):
            reqs = serving.make_round(rng, questions, kernels, expected, f"{ctx.seed}_{tag}")
            return serving.run_round(frontend, reqs)

        frontend = ServingFrontend(system)
        try:
            warm = serve_round("warm")
            runs = _traced_ops(tracer, lambda i: serve_round(str(i)), ctx.seconds, min_repeats=3)
        finally:
            frontend.close()
    finally:
        os.environ["REPRO_CACHE"] = str(ctx.model_cache)
    spans = tracer.take() if tracer is not None else []

    walls = [w for w, _ in runs]
    timed = [o for _, outcomes in runs for o in outcomes]
    everything = warm + timed
    failed = sum(1 for o in everything if not o.ok)

    def passed(kind: str) -> bool:
        return all(o.ok for o in everything if o.kind == kind)

    per_round = len(runs[0][1])
    result = Result(
        setup_s=setup_s,
        op_s=walls,
        peak_rss_mb=self_peak_rss_mb(),
        attempted=len(everything),
        failed=failed,
        checks={
            "served answers equal in-process answer_batch": passed("answer"),
            "served detections equal in-process detect_race_batch": passed("detect"),
            "retrieval answers are non-empty": passed("rag"),
            "every ingest indexed its document": passed("ingest"),
            "ingested facts answerable through retrieval": passed("fact"),
        },
        report={
            "clients": serving.CLIENTS,
            "requests_per_round": per_round,
            "rounds": len(walls),
            "round_s": summarize(walls),
            "latency_ms": {
                kind: summarize([o.latency_s * 1e3 for o in timed if o.kind == kind])
                for kind in ("answer", "rag", "detect", "ingest", "fact")
            },
            "errors": sorted({o.error for o in everything if o.error})[:5],
        },
    )
    result.named = {
        "round_ms": (statistics.median(walls) * 1e3, "ms",
                     f"median of {len(walls)} rounds of {per_round} requests, "
                     f"{serving.CLIENTS} closed-loop clients"),
        "throughput_rps": (per_round / statistics.median(walls), "1/s", "at the median round"),
    }
    for kind, summary in result.report["latency_ms"].items():
        result.named[f"{kind}_p50_ms"] = (summary["median"], "ms", f"n={summary['n']}")
        result.named[f"{kind}_tail_ms"] = (
            summary["tail"], "ms", f"p{summary['tail_p']:g}, n={summary['n']}"
        )
    if tracer is not None:
        result.per_layer, result.report["self_time_s"] = layers.layer_metrics(
            spans, layers.ROOT_REQUEST, _overhead(walls)
        )
    return result


WORKLOADS = {
    "scan-cold": scan_cold,
    "scan-rescan": scan_rescan,
    "serve-mixed": serve_mixed,
    "build-small": build_small,
}
