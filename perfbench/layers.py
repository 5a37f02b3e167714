"""Which public functions of ``repro`` the traced run wraps, and how the
recorded spans turn into the per-layer metrics of ``BENCHMARK.json``.

Layer names follow the package layout (``scan.walker``, ``runtime``,
``llm.engine``, ...).  A layer's ``busy_s`` is the self time of its
spans (their own time minus wrapped callees on the same thread); the
build phases (collect, pretrain, SFT, calibrate) are timed whole,
callees included.  Times and counts are divided by the number of root
operations (scans, re-scan passes, requests or builds), so runs of
different lengths compare.
"""

from __future__ import annotations

import re
import statistics
import threading
import time

from perfbench.spans import Span, Tracer, coverage, self_times

#: The four tool detectors of the scan ensemble, by metric slug.
TOOLS = {
    "LLOV": "llov",
    "Intel Inspector": "inspector",
    "ROMP": "romp",
    "Thread Sanitizer": "tsan",
}

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "scan.walker.busy_s": "s",
    "scan.walker.files": "count",
    "scan.extractor.busy_s": "s",
    "scan.extractor.kernels_per_s": "1/s",
    "scan.cache.get_s": "s",
    "scan.cache.put_s": "s",
    "scan.cache.hit_ratio": "ratio",
    "scan.dedupe_ratio": "ratio",
    "runtime.execute.cpu_s": "s",
    "runtime.execute.wait_s": "s",
    "runtime.events": "count",
    "runtime.events_per_cpu_s": "1/s",
    "runtime.hb_races.cpu_s": "s",
    "runtime.hb_races.calls": "count",
    **{f"detectors.{slug}.cpu_s": "s" for slug in TOOLS.values()},
    **{f"detectors.{slug}.decided_ratio": "ratio" for slug in TOOLS.values()},
    "detectors.decided_share": "ratio",
    "detectors.accuracy": "ratio",
    "llm.detect.accuracy": "ratio",
    "llm.engine.score.busy_s": "s",
    "llm.engine.score.prompts": "count",
    "llm.engine.pad_ratio": "ratio",
    "llm.engine.generate.busy_s": "s",
    "llm.engine.batch_width": "count",
    "llm.engine.generate.tokens": "count",
    "tokenizer.encode.busy_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.batch_width": "count",
    "retrieval.search.busy_s": "s",
    "retrieval.ingest.busy_s": "s",
    "datagen.collect.busy_s": "s",
    "train.pretrain.tokens_per_s": "1/s",
    "train.sft.busy_s": "s",
    "core.calibrate.busy_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Root span of each workload family.
ROOT_SCAN = "scan"
ROOT_REQUEST = "request"
ROOT_BUILD = "build"


def _slug(name: str) -> str:
    return TOOLS.get(name) or re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every workload (inactive until
    ``tracer.active`` is set)."""
    import repro.core.hpcgpt as hpcgpt
    import repro.detectors.romp as romp
    import repro.detectors.tsan as tsan
    import repro.llm.registry as registry
    import repro.runtime.machine as machine
    import repro.scan.pipeline as pipeline
    from repro.detectors.base import Detector, Verdict
    from repro.finetune import SFTTrainer
    from repro.llm.engine import InferenceEngine, MicroBatcher, clamp_prompt
    from repro.retrieval import VectorStore
    from repro.scan.cache import VerdictCache
    from repro.serve.server import ServingFrontend
    from repro.tokenizer import BPETokenizer

    w = tracer.wrap

    # -- scan ----------------------------------------------------------------
    w(pipeline.ScanPipeline, "scan", ROOT_SCAN)
    w(pipeline, "walk_tree", "scan.walker",
      after=lambda r, a, k, at: at.update(files=len(r[0])))
    w(pipeline, "extract_kernels", "scan.extractor",
      after=lambda r, a, k, at: at.update(kernels=len(r)))
    w(pipeline, "kernel_key", "scan.dedupe")
    w(VerdictCache, "get", "scan.cache.get",
      after=lambda r, a, k, at: at.update(hit=r is not None))
    w(VerdictCache, "put", "scan.cache.put")

    # -- runtime and detectors -----------------------------------------------
    w(machine.Machine, "traces", "runtime.execute",
      after=lambda r, a, k, at: at.update(events=sum(len(t.events) for t in r)))
    for module in (machine, tsan, romp):  # names the detectors imported
        w(module, "hb_races", "runtime.hb_races")
    w(Detector, "run", lambda a: f"detectors.{_slug(a[0].name)}",
      after=lambda r, a, k, at: at.update(decided=r.verdict != Verdict.UNSUPPORTED))

    # -- engine and tokenizer --------------------------------------------------
    def score_slots(args, kwargs):
        engine, prompts = args[0], args[1]
        batch_size = kwargs.get("batch_size", args[2] if len(args) > 2 else 16)
        ctx = engine.model.config.max_seq_len
        lens = sorted(len(clamp_prompt(list(p), 0, ctx)) for p in prompts)
        slots = pads = 0
        for start in range(0, len(lens), batch_size):
            chunk = lens[start:start + batch_size]
            slots += len(chunk) * chunk[-1]
            pads += sum(chunk[-1] - n for n in chunk)
        return {"slots": slots, "pads": pads}

    w(InferenceEngine, "yes_no_margins", "llm.engine.score",
      before=lambda a, k: {"prompts": len(a[1])})
    w(InferenceEngine, "next_token_logits", "llm.engine.score.prefill", before=score_slots)
    w(InferenceEngine, "generate_batch", "llm.engine.generate",
      before=lambda a, k: {"width": len(a[1])},
      after=lambda r, a, k, at: at.update(tokens=sum(len(o) for o in r)))
    w(BPETokenizer, "encode", "tokenizer.encode")

    # -- serving ----------------------------------------------------------------
    submitted: dict[int, float] = {}
    lock = threading.Lock()

    def on_submit(args, kwargs):
        with lock:
            submitted[id(args[1])] = time.perf_counter()
        return {}

    def on_batch(args, kwargs):
        now = time.perf_counter()
        items = args[1]
        with lock:
            waits = [now - submitted.pop(id(it), now) for it in items]
        return {"width": len(items), "waits": waits}

    for method in ("answer", "detect", "ingest"):  # the request API
        w(ServingFrontend, method, ROOT_REQUEST)
    w(MicroBatcher, "submit", "serve.submit", before=on_submit)
    w(ServingFrontend, "_answer_many", "serve.batch", before=on_batch)
    w(ServingFrontend, "_detect_many", "serve.batch", before=on_batch)
    w(hpcgpt.HPCGPTSystem, "answer_batch", "core.answer")
    w(hpcgpt.HPCGPTSystem, "detect_race_batch", "core.detect")
    w(hpcgpt.HPCGPTSystem, "answer_retrieval_batch", "core.answer_retrieval")
    w(VectorStore, "search_batch", "retrieval.search")
    w(VectorStore, "search", "retrieval.search")
    w(hpcgpt.HPCGPTSystem, "index_documents", "retrieval.ingest")

    # -- build ------------------------------------------------------------------
    w(hpcgpt.HPCGPTSystem, "finetuned", ROOT_BUILD)
    w(hpcgpt.HPCGPTSystem, "collect_data", "datagen.collect")
    w(hpcgpt, "build_knowledge_base", "datagen.knowledge")
    w(hpcgpt, "generate_training_pool", "datagen.pool")
    w(registry, "build_general_corpus", "datagen.corpus")
    w(registry, "train_tokenizer_on", "tokenizer.train")
    w(registry, "pretrain", "train.pretrain",
      before=lambda a, k: {"tokens": a[1].steps * a[1].batch_size * a[1].seq_len})
    w(SFTTrainer, "train", "train.sft")
    w(hpcgpt.HPCGPTSystem, "_calibrate", "core.calibrate")
    w(hpcgpt, "save_state", "core.persist")


def _layer(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def layer_metrics(
    spans: list[Span],
    root: str,
    overhead_share: float,
    quality: dict[str, float] | None = None,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics over ``spans`` (every metric of
    :data:`PER_LAYER`; layers the workload never entered read 0), plus
    the raw per-span-name self-time table for the report."""
    selfs = self_times(spans)
    n_roots = max(1, sum(1 for s in spans if s.name == root))

    def pick(prefix: str) -> list[Span]:
        return [s for s in spans if _layer(s.name, prefix)]

    def busy(prefix: str) -> float:
        return sum(selfs[s.sid][0] for s in pick(prefix)) / n_roots

    def cpu(prefix: str) -> float:
        return sum(selfs[s.sid][1] for s in pick(prefix)) / n_roots

    def inclusive(name: str) -> float:
        return sum(s.wall for s in spans if s.name == name) / n_roots

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    m["scan.walker.busy_s"] = busy("scan.walker")
    m["scan.walker.files"] = attr_sum("scan.walker", "files") / n_roots
    m["scan.extractor.busy_s"] = busy("scan.extractor")
    m["scan.extractor.kernels_per_s"] = ratio(
        attr_sum("scan.extractor", "kernels") / n_roots, m["scan.extractor.busy_s"]
    )
    m["scan.cache.get_s"] = busy("scan.cache.get")
    m["scan.cache.put_s"] = busy("scan.cache.put")
    gets = pick("scan.cache.get")
    m["scan.cache.hit_ratio"] = ratio(sum(1 for s in gets if s.attrs.get("hit")), len(gets))

    execs = [s for s in spans if s.name == "runtime.execute"]
    exec_wall = sum(s.wall for s in execs)
    exec_cpu = sum(s.cpu for s in execs)
    events = attr_sum("runtime.execute", "events")
    m["runtime.execute.cpu_s"] = exec_cpu / n_roots
    m["runtime.execute.wait_s"] = (exec_wall - exec_cpu) / n_roots
    m["runtime.events"] = events / n_roots
    m["runtime.events_per_cpu_s"] = ratio(events, exec_cpu)
    m["runtime.hb_races.cpu_s"] = cpu("runtime.hb_races")
    m["runtime.hb_races.calls"] = len(pick("runtime.hb_races")) / n_roots
    for slug in TOOLS.values():
        m[f"detectors.{slug}.cpu_s"] = cpu(f"detectors.{slug}")

    m["llm.engine.score.busy_s"] = busy("llm.engine.score")
    m["llm.engine.score.prompts"] = attr_sum("llm.engine.score", "prompts") / n_roots
    m["llm.engine.pad_ratio"] = ratio(
        attr_sum("llm.engine.score.prefill", "pads"),
        attr_sum("llm.engine.score.prefill", "slots"),
    )
    gens = pick("llm.engine.generate")
    m["llm.engine.generate.busy_s"] = busy("llm.engine.generate")
    m["llm.engine.batch_width"] = ratio(attr_sum("llm.engine.generate", "width"), len(gens))
    m["llm.engine.generate.tokens"] = attr_sum("llm.engine.generate", "tokens") / n_roots
    m["tokenizer.encode.busy_s"] = busy("tokenizer.encode")

    batches = [s for s in spans if s.name == "serve.batch"]
    waits = [w for s in batches for w in s.attrs.get("waits", [])]
    m["serve.queue_wait_ms"] = statistics.median(waits) * 1e3 if waits else 0.0
    m["serve.batch_width"] = ratio(attr_sum("serve.batch", "width"), len(batches))
    m["retrieval.search.busy_s"] = busy("retrieval.search")
    m["retrieval.ingest.busy_s"] = busy("retrieval.ingest")

    # Build phases are timed whole: what the phase costs, callees included.
    m["datagen.collect.busy_s"] = inclusive("datagen.collect")
    m["train.pretrain.tokens_per_s"] = ratio(
        attr_sum("train.pretrain", "tokens") / n_roots, inclusive("train.pretrain")
    )
    m["train.sft.busy_s"] = inclusive("train.sft")
    m["core.calibrate.busy_s"] = inclusive("core.calibrate")

    total, covered = coverage(spans, root)
    m["trace.unattributed_share"] = ratio(total - covered, total)
    m["trace.overhead_share"] = overhead_share
    m.update(quality or {})

    table: dict[str, float] = {}
    for s in spans:
        if s.name != root:
            table[s.name] = table.get(s.name, 0.0) + selfs[s.sid][0] / n_roots
    table[f"{root} (unattributed)"] = (total - covered) / n_roots
    return m, table
