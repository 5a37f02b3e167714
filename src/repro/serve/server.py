"""Web server and HPC-GPT API (Figure 1's deployment stage).

Endpoints (JSON over HTTP, stdlib ``http.server`` — no dependencies):

* ``GET  /``              — a minimal HTML GUI for HPC scientists;
* ``GET  /health``        — liveness + model metadata;
* ``POST /api/answer``    — ``{"question": ...}`` -> Task-1 answer; pass
  ``"retrieval": true`` for the hybrid §5 path (batched index search
  first, LM fallback);
* ``POST /api/detect``    — ``{"code": ..., "language": ...}`` -> yes/no;
* ``POST /api/knowledge`` — ``{"documents": [...]}`` -> §5 knowledge
  ingestion: each document is chunked, embedded, and appended to the
  persistent retrieval index (no retraining), so the posted facts are
  answerable immediately via ``"retrieval": true``;
* ``GET  /api/knowledge`` — retrieval index stats (chunk count, dim,
  fingerprint);
* ``POST /api/scan``      — ``{"path": ...}`` -> queued scan job id
  (long repository scans run on an async job queue, so they never
  block the micro-batcher serving answer/detect traffic);
* ``GET  /api/scan/<id>`` — job status, and the full report when done;
* ``POST /api/update``    — ``{"records": [...]}`` -> queued §5
  continual-learning job: resumes training on the new instruction
  records through the unified trainer, recalibrates the detection
  threshold, persists the update checkpoint, and rebuilds the engine
  (submission is non-blocking; the retrain holds the model lock, so
  answer/detect traffic queues until it completes);
* ``GET  /api/update/<id>`` — update job status + result when done.

``ThreadingHTTPServer`` handles each request on its own thread, so
requests are funnelled through a :class:`ServingFrontend`, which calls
a :class:`ServedSystem` directly: concurrent inference requests are
micro-batched — collected for a few milliseconds and decoded together
through the batched engine under one model lock — instead of racing
unsynchronised threads into a shared model.  Malformed bodies are 400s.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Protocol

from repro.llm.engine import MicroBatcher
from repro.serve.jobs import JobQueue
from repro.utils.languages import UnknownLanguageError, normalize_language

_GUI_HTML = """<!doctype html>
<html><head><title>HPC-GPT</title></head>
<body>
<h1>HPC-GPT</h1>
<p>Ask an HPC question (Task 1) or paste an OpenMP kernel (Task 2).</p>
<h2>Ask</h2>
<form onsubmit="ask(event)"><input id="q" size="80">
<label><input type="checkbox" id="rag"> ground in retrieval index</label>
<button>Ask</button></form>
<pre id="a"></pre>
<h2>Detect data race</h2>
<form onsubmit="detect(event)"><textarea id="code" rows="10" cols="80"></textarea>
<br><select id="lang"><option>C/C++</option><option>Fortran</option></select>
<button>Detect</button></form>
<pre id="d"></pre>
<script>
async function ask(e){e.preventDefault();
 const r=await fetch('/api/answer',{method:'POST',body:JSON.stringify({question:document.getElementById('q').value,retrieval:document.getElementById('rag').checked})});
 document.getElementById('a').textContent=JSON.stringify(await r.json(),null,1);}
async function detect(e){e.preventDefault();
 const r=await fetch('/api/detect',{method:'POST',body:JSON.stringify({code:document.getElementById('code').value,language:document.getElementById('lang').value})});
 document.getElementById('d').textContent=JSON.stringify(await r.json(),null,1);}
</script></body></html>
"""


class ServedSystem(Protocol):
    """Exactly what :class:`ServingFrontend` calls on its system.

    :class:`repro.core.HPCGPTSystem` implements it, and so do the test
    stubs.  The system guards its own lazy builds and retrieval state;
    the frontend only keeps forwards and updates apart."""

    def answer_batch(self, questions: list[str], version: str = "l2") -> list[str]: ...

    def answer_retrieval_batch(
        self, questions: list[str], version: str = "l2"
    ) -> list[str]: ...

    def detect_race_batch(self, codes: list[str], language: str = "C/C++") -> list[str]: ...

    def index_documents(self, documents: list, max_tokens: int = 128) -> dict: ...

    def retrieval_stats(self) -> dict: ...

    def finetuned(self, version: str = "l2") -> Any: ...

    def update_with(self, records: list, version: str = "l2",
                    epochs: int | None = None) -> Any: ...

    def threshold(self, version: str = "l2") -> float: ...

    def engine(self, version: str = "l2") -> Any: ...


class ServingFrontend:
    """Thread-safe facade between the HTTP handlers and a
    :class:`ServedSystem`.

    One lock, the model lock, keeps forwards and updates apart.  It is
    taken by each micro-batch (two :class:`MicroBatcher` queues, one per
    op kind, gather concurrent requests for ``window_ms`` and serve each
    batch in one batched call), by a scan's engine phase, and by an
    update job end to end.  Health and retrieval calls go straight to
    the system: it returns a built model without locking and serialises
    retrieval behind its own lock.  Scans and updates share one job
    worker, so they run one at a time in submission order — a scan
    captures the engine and its cache fingerprint at start, and an
    update landing mid-scan would leave it scoring through stale state.
    """

    def __init__(self, system: ServedSystem, window_ms: float = 5.0,
                 max_batch: int = 16) -> None:
        self.system = system
        self._system_lock = threading.Lock()
        self._answer_queue = MicroBatcher(self._answer_many, window_ms, max_batch)
        self._detect_queue = MicroBatcher(self._detect_many, window_ms, max_batch)
        self.jobs = JobQueue({"scan": self._scan_runner, "update": self._update_runner})

    # -- batch runners (worker threads) --------------------------------------

    def _dispatch_grouped(self, items, run_group) -> list:
        """Dispatch ``(payload, key)`` items under the model lock:
        group by key and run ``run_group(payloads, key)`` once per group.

        Failures are isolated per group: a slot holding an ``Exception``
        is raised only for its own caller by :class:`MicroBatcher`, so
        one bad request cannot poison the rest of its micro-batch."""
        with self._system_lock:
            results: list = [None] * len(items)
            groups: dict = {}
            for idx, (_, key) in enumerate(items):
                groups.setdefault(key, []).append(idx)
            for key, idxs in groups.items():
                try:
                    outs = run_group([items[i][0] for i in idxs], key)
                    if len(outs) != len(idxs):
                        raise RuntimeError(
                            f"batched call returned {len(outs)} results for {len(idxs)} items"
                        )
                except Exception as exc:  # noqa: BLE001 - isolate per group
                    outs = [exc] * len(idxs)
                for i, out in zip(idxs, outs):
                    results[i] = out
            return results

    def _answer_many(self, items: list[tuple[str, tuple[str, bool]]]) -> list:
        """Answer a micro-batch of ``(question, (version, retrieval))``
        items: one batched call per (version, retrieval) group."""

        def run_group(questions, key):
            version, retrieval = key
            if retrieval:
                return self.system.answer_retrieval_batch(questions, version=version)
            return self.system.answer_batch(questions, version=version)

        return self._dispatch_grouped(items, run_group)

    def _detect_many(self, items: list[tuple[str, str]]) -> list:
        return self._dispatch_grouped(
            items,
            lambda codes, language: self.system.detect_race_batch(codes, language=language),
        )

    # -- request API (handler threads) ---------------------------------------

    def answer(self, question: str, version: str = "l2", retrieval: bool = False) -> str:
        return self._answer_queue.submit((question, (version, bool(retrieval))))

    def detect(self, code: str, language: str = "C/C++") -> str:
        return self._detect_queue.submit((code, language))

    def ingest(self, documents: list, max_tokens: int | None = None) -> dict:
        """Chunk, embed, and index posted documents (the system's
        retrieval lock serialises this against concurrent
        retrieval-grounded answers)."""
        kwargs = {} if max_tokens is None else {"max_tokens": int(max_tokens)}
        return self.system.index_documents(documents, **kwargs)

    def knowledge_stats(self) -> dict:
        return self.system.retrieval_stats()

    def finetuned(self, version: str = "l2"):
        return self.system.finetuned(version)

    # -- async jobs: repository scans and §5 updates -------------------------

    def _scan_runner(self, path: str, options: dict) -> dict:
        """One scan job: build a pipeline from the request options and
        run it.  Only the engine phase takes the model lock (via
        ``llm_lock``), so answer/detect traffic keeps flowing while the
        walker, extractor, and tool ensemble work."""
        from repro.scan import ScanConfig, ScanPipeline

        config = ScanConfig(
            languages=tuple(options["languages"]) if options.get("languages") else None,
            tools_only=options["tools_only"],
            use_cache=not options["no_cache"],
            strategies=tuple(options["strategies"])
            if options.get("strategies") else ("random",),
        )
        pipeline = ScanPipeline(
            system=None if config.tools_only else self.system,
            config=config,
            llm_lock=self._system_lock,
        )
        return pipeline.scan(path).to_dict()

    def _update_runner(self, version: str, options: dict) -> dict:
        """One update job: resume training on the new records, then
        leave the system serving the updated model.  Holds the model
        lock end-to-end — answers served mid-retrain would mix weights
        from half-applied steps."""
        import dataclasses

        from repro.datagen.schema import InstructionRecord

        def parse(d: dict) -> InstructionRecord:
            rec = InstructionRecord.from_json(d)
            # Plain API payloads may carry task/language at the top
            # level instead of under "meta"; honour them — calibration
            # refits the detection threshold only over records tagged
            # task="datarace", so dropping the tag would silently
            # exclude new race examples from recalibration.
            updates = {
                field: str(d[field])
                for field in ("task", "language")
                if not getattr(rec, field) and d.get(field)
            }
            return dataclasses.replace(rec, **updates) if updates else rec

        records = [parse(d) for d in options["records"]]
        epochs = options.get("epochs")
        with self._system_lock:
            stats = self.system.update_with(records, version=version, epochs=epochs)
            threshold = self.system.threshold(version)
            # Rebuild eagerly so the first post-update request does not
            # pay the engine warm-up.
            self.system.engine(version)
        result = {"version": version, "n_records": len(records),
                  "threshold": float(threshold)}
        if stats is not None:
            result.update(
                steps=int(stats.steps),
                skipped_steps=int(stats.skipped_steps),
                mean_loss=float(stats.mean_loss()),
                seconds=float(stats.seconds),
            )
        return result

    def close(self) -> None:
        self._answer_queue.close()
        self._detect_queue.close()
        self.jobs.close()


class _BadRequest(Exception):
    """A malformed request body: answered with HTTP 400."""


def _text_field(payload: dict, key: str) -> str:
    """``payload[key]`` as a non-empty, stripped string."""
    value = payload.get(key, "")
    if not isinstance(value, str):
        raise _BadRequest(f"{key!r} must be a string")
    if not value.strip():
        raise _BadRequest(f"missing {key!r}")
    return value.strip()


def _positive_int(payload: dict, key: str) -> int | None:
    """``payload[key]`` as an integer >= 1, or ``None`` when absent."""
    if payload.get(key) is None:
        return None
    try:
        value = int(payload[key])
    except (TypeError, ValueError):
        raise _BadRequest(f"{key!r} must be an integer") from None
    if value < 1:
        raise _BadRequest(f"{key!r} must be >= 1")
    return value


def _flag(payload: dict, key: str) -> bool:
    """``payload[key]`` as a JSON boolean; an absent flag is false."""
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise _BadRequest(f"{key!r} must be true or false")
    return value


def _version(payload: dict) -> str:
    version = payload.get("version", "l2")
    if version not in ("l1", "l2"):
        raise _BadRequest(f"unknown version {version!r}; have ['l1', 'l2']")
    return version


class HPCGPTRequestHandler(BaseHTTPRequestHandler):
    """Dispatches API requests to the bound :class:`ServingFrontend`."""

    frontend: ServingFrontend = None  # injected by make_server
    protocol_version = "HTTP/1.1"

    # -- helpers -----------------------------------------------------------

    def _send(self, code: int, payload, content_type: str = "application/json") -> None:
        body = (
            payload.encode("utf-8")
            if isinstance(payload, str)
            else json.dumps(payload).encode("utf-8")
        )
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise _BadRequest("invalid JSON body") from None
        if not isinstance(payload, dict):
            raise _BadRequest("JSON body must be an object")
        return payload

    def log_message(self, fmt, *args):  # pragma: no cover - silence
        pass

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/":
            self._send(200, _GUI_HTML, content_type="text/html")
        elif self.path.startswith(("/api/scan/", "/api/update/")):
            _, _, kind, job_id = self.path.split("/", 3)
            job = self.frontend.jobs.get(kind, job_id)
            if job is None:
                self._send(404, {"error": f"unknown {kind} job {job_id!r}"})
            else:
                self._send(200, job.to_dict())
        elif self.path == "/api/knowledge":
            self._send(200, self.frontend.knowledge_stats())
        elif self.path == "/health":
            model = self.frontend.finetuned("l2")
            self._send(
                200,
                {
                    "status": "ok",
                    "model": model.config.name,
                    "parameters": model.num_parameters(),
                    "versions": ["l1", "l2"],
                },
            )
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        routes = {
            "/api/answer": self._post_answer,
            "/api/detect": self._post_detect,
            "/api/knowledge": self._post_knowledge,
            "/api/scan": self._post_scan,
            "/api/update": self._post_update,
        }
        try:
            payload = self._read_json()
            route = routes.get(self.path)
            if route is None:
                self._send(404, {"error": f"unknown path {self.path}"})
            else:
                route(payload)
        except (_BadRequest, UnknownLanguageError) as exc:
            self._send(400, {"error": str(exc)})

    def _post_answer(self, payload: dict) -> None:
        question = _text_field(payload, "question")
        version = _version(payload)
        retrieval = _flag(payload, "retrieval")
        answer = self.frontend.answer(question, version=version, retrieval=retrieval)
        self._send(
            200,
            {
                "question": question,
                "answer": answer,
                "version": version,
                "retrieval": retrieval,
            },
        )

    def _post_detect(self, payload: dict) -> None:
        code = _text_field(payload, "code")
        language = normalize_language(payload.get("language", "C/C++"))
        verdict = self.frontend.detect(code, language=language)
        self._send(200, {"language": language, "data_race": verdict})

    def _post_knowledge(self, payload: dict) -> None:
        documents = payload.get("documents")
        if not isinstance(documents, list) or not documents:
            raise _BadRequest("missing 'documents' (non-empty list)")
        for i, doc in enumerate(documents):
            if isinstance(doc, str):
                if not doc.strip():
                    raise _BadRequest(f"documents[{i}] is empty")
            elif not isinstance(doc, dict) or not str(doc.get("text", "")).strip():
                raise _BadRequest(f"documents[{i}] needs a non-empty 'text' field")
        max_tokens = _positive_int(payload, "max_tokens")
        try:
            result = self.frontend.ingest(documents, max_tokens=max_tokens)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        self._send(200, result)

    def _post_scan(self, payload: dict) -> None:
        from pathlib import Path

        path = str(payload.get("path", "")).strip()
        if not path:
            raise _BadRequest("missing 'path'")
        if not Path(path).exists():
            raise _BadRequest(f"scan path {path!r} does not exist")
        options = {k: _flag(payload, k) for k in ("tools_only", "no_cache")}
        for key in ("languages", "strategies"):
            if payload.get(key) is None:
                continue
            if not isinstance(payload[key], list):
                raise _BadRequest(f"{key!r} must be a list")
            if not all(isinstance(v, str) for v in payload[key]):
                raise _BadRequest(f"{key!r} must list strings")
            options[key] = payload[key]
        if options.get("languages"):
            options["languages"] = [normalize_language(l) for l in options["languages"]]
        if options.get("strategies"):
            from repro.runtime.schedules import SCHEDULE_STRATEGIES

            unknown = [
                s for s in options["strategies"] if s not in SCHEDULE_STRATEGIES
            ]
            if unknown:
                raise _BadRequest(
                    f"unknown schedule strategies {unknown!r}; "
                    f"have {sorted(SCHEDULE_STRATEGIES)}"
                )
        job = self.frontend.jobs.submit("scan", path, options)
        self._send(202, {"id": job.id, "status": job.status, "path": job.subject})

    def _post_update(self, payload: dict) -> None:
        records = payload.get("records")
        if not isinstance(records, list) or not records:
            raise _BadRequest("missing 'records' (non-empty list)")
        for i, rec in enumerate(records):
            if not isinstance(rec, dict) or not rec.get("instruction") or "output" not in rec:
                raise _BadRequest(f"records[{i}] needs 'instruction' and 'output' fields")
        version = _version(payload)
        options: dict = {"records": records}
        epochs = _positive_int(payload, "epochs")
        if epochs is not None:
            options["epochs"] = epochs
        job = self.frontend.jobs.submit("update", version, options)
        self._send(202, {"id": job.id, "status": job.status, "version": version})


def make_server(
    system,
    host: str = "127.0.0.1",
    port: int = 0,
    window_ms: float = 5.0,
    max_batch: int = 16,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``system``.

    ``port=0`` picks a free port (inspect ``server.server_address``).
    The returned server exposes the micro-batching facade as
    ``server.frontend`` (``server.frontend.close()`` drains it).
    """
    frontend = ServingFrontend(system, window_ms=window_ms, max_batch=max_batch)
    handler = type("BoundHandler", (HPCGPTRequestHandler,), {"frontend": frontend})
    server = ThreadingHTTPServer((host, port), handler)
    server.frontend = frontend
    return server


def serve_forever(system, host: str = "127.0.0.1", port: int = 8080):
    """Blocking entry point used by the deployment example."""
    server = make_server(system, host, port)
    print(f"HPC-GPT serving on http://{host}:{server.server_address[1]}")
    server.serve_forever()


def start_background(system, host: str = "127.0.0.1") -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Start the server on a free port in a daemon thread (tests/examples)."""
    server = make_server(system, host, 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
