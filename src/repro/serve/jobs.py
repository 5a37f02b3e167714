"""Async job queue for long-running server work (scans, §5 updates).

``POST /api/scan`` and ``POST /api/update`` must not block the HTTP
handler (a repository scan or a continual-learning update can take
minutes), and must not stampede the model: every job runs on one daemon
worker in submission order, so a scan and an update never overlap,
while submission and status polling are O(1) dictionary operations.
Finished jobs keep their result until the queue is closed (a bounded
history evicts the oldest finished jobs).

A job's *kind* names its runner, its id prefix (``scan-000001``) and
how it serialises (:data:`FIELDS`).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

QUEUED, RUNNING, DONE, ERROR = "queued", "running", "done", "error"

#: Per kind, the JSON field names of the job's subject and result.
FIELDS = {"scan": ("path", "report"), "update": ("version", "result")}

#: Finished jobs kept for polling; older ones are evicted first.
MAX_FINISHED = 64


@dataclass
class Job:
    id: str
    kind: str
    subject: str
    options: dict = field(default_factory=dict)
    status: str = QUEUED
    result: dict | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def to_dict(self) -> dict:
        subject_key, result_key = FIELDS[self.kind]
        out = {
            "id": self.id,
            subject_key: self.subject,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out[result_key] = self.result
        return out


class JobQueue:
    """One worker thread draining jobs of every kind in submission order.

    ``runners`` maps each kind in :data:`FIELDS` to
    ``runner(subject, options) -> dict``, which does the work and
    returns the JSON-ready result; exceptions mark the job ``error``
    (the queue itself never dies).
    """

    def __init__(self, runners: dict[str, Callable[[str, dict], dict]]) -> None:
        self._runners = dict(runners)
        self._counters = {kind: itertools.count(1) for kind in self._runners}
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []  # submission order, for eviction
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    # -- API -----------------------------------------------------------------

    def submit(self, kind: str, subject: str, options: dict | None = None) -> Job:
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{type(self).__name__} is closed")
            job = Job(
                id=f"{kind}-{next(self._counters[kind]):06d}",
                kind=kind,
                subject=str(subject),
                options=dict(options or {}),
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._evict_locked()
        self._queue.put(job.id)
        return job

    def get(self, kind: str, job_id: str) -> Job | None:
        """The job ``job_id`` if it exists and is of ``kind``."""
        with self._lock:
            job = self._jobs.get(job_id)
        return job if job is not None and job.kind == kind else None

    def close(self, timeout: float = 10.0) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)

    # -- worker --------------------------------------------------------------

    def _evict_locked(self) -> None:
        finished = [i for i in self._order
                    if self._jobs[i].status in (DONE, ERROR)]
        while len(finished) > MAX_FINISHED:
            victim = finished.pop(0)
            self._jobs.pop(victim, None)
            self._order.remove(victim)

    def _loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
            if job is None:  # evicted while queued (pathological backlog)
                continue
            job.status = RUNNING
            job.started_at = time.time()
            try:
                job.result = self._runners[job.kind](job.subject, job.options)
                job.status = DONE
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                job.error = f"{type(exc).__name__}: {exc}"
                job.status = ERROR
            job.finished_at = time.time()
