"""Persistent content-addressed verdict cache for the scanner.

Verdicts are keyed by the kernel *content* (source text + language)
plus a pipeline *fingerprint* (detector set, harness parameters, model
identity, threshold, schema version).  Editing a kernel, changing the
ensemble, or retraining the model each change the key, so invalidation
is automatic — there is nothing to expire.

Layout: ``<root>/<key[:2]>/<key>.json`` (sharded so one directory
never holds hundreds of thousands of entries).  Writes go through a
temp file + ``os.replace`` so concurrent scanners can share one cache
without ever reading a torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

#: Bump when the cached payload layout changes.
SCHEMA_VERSION = 2


def kernel_key(source: str, language: str, fingerprint: str) -> str:
    """Stable hex content address for one kernel under one pipeline."""
    h = hashlib.blake2b(digest_size=16)
    h.update(language.encode("utf-8"))
    h.update(b"\x00")
    h.update(fingerprint.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.encode("utf-8"))
    return h.hexdigest()


def pipeline_fingerprint(parts: dict) -> str:
    """Hash of everything (besides kernel content) that determines a
    verdict; include ``schema`` so payload-layout bumps invalidate."""
    payload = json.dumps({**parts, "schema": SCHEMA_VERSION},
                         sort_keys=True, default=str)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}


class VerdictCache:
    """On-disk JSON store with hit/miss accounting (thread-safe)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        with self._lock:
            self.stats.writes += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
