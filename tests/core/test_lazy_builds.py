"""First builds of the system's shared substrate happen once, even when
several threads touch it cold at the same time (e.g. a first ingest
racing the answer worker's first build)."""

import dataclasses
import threading
import time

import repro.core.hpcgpt as hpcgpt
from repro.core import SMALL_PRESET, HPCGPTSystem


def test_concurrent_first_touch_builds_once(monkeypatch):
    builds = {"registry": 0, "tokenizer": 0, "knowledge": 0}
    real_knowledge_base = hpcgpt.build_knowledge_base

    class SlowCountingRegistry:
        """Stands in for ModelRegistry: slow to build, counts builds."""

        def __init__(self, **kwargs):
            builds["registry"] += 1
            time.sleep(0.2)

        def tokenizer(self):
            builds["tokenizer"] += 1
            time.sleep(0.2)
            return object()

    def slow_knowledge_base(**kwargs):
        builds["knowledge"] += 1
        time.sleep(0.2)
        return real_knowledge_base(**kwargs)

    monkeypatch.setattr(hpcgpt, "ModelRegistry", SlowCountingRegistry)
    monkeypatch.setattr(hpcgpt, "build_knowledge_base", slow_knowledge_base)
    system = HPCGPTSystem(dataclasses.replace(SMALL_PRESET, use_cache=False))

    probes = [
        lambda: system.registry,
        lambda: system.tokenizer,
        lambda: system.tokenizer,
        lambda: system.knowledge_base,
    ]
    gate = threading.Barrier(len(probes), timeout=5.0)

    def touch(probe):
        gate.wait()
        probe()

    threads = [threading.Thread(target=touch, args=(p,)) for p in probes]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)

    assert builds == {"registry": 1, "tokenizer": 1, "knowledge": 1}
    assert system.tokenizer is system.tokenizer
