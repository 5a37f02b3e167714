"""The serving lock discipline under concurrent traffic: the model lock
keeps forwards and updates apart, health and retrieval go straight to
the system, and scans and updates share one job worker."""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import HPCGPTClient

RECORDS = [{"instruction": "does this race?", "output": "yes", "task": "datarace"}]

RACY_C = (
    "int i;\n"
    "double y[32], x[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
)


@pytest.fixture()
def blocking_system(stub_system_cls):
    class BlockingUpdateSystem(stub_system_cls):
        """``update_with`` raises an "updating" flag and blocks until
        released; every batch records whether it ran under the flag."""

        def __init__(self):
            super().__init__()
            self.updating = threading.Event()
            self.release = threading.Event()
            self.batches_during_update = 0

        def update_with(self, records, version="l2", epochs=None):
            self.updating.set()
            try:
                self.release.wait(30.0)
            finally:
                self.updating.clear()
            return super().update_with(records, version, epochs)

        def _note_batch(self):
            if self.updating.is_set():
                self.batches_during_update += 1

        def answer_batch(self, questions, version="l2"):
            self._note_batch()
            return super().answer_batch(questions, version)

        def answer_retrieval_batch(self, questions, version="l2"):
            self._note_batch()
            return super().answer_retrieval_batch(questions, version)

        def detect_race_batch(self, codes, language="C/C++"):
            self._note_batch()
            return super().detect_race_batch(codes, language)

    system = BlockingUpdateSystem()
    yield system
    system.release.set()  # never leave a worker blocked on a failed test


@pytest.fixture()
def mid_update(serve, blocking_system):
    """A server whose first update job is running (and blocked)."""
    url = serve(blocking_system)
    client = HPCGPTClient(url)
    update_id = client.update_start(RECORDS)
    assert blocking_system.updating.wait(5.0)
    return blocking_system, client, url, update_id


def _timed(probe) -> float:
    t0 = time.monotonic()
    probe()
    return time.monotonic() - t0


def test_batches_wait_for_the_update(mid_update):
    system, client, _, update_id = mid_update
    results = []

    def request(i):
        if i % 3 == 0:
            results.append(client.detect(f"#pragma omp parallel for // {i}"))
        else:
            results.append(client.answer(f"q{i}", retrieval=i % 3 == 1))

    threads = [threading.Thread(target=request, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    time.sleep(0.3)
    assert results == []  # every batch waits on the model lock
    system.release.set()
    for t in threads:
        t.join(timeout=10.0)
    assert client.update_wait(update_id, timeout=10.0)["status"] == "done"
    assert len(results) == 12
    assert system.batches_during_update == 0
    served = system.answer_batches + system.retrieval_batches + system.detect_batches
    assert sum(len(batch) for batch in served) == 12


def test_health_and_retrieval_stay_live(mid_update):
    _, client, _, update_id = mid_update
    assert _timed(client.health) < 0.5
    assert _timed(client.knowledge_stats) < 0.5
    assert _timed(lambda: client.ingest(["A fact posted mid-update."])) < 0.5
    assert client.update_status(update_id)["status"] == "running"


def test_scan_queues_behind_the_update(mid_update, tmp_path):
    system, client, _, update_id = mid_update
    (tmp_path / "racy.c").write_text(RACY_C)
    scan_id = client.scan_start(str(tmp_path), tools_only=True, no_cache=True)
    time.sleep(0.3)
    assert client.scan_status(scan_id)["status"] == "queued"
    system.release.set()
    update = client.update_wait(update_id, timeout=10.0)
    scan = client.scan_wait(scan_id, timeout=30.0)
    assert update["status"] == "done" and scan["status"] == "done"
    assert scan["started_at"] >= update["finished_at"]


def test_job_ids_are_scoped_to_their_endpoint(mid_update, tmp_path):
    _, client, url, update_id = mid_update
    scan_id = client.scan_start(str(tmp_path), tools_only=True, no_cache=True)
    for path in (f"/api/scan/{update_id}", f"/api/update/{scan_id}"):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + path)
        assert err.value.code == 404
