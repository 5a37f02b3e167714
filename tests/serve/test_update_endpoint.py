"""Tests for the §5 continual-learning endpoint (async update jobs)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import HPCGPTClient


RECORDS = [
    {"instruction": "does this race?", "input": "", "output": "yes",
     "task": "datarace", "language": "C/C++"},
    {"instruction": "is MPI a PLP?", "output": "no"},
]


@pytest.fixture()
def update_server(serve, stub_system):
    return stub_system, serve(stub_system)


class TestUpdateEndpoint:
    def test_update_job_lifecycle(self, update_server):
        system, url = update_server
        client = HPCGPTClient(url)
        job_id = client.update_start(RECORDS, version="l2", epochs=2)
        assert job_id.startswith("update-")
        status = client.update_wait(job_id, timeout=10.0)
        assert status["status"] == "done"
        assert status["version"] == "l2"
        result = status["result"]
        assert result == {
            "version": "l2", "n_records": 2, "threshold": 0.125,
            "steps": 3, "skipped_steps": 0, "mean_loss": 0.5, "seconds": 0.01,
        }
        # The system received parsed InstructionRecords with the epochs
        # override, and the engine was rebuilt on completion.
        (records, version, epochs), = system.updates
        assert version == "l2" and epochs == 2
        assert [r.instruction for r in records] == [
            "does this race?", "is MPI a PLP?",
        ]
        # Top-level task/language tags survive parsing (calibration
        # refits the threshold only over task="datarace" records).
        assert [r.task for r in records] == ["datarace", ""]
        assert records[0].language == "C/C++"
        assert system.engine_builds == ["l2"]

    def test_failed_update_reports_error(self, serve, stub_system_cls):
        class FailingSystem(stub_system_cls):
            def update_with(self, records, version="l2", epochs=None):
                raise RuntimeError("update exploded")

        client = HPCGPTClient(serve(FailingSystem()))
        job_id = client.update_start(RECORDS)
        status = client.update_wait(job_id, timeout=10.0)
        assert status["status"] == "error"
        assert "update exploded" in status["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no records
            {"records": []},  # empty
            {"records": "not-a-list"},
            {"records": [{"instruction": "x"}]},  # missing output
            {"records": [{"output": "yes"}]},  # missing instruction
            {"records": RECORDS, "version": "l3"},  # unknown version
            {"records": RECORDS, "epochs": "many"},  # non-integer epochs
            {"records": RECORDS, "epochs": 0},  # < 1
        ],
    )
    def test_bad_payloads_rejected(self, update_server, payload):
        _, url = update_server
        req = urllib.request.Request(
            url + "/api/update", data=json.dumps(payload).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unknown_job_404(self, update_server):
        _, url = update_server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/api/update/update-999999")
        assert err.value.code == 404
