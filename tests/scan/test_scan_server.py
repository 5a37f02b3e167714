"""Tests for the /api/scan endpoints (scans run tools-only, so the
shared stub system needs no model)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import HPCGPTClient

RACY_C = (
    "int i;\n"
    "double y[32], x[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
)


@pytest.fixture()
def scan_server(tmp_path, serve, stub_system):
    root = tmp_path / "proj"
    root.mkdir()
    (root / "racy.c").write_text(RACY_C)
    return root, serve(stub_system)


class TestScanEndpoints:
    def test_scan_job_lifecycle(self, scan_server):
        root, url = scan_server
        client = HPCGPTClient(url)
        job_id = client.scan_start(
            str(root), tools_only=True, no_cache=True, languages=["c"]
        )
        status = client.scan_wait(job_id, timeout=30.0)
        assert status["status"] == "done"
        report = status["report"]
        assert report["totals"]["kernels"] == 1
        (kernel,) = report["kernels"]
        assert kernel["file"] == "racy.c"
        assert kernel["ensemble_verdict"] == "yes"

    def test_missing_path_400(self, scan_server):
        _, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan", data=json.dumps({}).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_nonexistent_path_400(self, scan_server):
        _, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan",
            data=json.dumps({"path": "/no/such/dir"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_unknown_language_400(self, scan_server):
        root, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan",
            data=json.dumps({"path": str(root), "languages": ["rust"],
                             "tools_only": True}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_scan_with_schedule_strategies(self, scan_server):
        root, url = scan_server
        client = HPCGPTClient(url)
        job_id = client.scan_start(
            str(root), tools_only=True, no_cache=True,
            strategies=["round_robin", "adversarial"],
        )
        status = client.scan_wait(job_id, timeout=30.0)
        assert status["status"] == "done"
        assert status["report"]["totals"]["kernels"] == 1

    def test_unknown_strategy_400(self, scan_server):
        root, url = scan_server
        req = urllib.request.Request(
            url + "/api/scan",
            data=json.dumps({"path": str(root), "tools_only": True,
                             "strategies": ["chaos-monkey"]}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_bad_options_400(self, scan_server):
        """Lists must be lists of strings and flags JSON booleans; a
        bad element is a 400, not a crashed handler."""
        root, url = scan_server
        for payload in (
            {"languages": "c"},  # a list is required, not a string
            {"strategies": "random"},
            {"languages": ["c", 7]},
            {"strategies": [["random"]]},  # unhashable, not a name
            {"strategies": ["random", 3]},
            {"tools_only": "false"},  # a string is not a boolean
            {"tools_only": 1},
            {"tools_only": None},
            {"no_cache": "yes"},
            {"no_cache": 0},
        ):
            req = urllib.request.Request(
                url + "/api/scan",
                data=json.dumps({"path": str(root), "tools_only": True,
                                 **payload}).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req)
            assert err.value.code == 400, payload

    def test_unknown_job_404(self, scan_server):
        _, url = scan_server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url + "/api/scan/scan-999999")
        assert err.value.code == 404

    def test_detect_language_alias_accepted(self, scan_server):
        _, url = scan_server
        client = HPCGPTClient(url)
        assert client.detect("for (;;) {}", language="cpp") == "no"

    def test_detect_unknown_language_400(self, scan_server):
        _, url = scan_server
        req = urllib.request.Request(
            url + "/api/detect",
            data=json.dumps({"code": "x = 1;", "language": "cobol"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_scan_does_not_block_detect(self, scan_server):
        """A queued scan and detect traffic can proceed together."""
        root, url = scan_server
        client = HPCGPTClient(url)
        job_id = client.scan_start(str(root), tools_only=True, no_cache=True)
        answers = []

        def hammer():
            answers.append(client.detect("serial code"))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert answers == ["no"] * 4
        assert client.scan_wait(job_id, timeout=30.0)["status"] == "done"
