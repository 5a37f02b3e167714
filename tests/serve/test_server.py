"""Tests for the deployment stage (server + client) using the shared
stub system so no training happens in unit tests."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import HPCGPTClient
from repro.serve.server import ServingFrontend


def _post_status(url, body: bytes) -> int:
    """POST a raw body and return the HTTP status."""
    req = urllib.request.Request(url, data=body, method="POST")
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code


@pytest.fixture()
def server_url(serve, stub_system):
    return serve(stub_system)


class TestServer:
    def test_health(self, server_url):
        client = HPCGPTClient(server_url)
        health = client.health()
        assert health["status"] == "ok"
        assert health["model"] == "stub-model"
        assert health["parameters"] == 12345

    def test_gui_served(self, server_url):
        with urllib.request.urlopen(server_url + "/") as resp:
            body = resp.read().decode()
        assert "<html" in body and "HPC-GPT" in body

    def test_answer_endpoint(self, server_url):
        client = HPCGPTClient(server_url)
        assert client.answer("what dataset?") == "lm[l2]: what dataset?"

    def test_detect_endpoint(self, server_url):
        client = HPCGPTClient(server_url)
        assert client.detect("#pragma omp parallel for ...") == "yes"
        assert client.detect("serial loop") == "no"

    def test_missing_fields_400(self, server_url):
        for path, payload in (
            ("/api/answer", {}),
            ("/api/answer", {"question": "   "}),
            ("/api/answer", {"question": 5}),  # non-string question
            ("/api/answer", {"question": ["q"]}),
            ("/api/answer", {"question": "q", "version": "l3"}),
            ("/api/answer", {"question": "q", "retrieval": "false"}),
            ("/api/answer", {"question": "q", "retrieval": 1}),
            ("/api/answer", {"question": "q", "retrieval": None}),
            ("/api/detect", {"code": "  "}),
            ("/api/detect", {"code": 7}),  # non-string code
            ("/api/detect", {"code": {"src": "x"}}),
        ):
            status = _post_status(server_url + path, json.dumps(payload).encode())
            assert status == 400, (path, payload)

    def test_bad_json_400(self, server_url):
        """Non-JSON and non-object bodies are 400s on every POST route,
        and the server keeps serving afterwards."""
        for path in ("/api/answer", "/api/detect", "/api/knowledge",
                     "/api/scan", "/api/update"):
            for body in (b"not json{", b"[1,2]", b'"a string"', b"42",
                         b"null", b"\xff\xfe"):
                assert _post_status(server_url + path, body) == 400, (path, body)
        assert HPCGPTClient(server_url).health()["status"] == "ok"

    def test_unknown_path_404(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server_url + "/nope")
        assert err.value.code == 404


class TestMicroBatchedServing:
    def test_concurrent_requests_share_batches(self, serve, stub_system):
        client = HPCGPTClient(serve(stub_system))
        n = 8
        results = {}
        gate = threading.Barrier(n, timeout=5.0)

        def ask(i):
            gate.wait()
            results[i] = client.answer(f"q{i}")

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert results == {i: f"lm[l2]: q{i}" for i in range(n)}
        widths = [len(batch) for batch in stub_system.answer_batches]
        assert sum(widths) == n
        # At least one micro-batch gathered more than one request.
        assert max(widths) > 1

    def test_detect_routes_through_batched_path(self, serve, stub_system):
        client = HPCGPTClient(serve(stub_system))
        assert client.detect("#pragma omp parallel for") == "yes"
        assert client.detect("serial") == "no"
        assert stub_system.detect_batches == [["#pragma omp parallel for"], ["serial"]]


class TestGroupErrorIsolation:
    """A failing language group must not poison batchmates in other
    groups of the same micro-batch."""

    def test_one_groups_failure_spares_the_other(self, stub_system_cls):
        class ExplodingSystem(stub_system_cls):
            def detect_race_batch(self, codes, language="C/C++"):
                if language == "Fortran":
                    raise RuntimeError("fortran backend down")
                return super().detect_race_batch(codes, language)

        frontend = ServingFrontend(ExplodingSystem(), window_ms=30.0, max_batch=8)
        try:
            results, errors = {}, {}
            gate = threading.Barrier(2, timeout=5.0)

            def call(code, language):
                gate.wait()
                try:
                    results[language] = frontend.detect(code, language=language)
                except RuntimeError as exc:
                    errors[language] = str(exc)

            threads = [
                threading.Thread(target=call, args=("x = 1;", "C/C++")),
                threading.Thread(target=call, args=("x = 1", "Fortran")),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
            assert results == {"C/C++": "no"}
            assert errors == {"Fortran": "fortran backend down"}
        finally:
            frontend.close()
