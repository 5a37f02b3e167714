"""Shared fixtures: a stub of the serving contract, so server tests run
without training a model."""

import pytest

from repro.serve.server import start_background


class StubSystem:
    """Implements exactly :class:`repro.serve.server.ServedSystem`,
    recording every call for assertions."""

    class _Model:
        class config:  # noqa: N801 - mimics ModelConfig attribute access
            name = "stub-model"

        @staticmethod
        def num_parameters():
            return 12345

    class _Stats:
        steps = 3
        skipped_steps = 0
        seconds = 0.01

        @staticmethod
        def mean_loss():
            return 0.5

    def __init__(self):
        self.answer_batches = []  # questions per answer_batch call
        self.retrieval_batches = []  # questions per answer_retrieval_batch call
        self.detect_batches = []  # codes per detect_race_batch call
        self.ingested = []  # (documents, max_tokens) per index_documents call
        self.updates = []  # (records, version, epochs) per update_with call
        self.engine_builds = []  # versions passed to engine()
        self.chunks = 7

    def answer_batch(self, questions, version="l2"):
        self.answer_batches.append(list(questions))
        return [f"lm[{version}]: {q}" for q in questions]

    def answer_retrieval_batch(self, questions, version="l2"):
        self.retrieval_batches.append(list(questions))
        return [f"rag[{version}]: {q}" for q in questions]

    def detect_race_batch(self, codes, language="C/C++"):
        self.detect_batches.append(list(codes))
        return ["yes" if "parallel" in c else "no" for c in codes]

    def index_documents(self, documents, max_tokens=128):
        self.ingested.append((list(documents), max_tokens))
        self.chunks += len(documents)
        return {
            "documents": len(documents),
            "chunks": len(documents),
            "added": len(documents),
            "index_size": self.chunks,
        }

    def retrieval_stats(self):
        return {"chunks": self.chunks, "dim": 420, "fingerprint": "fp-test"}

    def finetuned(self, version="l2"):
        return self._Model()

    def update_with(self, records, version="l2", epochs=None):
        self.updates.append((list(records), version, epochs))
        return self._Stats()

    def threshold(self, version="l2"):
        return 0.125

    def engine(self, version="l2"):
        self.engine_builds.append(version)
        return object()


@pytest.fixture(scope="session")
def stub_system_cls():
    """The stub class, for tests that subclass it to record or fail."""
    return StubSystem


@pytest.fixture()
def stub_system():
    return StubSystem()


@pytest.fixture()
def serve():
    """Start a background server around a system; returns its base URL.
    Every server started this way is closed at teardown."""
    servers = []

    def start(system):
        server, _ = start_background(system)
        servers.append(server)
        host, port = server.server_address
        return f"http://{host}:{port}"

    yield start
    for server in servers:
        server.frontend.close()
        server.shutdown()
