"""Tests for the async job queue behind /api/scan and /api/update."""

import time

import pytest

from repro.serve.jobs import JobQueue


def _wait(*jobs, timeout=5.0):
    deadline = time.monotonic() + timeout
    for job in jobs:
        while job.status not in ("done", "error"):
            assert time.monotonic() < deadline
            time.sleep(0.01)


class TestJobQueue:
    def test_jobs_run_in_order_and_keep_results(self):
        seen = []

        def runner(path, options):
            seen.append(path)
            return {"path": path, **options}

        q = JobQueue({"scan": runner})
        try:
            a = q.submit("scan", "/a", {"tools_only": True})
            b = q.submit("scan", "/b")
            _wait(a, b)
            assert seen == ["/a", "/b"]
            assert a.result == {"path": "/a", "tools_only": True}
            assert q.get("scan", a.id).status == "done"
            assert q.get("scan", "nope") is None
        finally:
            q.close()

    def test_kinds_share_one_worker_in_submission_order(self):
        seen = []

        def runner(kind):
            def run(subject, options):
                seen.append((kind, subject))
                return {"kind": kind}
            return run

        q = JobQueue({"scan": runner("scan"), "update": runner("update")})
        try:
            jobs = [
                q.submit("scan", "/a"),
                q.submit("update", "l2"),
                q.submit("scan", "/b"),
            ]
            _wait(*jobs)
            assert seen == [("scan", "/a"), ("update", "l2"), ("scan", "/b")]
            # Ids count per kind; each kind serialises its own field names.
            assert [j.id for j in jobs] == ["scan-000001", "update-000001", "scan-000002"]
            assert jobs[0].to_dict()["path"] == "/a"
            assert jobs[0].to_dict()["report"] == {"kind": "scan"}
            assert jobs[1].to_dict()["version"] == "l2"
            assert jobs[1].to_dict()["result"] == {"kind": "update"}
            # A job is only found under its own kind.
            assert q.get("scan", jobs[1].id) is None
            assert q.get("update", jobs[0].id) is None
        finally:
            q.close()

    def test_failed_job_reports_error_and_queue_survives(self):
        def runner(path, options):
            if path == "/boom":
                raise RuntimeError("kaput")
            return {"ok": True}

        q = JobQueue({"scan": runner})
        try:
            bad = q.submit("scan", "/boom")
            good = q.submit("scan", "/fine")
            _wait(bad, good)
            assert bad.status == "error" and "kaput" in bad.error
            assert good.result == {"ok": True}
        finally:
            q.close()

    def test_submit_after_close_rejected(self):
        q = JobQueue({"scan": lambda p, o: {}})
        q.close()
        with pytest.raises(RuntimeError):
            q.submit("scan", "/x")
