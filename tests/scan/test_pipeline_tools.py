"""Pipeline tests on the tools-only path (no model build needed)."""

import json

import pytest

from repro.scan import ScanConfig, ScanPipeline
from repro.scan.sarif import to_sarif, write_sarif

RACY_C = (
    "int i;\n"
    "double y[32], x[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
)
SAFE_C = (
    "int i;\n"
    "double a[32], b[32];\n"
    "#pragma omp parallel for\n"
    "for (i = 0; i < 32; i++) { a[i] = b[i]; }\n"
)


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "proj"
    (root / "sub").mkdir(parents=True)
    (root / "racy.c").write_text(RACY_C)
    (root / "safe.c").write_text(SAFE_C)
    (root / "sub" / "copy_of_racy.c").write_text(RACY_C)  # content dupe
    (root / "serial.c").write_text("int main(void) { return 0; }\n")
    return root


def pipeline(tmp_path, **kw):
    return ScanPipeline(config=ScanConfig(
        tools_only=True, cache_dir=tmp_path / "cache", **kw
    ))


class TestToolsOnlyScan:
    def test_verdicts_and_totals(self, tree, tmp_path):
        report = pipeline(tmp_path).scan(tree)
        assert report.totals["files_scanned"] == 4
        assert report.totals["files_with_omp"] == 3
        assert report.totals["kernels"] == 3
        assert report.totals["unique_kernels"] == 2  # dupe collapsed
        by_file = {k.file: k for k in report.kernels}
        assert by_file["racy.c"].ensemble_verdict == "yes"
        assert by_file["safe.c"].ensemble_verdict == "no"
        assert by_file["sub/copy_of_racy.c"].ensemble_verdict == "yes"
        assert set(by_file["racy.c"].verdicts) == {
            "LLOV", "Intel Inspector", "ROMP", "Thread Sanitizer",
        }
        assert report.totals["races"] == 2
        assert by_file["racy.c"].llm_verdict is None  # tools-only

    def test_second_scan_is_fully_cached(self, tree, tmp_path):
        p = pipeline(tmp_path)
        first = p.scan(tree)
        assert first.totals["cache_hits"] == 0
        second = pipeline(tmp_path).scan(tree)  # fresh pipeline, same store
        assert second.totals["cache_hits"] == second.totals["kernels"] == 3
        assert second.cache["hits"] == 2  # per unique kernel
        assert [k.to_dict() | {"cached": None} for k in second.kernels] == [
            k.to_dict() | {"cached": None} for k in first.kernels
        ]
        assert all(k.cached for k in second.kernels)

    def test_editing_a_kernel_invalidates_only_it(self, tree, tmp_path):
        pipeline(tmp_path).scan(tree)
        (tree / "safe.c").write_text(SAFE_C.replace("32", "16"))
        report = pipeline(tmp_path).scan(tree)
        by_file = {k.file: k for k in report.kernels}
        assert not by_file["safe.c"].cached
        assert by_file["racy.c"].cached

    def test_reused_pipeline_reports_per_scan_cache_stats(self, tree, tmp_path):
        p = pipeline(tmp_path)
        first = p.scan(tree)
        second = p.scan(tree)  # same pipeline object, warm store
        assert first.cache == {"hits": 0, "misses": 2, "writes": 2}
        assert second.cache == {"hits": 2, "misses": 0, "writes": 0}

    def test_no_cache_mode(self, tree, tmp_path):
        config = ScanConfig(tools_only=True, use_cache=False)
        report = ScanPipeline(config=config).scan(tree)
        assert report.totals["cache_hits"] == 0
        report2 = ScanPipeline(config=config).scan(tree)
        assert report2.totals["cache_hits"] == 0

    def test_language_restriction(self, tree, tmp_path):
        report = pipeline(tmp_path, languages=("fortran",)).scan(tree)
        assert report.totals["kernels"] == 0

    def test_llm_requires_system(self):
        with pytest.raises(ValueError):
            ScanPipeline(config=ScanConfig(tools_only=False))

    def test_unparseable_kernel_is_unsupported_not_fatal(self, tree, tmp_path):
        (tree / "weird.c").write_text(
            "void f(double *y) {\n"
            "  #pragma omp parallel for\n"
            "  for (int i = 1; i < 32; i++) y[i] = y[i-1];\n"
            "}\n"
        )
        report = pipeline(tmp_path).scan(tree)
        weird = next(k for k in report.kernels if k.file == "weird.c")
        assert not weird.parse_ok
        assert set(weird.verdicts.values()) == {"unsupported"}
        assert weird.ensemble_verdict == "unsupported"

    def test_crashing_kernel_is_an_error_with_reason(self, tree, tmp_path):
        (tree / "oob.c").write_text(
            "int i;\n"
            "double a[8];\n"
            "#pragma omp parallel for\n"
            "for (i = 0; i < 8; i++) { a[i + 1] = a[i] + 1; }\n"
        )
        for _ in range(2):  # fresh, then from the cache
            report = pipeline(tmp_path).scan(tree)
            oob = next(k for k in report.kernels if k.file == "oob.c")
            dynamic = {"Intel Inspector", "ROMP", "Thread Sanitizer"}
            assert {d for d, v in oob.verdicts.items() if v == "error"} == dynamic
            reason = "IndexError: array 'a' index 8 out of bounds [0, 7]"
            assert oob.errors == {d: reason for d in dynamic}
            assert oob.to_dict()["errors"] == oob.errors
            assert report.totals["errors"] == 1
            assert "errors: 1" in report.summary()
        assert report.totals["cache_hits"] == report.totals["kernels"]


class TestReportEmitters:
    def test_json_roundtrip(self, tree, tmp_path):
        report = pipeline(tmp_path).scan(tree)
        out = tmp_path / "report.json"
        report.write_json(out)
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-scan-report/1"
        assert payload["totals"]["kernels"] == 3
        assert len(payload["kernels"]) == 3
        assert {"walk_s", "extract_s", "detect_s", "total_s", "kernels_per_s"} <= set(
            payload["timing"]
        )

    def test_summary_mentions_races(self, tree, tmp_path):
        report = pipeline(tmp_path).scan(tree)
        text = report.summary()
        assert "races flagged: 2" in text
        assert "racy.c:1-4" in text

    def test_sarif_shape(self, tree, tmp_path):
        report = pipeline(tmp_path).scan(tree)
        sarif = to_sarif(report)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-scan"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "ensemble-race" in rule_ids and "detector/LLOV" in rule_ids
        results = run["results"]
        assert len(results) == 2  # racy.c + the duplicate copy
        uris = {r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
                for r in results}
        assert uris == {"racy.c", "sub/copy_of_racy.c"}
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region == {"startLine": 1, "endLine": 4}
        # Unanimous tools -> high agreement -> error level.
        assert {r["level"] for r in results} == {"error"}

    def test_sarif_written_file_is_json(self, tree, tmp_path):
        report = pipeline(tmp_path).scan(tree)
        out = tmp_path / "scan.sarif"
        write_sarif(report, out)
        assert json.loads(out.read_text())["version"] == "2.1.0"
