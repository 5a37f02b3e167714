"""Tests for language-aware detector construction."""

import pytest

from repro.detectors.registry import build_tool_detectors
from repro.utils.languages import UnknownLanguageError


class TestBuildToolDetectors:
    def test_default_order(self):
        names = [d.name for d in build_tool_detectors()]
        assert names == ["LLOV", "Intel Inspector", "ROMP", "Thread Sanitizer"]

    def test_language_filter_accepts_aliases(self):
        for alias in ("c", "cpp", "C/C++", "f90", "fortran"):
            assert len(build_tool_detectors(alias)) == 4  # all tools ingest both

    def test_language_filter_respects_detector_languages(self, monkeypatch):
        """A detector restricted to C/C++ drops out of Fortran builds."""
        import repro.detectors.registry as registry

        class COnlyLLOV(registry.LLOVDetector):
            languages = ("C/C++",)

        monkeypatch.setattr(registry, "LLOVDetector", COnlyLLOV)
        assert len(build_tool_detectors("fortran")) == 3
        assert len(build_tool_detectors("c")) == 4

    def test_unknown_language_rejected(self):
        with pytest.raises(UnknownLanguageError):
            build_tool_detectors("rust")


class TestRunContract:
    """``Detector.run`` is ``run_many`` over one program: the support
    check and the verdict-type check live in one place."""

    @pytest.fixture(scope="class")
    def spec(self):
        from repro.drb import DRBSuite

        return DRBSuite.evaluation(seed=0).specs[0]

    def test_unsupported_program_skips_detection(self, spec):
        from repro.detectors import Detector, Verdict

        class Declines(Detector):
            name = "declines"

            def supports(self, spec):
                return False

            def detect(self, spec, traces=None):
                raise AssertionError("detect must not run on an unsupported program")

        assert Declines().run(spec).verdict is Verdict.UNSUPPORTED

    def test_non_verdict_rejected(self, spec):
        from repro.detectors import Detector

        class Stringly(Detector):
            name = "stringly"

            def detect(self, spec, traces=None):
                return "yes"

        with pytest.raises(TypeError, match="stringly.detect_many returned 'yes'"):
            Stringly().run(spec)
