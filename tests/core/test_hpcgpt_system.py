"""Integration tests for the end-to-end HPC-GPT system (small preset).

These exercise the full Figure-1 flow: collect -> fine-tune -> answer /
detect.  They are the slowest tests in the suite (~1-2 minutes total) and
share one built system via a module fixture.
"""

import numpy as np
import pytest

from repro.core import HPCGPTConfig, HPCGPTSystem, SMALL_PRESET
from repro.detectors import Verdict
from repro.drb import DRBSuite


@pytest.fixture(scope="module")
def system(tmp_path_factory):
    import dataclasses

    cfg = dataclasses.replace(SMALL_PRESET, use_cache=False)
    return HPCGPTSystem(cfg)


class TestDataCollection:
    def test_bundle_has_both_tasks(self, system):
        bundle = system.collect_data()
        tasks = {r.task for r in bundle.records}
        assert tasks == {"plp", "mlperf", "datarace"}
        assert len(bundle) > 100

    def test_bundle_cached(self, system):
        assert system.collect_data() is system.collect_data()


class TestFineTuning:
    def test_models_differ_from_base(self, system):
        base = system.registry.base_model("llama2-13b-sim")
        tuned = system.finetuned("l2")
        diffs = [
            not np.allclose(a, b)
            for (_, a), (_, b) in zip(
                sorted(base.state_dict().items()), sorted(tuned.state_dict().items())
            )
        ]
        assert any(diffs)

    def test_threshold_calibrated(self, system):
        t = system.threshold("l2")
        assert np.isfinite(t)

    def test_model_memoised(self, system):
        assert system.finetuned("l2") is system.finetuned("l2")

    def test_unknown_version_rejected(self, system):
        with pytest.raises(KeyError):
            system.finetuned("l3")


class TestDetection:
    def test_detect_race_returns_yes_no(self, system):
        racy = "int i;\ndouble y[32], x[32];\n#pragma omp parallel for\nfor (i = 1; i < 32; i++) { y[i] = y[i-1] + x[i]; }\n"
        safe = "int i;\ndouble a[32], b[32];\n#pragma omp parallel for\nfor (i = 0; i < 32; i++) { a[i] = b[i]; }\n"
        assert system.detect_race(racy) in ("yes", "no")
        assert system.detect_race(safe) in ("yes", "no")

    def test_finetuned_beats_base_on_eval_sample(self, system):
        """The core claim: SFT improves race detection over the base."""
        suite = DRBSuite.evaluation(seed=0)
        rng = np.random.default_rng(1)
        pool = [s for s in suite.by_language("C/C++") if "oversize" not in s.features]
        specs = list(rng.permutation(np.array(pool, dtype=object)))[:60]

        dets = system.table5_detectors()
        hpcgpt = next(d for d in dets if d.name == "HPC-GPT (L2)")
        base = next(d for d in dets if d.name == "LLaMa2")

        def acc(det):
            ok = 0
            for s in specs:
                v = det.run(s).verdict
                ok += (v is Verdict.RACE) == (s.label == "yes")
            return ok / len(specs)

        acc_tuned, acc_base = acc(hpcgpt), acc(base)
        assert acc_tuned > acc_base
        assert acc_tuned >= 0.6


class TestTask1:
    def test_answer_returns_text(self, system):
        out = system.answer("Which baseline model is commonly evaluated on the POJ-104 dataset?")
        assert isinstance(out, str)

    def test_task1_methods_shapes(self, system):
        methods = system.task1_methods()
        assert set(methods) == {
            "GPT-4", "HPC-Ontology", "HPC-GPT (L2)", "HPC-GPT (L2) + retrieval",
        }
        q = ("What kind of dataset can be used for code translation tasks if the "
             "source language is Java and the target language is C#?")
        # Ontology nails the Listing-3 anchor; GPT-4 sim does not; the
        # retrieval-grounded configuration recovers the exact entity.
        answers = {name: fn([q])[0] for name, fn in methods.items()}
        assert answers["HPC-Ontology"] == "CodeTrans"
        assert "CodeTrans" not in (answers["GPT-4"] or "")
        assert "CodeTrans" in (answers["HPC-GPT (L2) + retrieval"] or "")

    def test_detectors_list_complete(self, system):
        names = [d.name for d in system.table5_detectors()]
        assert names == [
            "LLOV", "Intel Inspector", "ROMP", "Thread Sanitizer",
            "GPT-3.5", "GPT-4", "LLaMa", "LLaMa2", "HPC-GPT (L1)", "HPC-GPT (L2)",
        ]
