"""Runtime throughput: the epoch-matrix execution engine, measured.

Three views of the rebuilt ``repro.runtime``:

* **trace generation** — events/s executing the corpus (interned clock
  rows instead of per-event dict copies);
* **race checking** — the epoch-matrix ``hb_races`` vs the seed
  ``combinations`` + dict-``VectorClock`` path (``hb_races_reference``,
  kept as the test oracle in ``tests/runtime/hb_oracle.py``), timed over (a) a *hot corpus* of
  contention-heavy kernels — large per-location groups, the pairwise
  path's quadratic regime — and (b) every trace of the DRB evaluation
  suite.  The hot-path speedup is asserted ≥ 3x (the PR's acceptance
  floor);
* **schedule exploration** — schedules-to-first-race per strategy over
  the racy half of the suite: diversity, quantified.

Every run also asserts **bit-identical verdict parity** between the two
checkers for TSan, ROMP, Inspector, and the HB oracle over the parity
corpus (the full suite; one spec per category/language under
``--smoke``, which also skips the machine-noise-sensitive speed floor).

Writes ``benchmarks/out/BENCH_runtime.json`` and
``bench_runtime_throughput.txt``; ``--smoke`` writes
``BENCH_runtime.smoke.json`` and ``bench_runtime_throughput.smoke.txt``
instead, so a smoke run never replaces the committed full-run record.
Run from ``benchmarks/`` with the library and the repository root on the
path (the oracle is imported as ``tests.runtime.hb_oracle``)::

    PYTHONPATH=../src:.. python bench_runtime_throughput.py --smoke
"""

from __future__ import annotations

import argparse
import json
import time

from _shared import OUT_DIR, write_out
from repro.detectors.inspector import lockset_races
from repro.detectors.romp import _ordered_only_conflicts
from repro.drb import DRBSuite
from repro.openmp import parse_c
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.machine import hb_races
from repro.runtime.schedules import SCHEDULE_STRATEGIES
from tests.runtime.hb_oracle import hb_races_reference

N_SCHEDULES = 2  # per spec for the checking corpus
FIRST_RACE_BUDGET = 8  # schedule budget for the exploration metric
SPEEDUP_FLOOR = 3.0

# Contention-heavy kernels: many events per location, so the pairwise
# reference has no short-circuit escape.  Race-free variants (critical,
# atomic, reduction) are the true hot path — every pair gets checked.
HOT_KERNELS = {
    "contended_rmw": """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < %N%; i++) { s = s + 1; }
""",
    "critical_accumulate": """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < %N%; i++) {
  #pragma omp critical
  { s = s + 1; }
}
""",
    "atomic_accumulate": """
int i;
double s;
#pragma omp parallel for
for (i = 0; i < %N%; i++) {
  #pragma omp atomic
  s = s + 1;
}
""",
    "neighbor_sweep": """
int i;
double a[%N%];
#pragma omp parallel for
for (i = 1; i < %N%; i++) { a[i] = a[i-1] + 1; }
""",
}


def hot_corpus(n: int, n_threads: int = 4):
    traces = []
    for name, template in HOT_KERNELS.items():
        prog = parse_c(template.replace("%N%", str(n)))
        traces.append((name, execute(prog, n_threads=n_threads, schedule_seed=0)))
    return traces


def check_all(checker, traces, max_reports: int = 10) -> int:
    found = 0
    for trace in traces:
        for lanes in (True, False):
            found += len(checker(trace, lanes, max_reports))
    return found


def timed_check(checker, traces, repeats: int) -> tuple[float, int]:
    found = check_all(checker, traces)  # warm caches
    start = time.perf_counter()
    for _ in range(repeats):
        check_all(checker, traces)
    return (time.perf_counter() - start) / repeats, found


def parity_specs(suite: DRBSuite, smoke: bool):
    if not smoke:
        return list(suite.specs)
    seen, specs = set(), []
    for spec in suite.specs:
        key = (spec.language, spec.category)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def verdict_signature(traces) -> tuple:
    """(tsan, romp, oracle) from a given HB checker's view — computed
    twice, once per checker, and compared bit for bit.  Inspector's
    lockset check and ROMP's ordered-only channel never consult clocks,
    so they are computed once (unchanged by construction) and folded
    into both signatures rather than vacuously re-run per checker."""
    ordered_only = _ordered_only_conflicts(traces[0])
    inspector = any(lockset_races(t, max_reports=1) for t in traces)

    def sig(checker):
        tsan = any(bool(checker(t, False, 1)) for t in traces)
        romp = bool(checker(traces[0], False, 1)) or ordered_only
        oracle = any(bool(checker(t, True, 1)) for t in traces)
        return (tsan, romp, oracle, inspector)

    return sig(hb_races), sig(hb_races_reference)


def schedules_to_first_race(suite: DRBSuite, smoke: bool) -> dict:
    racy = [s for s in suite.specs if s.label == "yes"]
    if smoke:
        racy = racy[:20]
    out = {}
    for strategy in sorted(SCHEDULE_STRATEGIES):
        machine = Machine(
            MachineConfig(
                n_threads=2,
                n_schedules=FIRST_RACE_BUDGET,
                strategies=(strategy,),
            )
        )
        used, found = [], 0
        for spec in racy:
            n = 0
            for trace in machine.iter_traces(spec.parse()):
                n += 1
                if hb_races(trace, max_reports=1):
                    found += 1
                    used.append(n)
                    break
        out[strategy] = {
            "manifested": found,
            "of": len(racy),
            "mean_schedules_to_first_race": (
                round(sum(used) / len(used), 3) if used else None
            ),
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, parity asserted, speed floor skipped")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args()
    smoke = args.smoke
    repeats = args.repeats or (2 if smoke else 5)
    hot_n = 120 if smoke else 400

    suite = DRBSuite.evaluation(seed=0)
    specs = parity_specs(suite, smoke)

    # -- trace generation + verdict parity ------------------------------------

    machine = Machine(MachineConfig(n_threads=2, n_schedules=N_SCHEDULES))
    suite_traces, n_events = [], 0
    parity_failures = []
    gen_start = time.perf_counter()
    for spec in specs:
        traces = machine.traces(spec.parse())
        suite_traces.extend(traces)
        n_events += sum(len(t.events) for t in traces)
    gen_s = time.perf_counter() - gen_start
    for spec, idx in zip(specs, range(0, len(suite_traces), N_SCHEDULES)):
        fast, slow = verdict_signature(suite_traces[idx : idx + N_SCHEDULES])
        if fast != slow:
            parity_failures.append(spec.id)
    assert not parity_failures, f"verdict parity broken: {parity_failures[:5]}"

    hot = hot_corpus(hot_n)
    hot_traces = [t for _, t in hot]
    hot_events = sum(len(t.events) for t in hot_traces)

    # -- race checking: epoch matrix vs seed dict clocks ----------------------

    hot_new_s, hot_new_found = timed_check(hb_races, hot_traces, repeats)
    hot_ref_s, hot_ref_found = timed_check(hb_races_reference, hot_traces, repeats)
    assert hot_new_found == hot_ref_found
    suite_new_s, suite_found = timed_check(hb_races, suite_traces, repeats)
    suite_ref_s, suite_ref_found = timed_check(hb_races_reference, suite_traces, repeats)
    assert suite_found == suite_ref_found

    speedup_hot = hot_ref_s / hot_new_s
    speedup_suite = suite_ref_s / suite_new_s
    if not smoke:
        assert speedup_hot >= SPEEDUP_FLOOR, (
            f"hot-path race-check speedup {speedup_hot:.2f}x "
            f"below the {SPEEDUP_FLOOR}x floor"
        )

    # -- exploration diversity -------------------------------------------------

    exploration = schedules_to_first_race(suite, smoke)

    payload = {
        "mode": "smoke" if smoke else "full",
        "corpus": {
            "parity_specs": len(specs),
            "suite_traces": len(suite_traces),
            "suite_events": n_events,
            "hot_kernels": {name: len(t.events) for name, t in hot},
            "hot_iterations": hot_n,
        },
        "trace_generation": {
            "seconds": round(gen_s, 4),
            "events_per_s": round(n_events / gen_s, 1),
            "traces_per_s": round(len(suite_traces) / gen_s, 1),
        },
        "race_checking": {
            "repeats": repeats,
            "hot_seconds": {"epoch_matrix": hot_new_s, "seed_dict_vc": hot_ref_s},
            "hot_events_per_s": {
                "epoch_matrix": round(2 * hot_events / hot_new_s, 1),
                "seed_dict_vc": round(2 * hot_events / hot_ref_s, 1),
            },
            "suite_seconds": {"epoch_matrix": suite_new_s, "seed_dict_vc": suite_ref_s},
            "suite_checks_per_s": {
                "epoch_matrix": round(2 * len(suite_traces) / suite_new_s, 1),
                "seed_dict_vc": round(2 * len(suite_traces) / suite_ref_s, 1),
            },
            "races_found_hot": hot_new_found,
            "races_found_suite": suite_found,
            "speedup_hot": round(speedup_hot, 2),
            "speedup_suite": round(speedup_suite, 2),
            "floor": SPEEDUP_FLOOR if not smoke else None,
        },
        "verdict_parity": {
            "specs": len(specs),
            "bit_identical": True,
            # Clock-dependent verdicts compared across checkers;
            # Inspector's lockset never reads clocks (computed once,
            # unchanged by construction).
            "tools": ["Thread Sanitizer", "ROMP", "HB oracle"],
            "clock_independent": ["Intel Inspector"],
        },
        "schedules_to_first_race": exploration,
    }
    suffix = ".smoke" if smoke else ""
    artifact = OUT_DIR / f"BENCH_runtime{suffix}.json"
    artifact.write_text(json.dumps(payload, indent=1) + "\n")

    explore_lines = [
        f"    {name:<12} {row['manifested']}/{row['of']} racy specs, "
        f"mean {row['mean_schedules_to_first_race']} schedules to first race"
        for name, row in exploration.items()
    ]
    write_out(
        f"bench_runtime_throughput{suffix}.txt",
        "\n".join(
            [
                f"Runtime throughput ({'smoke' if smoke else 'full'}; "
                f"{len(specs)} parity specs, hot kernels at N={hot_n})",
                f"  trace generation  {payload['trace_generation']['events_per_s']:>10.0f} events/s",
                f"  race check (hot)  seed: {hot_ref_s:7.3f}s   epoch: {hot_new_s:7.3f}s "
                f"({speedup_hot:.1f}x)",
                f"  race check (DRB)  seed: {suite_ref_s:7.3f}s   epoch: {suite_new_s:7.3f}s "
                f"({speedup_suite:.1f}x)",
                f"  verdict parity    {len(specs)} specs bit-identical "
                "(TSan/ROMP/oracle; Inspector clock-independent)",
                "  schedules to first race:",
                *explore_lines,
                f"  artifact: {artifact}",
            ]
        ),
    )


if __name__ == "__main__":
    main()
