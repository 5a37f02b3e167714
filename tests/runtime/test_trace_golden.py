"""Golden digests of every trace the interpreter produces on the DRB suite.

``GOLDEN``: every spec of ``DRBSuite.evaluation(seed=0)`` runs under each
schedule strategy at ``schedule_seed=0`` and two threads.
``SCAN_PLAN_GOLDEN``: the schedule plan ``repro scan`` explores, i.e.
``Machine.traces`` with four ``random`` schedules (seeds 0-3) over the
same suite at two and three threads, plus the four strategies cycled
over a four-schedule plan on ``DRBSuite.training(seed=3)``.  The digest covers each
event (sequence number, thread, access kind, location, clock-bank row
values, lockset, atomicity, lane flag, region) and each trace's final
array contents, so any change to where threads yield, how the RNG is
consumed or what memory ends up holding changes the digest.  A refactor
of the interpreter must leave it unchanged.
"""

import hashlib

from repro.drb import DRBSuite
from repro.runtime import Machine, MachineConfig, execute
from repro.runtime.schedules import SCHEDULE_STRATEGIES

GOLDEN = "bbd22acf0ad35069babb2a1c"
SCAN_PLAN_GOLDEN = "8d7784f42c31fd1fd819ba02"


def trace_digest_update(h, trace) -> None:
    rows = trace.clock_bank.rows
    for e in trace.events:
        h.update(repr((
            e.seq, e.tid, e.is_write, e.loc, rows[e.clock_row],
            sorted(e.locks), e.atomic, e.lane, e.region,
        )).encode())
    for name in sorted(trace.final_arrays):
        h.update(name.encode())
        h.update(trace.final_arrays[name].tobytes())


def test_drb_trace_digest_is_pinned():
    h = hashlib.sha256()
    for spec in DRBSuite.evaluation(seed=0).specs:
        program = spec.parse()
        for strategy in sorted(SCHEDULE_STRATEGIES):
            trace = execute(program, n_threads=2, schedule_seed=0, strategy=strategy)
            h.update(f"{spec.id}/{strategy}".encode())
            trace_digest_update(h, trace)
    assert h.hexdigest()[:24] == GOLDEN


def test_scan_schedule_plan_digest_is_pinned():
    h = hashlib.sha256()
    plans = [
        (DRBSuite.evaluation(seed=0), MachineConfig(n_threads=n, n_schedules=4))
        for n in (2, 3)
    ]
    plans.append((
        DRBSuite.training(seed=3),
        MachineConfig(n_threads=2, n_schedules=4,
                      strategies=tuple(sorted(SCHEDULE_STRATEGIES))),
    ))
    for suite, config in plans:
        machine = Machine(config)
        for spec in suite.specs:
            for trace in machine.traces(spec.parse()):
                h.update(f"{spec.id}/{config.n_threads}/{trace.schedule_strategy}/"
                         f"{trace.schedule_seed}".encode())
                trace_digest_update(h, trace)
    assert h.hexdigest()[:24] == SCAN_PLAN_GOLDEN
