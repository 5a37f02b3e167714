"""Golden digest of every trace the interpreter produces on the DRB suite.

Every spec of ``DRBSuite.evaluation(seed=0)`` runs under each schedule
strategy at ``schedule_seed=0`` and two threads.  The digest covers each
event (sequence number, thread, access kind, location, clock-bank row
values, lockset, atomicity, lane flag, region) and each trace's final
array contents, so any change to where threads yield, how the RNG is
consumed or what memory ends up holding changes the digest.  A refactor
of the interpreter must leave it unchanged.
"""

import hashlib

from repro.drb import DRBSuite
from repro.runtime import execute
from repro.runtime.schedules import SCHEDULE_STRATEGIES

GOLDEN = "bbd22acf0ad35069babb2a1c"


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
