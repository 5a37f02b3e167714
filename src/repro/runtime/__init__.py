"""Simulated shared-memory parallel machine.

Executes kernel IR from :mod:`repro.openmp` with T logical threads under
a seeded interleaving scheduler, producing memory-event traces annotated
with vector clocks and locksets.  Every trace carries a
:class:`ClockBank` epoch matrix, each event stores a row index into it,
and :func:`hb_races` checks happens-before with FastTrack's epoch rule.
This substrate replaces the paper's real multicore runs: dynamic race
detectors (ThreadSanitizer, Intel Inspector, ROMP stand-ins) analyse
these traces exactly the way the real tools analyse instrumented
executions.  A kernel runs through closures compiled from its IR once
(:class:`CompiledProgram`) and reused by every schedule explored.

Semantics covered: ``parallel for`` (static chunking), ``parallel``
regions, ``simd`` (vector lanes with chunk barriers honouring safelen),
``target`` offload (host-fallback execution), ``critical``/``atomic``/
``barrier``/``single``/``master``/``ordered``, ``private``/
``firstprivate``/``reduction`` data-sharing.
"""

from repro.runtime.clocks import ClockBank, EpochClock
from repro.runtime.memory import SharedMemory
from repro.runtime.interpreter import CompiledProgram, ExecutionError, MemEvent, Trace, execute
from repro.runtime.machine import Machine, MachineConfig, RaceReport, hb_races
from repro.runtime.schedules import SCHEDULE_STRATEGIES

__all__ = [
    "ClockBank",
    "EpochClock",
    "SharedMemory",
    "CompiledProgram",
    "ExecutionError",
    "MemEvent",
    "Trace",
    "execute",
    "Machine",
    "MachineConfig",
    "RaceReport",
    "hb_races",
    "SCHEDULE_STRATEGIES",
]
