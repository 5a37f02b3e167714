"""Interleaving interpreter for kernel IR.

Execution model
---------------
Top-level statements run serially in the *master* context (no events —
serial code cannot race).  Each parallel construct (``parallel for``,
``parallel`` region, ``simd`` loop, ``target`` loop) spawns a team of
logical threads implemented as Python generators.  A thread yields one
*action* per shared memory access or synchronisation step, and the
scheduler performs it, so threads interleave at memory-operation
granularity.  The vocabulary has eight actions:

* memory — ``("read", loc)``, ``("write", loc, value)`` and
  ``("atomic", loc, op, rhs)`` (an indivisible read-modify-write, or an
  indivisible store when ``op`` is None).  ``loc`` is the trace's own
  location tuple, ``("sca", name)`` or ``("arr", name, index)``;
* synchronisation — ``("acquire", lock)``, ``("release", lock)``,
  ``("barrier",)``, ``("am_master",)`` and ``("single",)``.

Serial and threaded code perform memory actions through the same
:func:`_access`; the scheduler additionally logs each one as an event
and mediates synchronisation, maintaining vector clocks and per-thread
locksets.

The output :class:`Trace` carries every shared-memory event with its
vector clock, lockset, atomicity flag, and (for ``simd``) a lane marker —
everything the dynamic detectors need.  Clocks live in the trace's
:class:`~repro.runtime.clocks.ClockBank` epoch matrix, which every trace
carries: each event stores a row index into it (snapshots are interned
once per synchronisation interval).  Which ready thread runs at each
scheduling point is delegated to a pluggable exploration strategy
(:mod:`repro.runtime.schedules`); ``random`` reproduces the seed
scheduler exactly.

SIMD loops execute as ``safelen`` (default 4) vector lanes with a chunk
barrier after each vector step: dependences shorter than the vector
length manifest as lane races, longer ones do not — faithful to why SIMD
data races are races.  Lane events are marked ``lane=True`` because real
thread-level tools (TSan, Inspector) observe a single host thread there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.openmp.ast_nodes import (
    Assign, AtomicStmt, Barrier, BinOp, CriticalSection, FlushStmt, Idx,
    IfStmt, Loop, MasterSection, Num, OrderedBlock, ParallelRegion, Program,
    Seq, SingleSection, Var,
)
from repro.openmp.pragmas import Pragma
from repro.runtime.clocks import ClockBank, EpochClock
from repro.runtime.memory import SharedMemory
from repro.runtime.schedules import ScheduleStrategy, make_strategy


class ExecutionError(RuntimeError):
    """Raised on semantic errors (unbound names, bad indices, deadlock)."""


@dataclass(frozen=True)
class MemEvent:
    """One shared-memory access."""

    seq: int
    tid: object  # worker index, ("lane", k), or ("dev", k)
    is_write: bool
    loc: tuple  # ("arr", name, index) | ("sca", name)
    clock_row: int  # row of this event's clock in the trace's ClockBank
    locks: frozenset
    atomic: bool = False
    lane: bool = False  # SIMD lane event (invisible to thread-level tools)
    region: int = 0  # which parallel construct produced it


@dataclass
class Trace:
    """Everything observed in one execution."""

    clock_bank: ClockBank  # epoch matrix behind the events' clock rows
    events: list[MemEvent] = field(default_factory=list)
    schedule_seed: int = 0
    schedule_strategy: str = "random"
    n_threads: int = 0
    final_arrays: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Expression / statement evaluation (generator-based)
# ---------------------------------------------------------------------------
# A thread's environment is a plain dict of its private variables, which
# shadow shared memory.


def _as_index(value) -> int:
    if isinstance(value, bool):
        raise ExecutionError("boolean used as array index")
    if isinstance(value, int):
        return value
    f = float(value)
    i = int(f)
    if i != f:
        raise ExecutionError(f"non-integer array index {value!r}")
    return i


def _arith(op: str, a, b):
    both_int = isinstance(a, int) and isinstance(b, int)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if both_int:
            if b == 0:
                raise ExecutionError("integer division by zero")
            # C truncates toward zero.  Pure integer form: floating
            # `int(a / b)` silently loses precision past 2**53.
            return a // b if (a < 0) == (b < 0) else -(-a // b)
        if b == 0:
            raise ExecutionError("division by zero")
        return a / b
    if op == "%":
        if not both_int:
            raise ExecutionError("modulo requires integer operands")
        if b == 0:
            raise ExecutionError("modulo by zero")
        # C remainder: a == (a/b)*b + a%b with truncating division, so
        # the result carries the dividend's sign.  Integer-only again.
        q = a // b if (a < 0) == (b < 0) else -(-a // b)
        return a - b * q
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    raise ExecutionError(f"unknown operator {op!r}")


def _access(mem: SharedMemory, action: tuple):
    """Perform one memory action; returns the value a ``read`` loads."""
    kind, loc = action[0], action[1]
    if kind == "read":
        return mem.load(loc)
    if kind == "write":
        mem.store(loc, action[2])
    else:  # atomic
        _, _, op, rhs = action
        mem.store(loc, rhs if op is None else _arith(op, mem.load(loc), rhs))
    return None


def _eval(expr, env: dict):
    """Generator evaluating ``expr``; yields actions, returns the value."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name in env:
            return env[expr.name]
        return (yield ("read", ("sca", expr.name)))
    if isinstance(expr, Idx):
        idx = _as_index((yield from _eval(expr.index, env)))
        return (yield ("read", ("arr", expr.array, idx)))
    if isinstance(expr, BinOp):
        left = yield from _eval(expr.left, env)
        right = yield from _eval(expr.right, env)
        return _arith(expr.op, left, right)
    raise ExecutionError(f"cannot evaluate {expr!r}")


def _exec(stmt, env: dict):
    """Generator executing one statement."""
    if isinstance(stmt, Assign):
        yield from _exec_assign(stmt, env, atomic=False)
    elif isinstance(stmt, AtomicStmt):
        yield from _exec_assign(stmt.update, env, atomic=True)
    elif isinstance(stmt, Seq):
        for s in stmt:
            yield from _exec(s, env)
    elif isinstance(stmt, IfStmt):
        cond = yield from _eval(stmt.cond, env)
        if cond:
            yield from _exec(stmt.then_body, env)
        elif stmt.else_body is not None:
            yield from _exec(stmt.else_body, env)
    elif isinstance(stmt, Loop):
        if stmt.pragma is not None:
            raise ExecutionError("nested parallel constructs are not supported")
        lo = _as_index((yield from _eval(stmt.lo, env)))
        hi = _as_index((yield from _eval(stmt.hi, env)))
        stop = hi + 1 if stmt.inclusive else hi
        saved = stmt.var in env
        old = env.get(stmt.var)
        for i in range(lo, stop, stmt.step):
            env[stmt.var] = i
            yield from _exec(stmt.body, env)
        if saved:
            env[stmt.var] = old
        else:
            env.pop(stmt.var, None)
    elif isinstance(stmt, CriticalSection):
        lock = f"$critical:{stmt.name or '<anon>'}"
        yield ("acquire", lock)
        try:
            yield from _exec(stmt.body, env)
        finally:
            yield ("release", lock)
    elif isinstance(stmt, OrderedBlock):
        yield ("acquire", "$ordered")
        try:
            yield from _exec(stmt.body, env)
        finally:
            yield ("release", "$ordered")
    elif isinstance(stmt, Barrier):
        yield ("barrier",)
    elif isinstance(stmt, FlushStmt):
        pass  # memory model noise; no scheduling effect in this machine
    elif isinstance(stmt, MasterSection):
        am_master = yield ("am_master",)
        if am_master:
            yield from _exec(stmt.body, env)
    elif isinstance(stmt, SingleSection):
        chosen = yield ("single",)
        if chosen:
            yield from _exec(stmt.body, env)
        if not stmt.nowait:
            yield ("barrier",)
    elif isinstance(stmt, ParallelRegion):
        raise ExecutionError("nested parallel regions are not supported")
    else:
        raise ExecutionError(f"cannot execute {stmt!r}")


def _refers_to(expr, loc: tuple) -> bool:
    """Whether ``expr`` names ``loc``'s scalar, or an element of its array."""
    if isinstance(expr, Var):
        return loc == ("sca", expr.name)
    return isinstance(expr, Idx) and loc[0] == "arr" and loc[1] == expr.array


def _exec_assign(stmt: Assign, env: dict, atomic: bool):
    target = stmt.target
    if isinstance(target, Var):
        name = target.name
        if name in env:
            # Private variable: no shared events at all.
            rhs = yield from _eval(stmt.expr, env)
            env[name] = rhs if stmt.op is None else _arith(stmt.op, env[name], rhs)
            return
        loc = ("sca", name)
    else:
        loc = ("arr", target.array, _as_index((yield from _eval(target.index, env))))
    expr, op = stmt.expr, stmt.op
    if atomic:
        # Fortran-style `s = s + x(i)` under atomic: evaluate the RHS
        # reads normally, then commit the RMW indivisibly.  A plain
        # store (`#pragma omp atomic write`) is indivisible too.
        if op is None and isinstance(expr, BinOp) and _refers_to(expr.left, loc):
            expr, op = expr.right, expr.op
        rhs = yield from _eval(expr, env)
        yield ("atomic", loc, op, rhs)
        return
    rhs = yield from _eval(expr, env)
    if op is not None:
        rhs = _arith(op, (yield ("read", loc)), rhs)
    yield ("write", loc, rhs)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

_REDUCTION_INIT = {"+": 0.0, "-": 0.0, "*": 1.0, "max": -np.inf, "min": np.inf}


class _Thread:
    __slots__ = ("tid", "gen", "vc", "locks", "status", "send_value", "is_master", "lane")

    def __init__(self, tid, gen, vc: EpochClock, is_master: bool = False, lane: bool = False) -> None:
        self.tid = tid
        self.gen = gen
        self.vc = vc
        self.locks: set[str] = set()
        self.status = "ready"  # ready | blocked | barrier | done
        self.send_value = None
        self.is_master = is_master
        self.lane = lane


class _Scheduler:
    """Runs one team of threads to completion under one exploration
    strategy (the seed behaviour is ``strategy="random"``)."""

    def __init__(
        self,
        mem: SharedMemory,
        trace: Trace,
        strategy: ScheduleStrategy,
        region: int,
        seq_counter: itertools.count,
    ) -> None:
        self.mem = mem
        self.trace = trace
        self.strategy = strategy
        self.region = region
        self.seq = seq_counter
        self.bank: ClockBank = trace.clock_bank
        self.lock_vcs: dict[str, list[int]] = {}  # raw clock snapshots
        self.lock_owner: dict[str, object] = {}
        self.lock_waiters: dict[str, list[_Thread]] = {}
        self.single_winner: dict[int, object] = {}
        self.single_counter: dict[object, int] = {}

    # -- event logging -------------------------------------------------------

    def _log(self, t: _Thread, is_write: bool, loc: tuple, atomic: bool = False) -> None:
        # Events share one interned row per sync interval: vc.row()
        # only allocates when the clock changed.
        row = t.vc.row()
        self.trace.events.append(
            MemEvent(
                seq=next(self.seq),
                tid=t.tid,
                is_write=is_write,
                loc=loc,
                clock_row=row,
                locks=frozenset(t.locks),
                atomic=atomic,
                lane=t.lane,
                region=self.region,
            )
        )

    # -- action processing ------------------------------------------------------

    def _process(self, t: _Thread, action: tuple) -> bool:
        """Apply ``action``; returns True if the thread stays ready (its
        ``send_value`` holds the resume payload)."""
        kind = action[0]
        if kind in ("read", "write", "atomic"):
            if kind == "atomic" and action[2] is not None:  # read-modify-write
                self._log(t, False, action[1], atomic=True)
            self._log(t, kind != "read", action[1], atomic=kind == "atomic")
            t.send_value = _access(self.mem, action)
            return True
        if kind == "acquire":
            name = action[1]
            owner = self.lock_owner.get(name)
            if owner is None:
                self.lock_owner[name] = t.tid
                t.locks.add(name)
                lvc = self.lock_vcs.get(name)
                if lvc is not None:
                    t.vc.join(lvc)
                t.send_value = None
                return True
            t.status = "blocked"
            self.lock_waiters.setdefault(name, []).append(t)
            return False
        if kind == "release":
            name = action[1]
            if self.lock_owner.get(name) != t.tid:
                raise ExecutionError(f"thread {t.tid} released lock {name!r} it does not own")
            self.lock_vcs[name] = t.vc.snapshot()
            t.vc.tick(t.tid)
            t.locks.discard(name)
            del self.lock_owner[name]
            waiters = self.lock_waiters.get(name)
            if waiters:
                nxt = waiters.pop(0)
                self.lock_owner[name] = nxt.tid
                nxt.locks.add(name)
                nxt.vc.join(self.lock_vcs[name])
                nxt.status = "ready"
                nxt.send_value = None
            t.send_value = None
            return True
        if kind == "barrier":
            t.status = "barrier"
            return False
        if kind == "am_master":
            t.send_value = t.is_master
            return True
        if kind == "single":
            k = self.single_counter.get(t.tid, 0)
            self.single_counter[t.tid] = k + 1
            winner = self.single_winner.setdefault(k, t.tid)
            t.send_value = winner == t.tid
            return True
        raise ExecutionError(f"unknown action {kind!r}")

    # -- the scheduling loop --------------------------------------------------------

    def run(self, threads: list[_Thread]) -> None:
        # Start every generator to its first action.
        pending: dict[object, tuple | None] = {}
        for t in threads:
            try:
                pending[t.tid] = t.gen.send(None)
            except StopIteration:
                t.status = "done"
                pending[t.tid] = None

        def ready_threads() -> list[_Thread]:
            return [t for t in threads if t.status == "ready"]

        while any(t.status != "done" for t in threads):
            ready = ready_threads()
            if not ready:
                waiting = [t for t in threads if t.status == "barrier"]
                live = [t for t in threads if t.status != "done"]
                if waiting and len(waiting) == len(live):
                    # Barrier release: join clocks, tick, resume everyone.
                    merged = EpochClock(self.bank)
                    for t in threads:
                        merged.join(t.vc.values)
                    for t in waiting:
                        t.vc = merged.copy()
                        t.vc.tick(t.tid)
                        t.status = "ready"
                        t.send_value = None
                    continue
                raise ExecutionError(
                    "deadlock: no runnable thread "
                    f"(states: {[(t.tid, t.status) for t in threads]})"
                )
            t = self.strategy.pick(ready, pending)
            action = pending[t.tid]
            if action is None:
                # Thread resumed after block; pull the next action.
                try:
                    pending[t.tid] = t.gen.send(t.send_value)
                except StopIteration:
                    t.status = "done"
                continue
            stays_ready = self._process(t, action)
            if stays_ready:
                try:
                    pending[t.tid] = t.gen.send(t.send_value)
                except StopIteration:
                    t.status = "done"
            else:
                pending[t.tid] = None  # re-armed when unblocked


# ---------------------------------------------------------------------------
# Top-level execution
# ---------------------------------------------------------------------------


class _Execution:
    """One run of a program: serial top-level statements plus teams."""

    def __init__(self, program: Program, n_threads: int, strategy: ScheduleStrategy, trace: Trace) -> None:
        self.program = program
        self.mem = SharedMemory(program)
        self.n_threads = n_threads
        self.strategy = strategy
        self.trace = trace
        self.master_vc = EpochClock(trace.clock_bank)
        self.master_vc.tick("master")
        self.seq = itertools.count()
        self.region_counter = itertools.count()

    # Serial driver: drains a generator, performing memory actions
    # directly (no events — serial code cannot race) and treating the
    # master as the team of one.
    def _drain(self, gen):
        send = None
        while True:
            try:
                action = gen.send(send)
            except StopIteration as stop:
                return stop.value
            kind = action[0]
            if kind in ("read", "write", "atomic"):
                send = _access(self.mem, action)
            else:
                send = True if kind in ("am_master", "single") else None

    def _eval_serial(self, expr) -> int:
        return _as_index(self._drain(_eval(expr, {})))

    # -- spawning ------------------------------------------------------------

    def _make_env(self, pragma: Pragma, loop_vars: list[str]) -> dict:
        """The thread-private environment, reduction accumulators included."""
        env: dict = {}
        for v in pragma.private_vars:
            if v in set(pragma.clause_args("firstprivate")):
                env[v] = self.mem.load(("sca", v))
            else:
                env[v] = 0
        for v, op in pragma.reductions.items():
            if op not in _REDUCTION_INIT:
                raise ExecutionError(f"unsupported reduction operator {op!r}")
            env[v] = _REDUCTION_INIT[op]
        for v in loop_vars:
            env[v] = 0  # loop variables are always private
        return env

    def _run_team(self, pragma: Pragma, tids: list, body, loop_vars: list[str], lane: bool = False) -> None:
        """Run one thread per ``tids`` entry to completion, the ``k``-th
        executing the generator ``body(k, env)``; then join the team's
        clocks into the master and commit its reductions."""
        region = next(self.region_counter)
        envs = []
        threads = []
        for k, tid in enumerate(tids):
            env = self._make_env(pragma, loop_vars)
            envs.append(env)
            vc = self.master_vc.copy()
            vc.tick(tid)
            threads.append(_Thread(tid, body(k, env), vc, is_master=(tid == 0), lane=lane))
        _Scheduler(self.mem, self.trace, self.strategy, region, self.seq).run(threads)
        for t in threads:
            self.master_vc.join(t.vc.values)
        self.master_vc.tick("master")
        for name, op in pragma.reductions.items():
            loc = ("sca", name)
            acc = self.mem.load(loc)
            for env in envs:
                acc = float(_arith(op, acc, env[name]))
            self.mem.store(loc, acc)

    # -- construct execution ------------------------------------------------------

    def _iterations(self, loop: Loop) -> range:
        """The loop's iteration range, its bounds evaluated serially."""
        lo = self._eval_serial(loop.lo)
        hi = self._eval_serial(loop.hi)
        return range(lo, hi + 1 if loop.inclusive else hi, loop.step)

    def _collapse_space(self, loop: Loop) -> tuple[list, list[str], Seq]:
        """Flatten a ``collapse(2)`` nest into (index tuples, vars, body)."""
        inner_stmts = [s for s in loop.body]
        if len(inner_stmts) != 1 or not isinstance(inner_stmts[0], Loop):
            raise ExecutionError("collapse(2) requires a perfectly nested inner loop")
        inner = inner_stmts[0]
        if inner.pragma is not None:
            raise ExecutionError("collapse over a directive-bearing inner loop")
        outer_range, inner_range = self._iterations(loop), self._iterations(inner)
        space = [(i, j) for i in outer_range for j in inner_range]
        return space, [loop.var, inner.var], inner.body

    def run_parallel_loop(self, loop: Loop) -> None:
        pragma = loop.pragma
        assert pragma is not None
        if pragma.kind == "simd":
            self._run_simd(loop)
            return

        collapse_args = pragma.clause_args("collapse")
        if collapse_args and int(collapse_args[0]) >= 2:
            if int(collapse_args[0]) != 2:
                raise ExecutionError("only collapse(2) is supported")
            space, loop_vars, body = self._collapse_space(loop)
        else:
            space = [(i,) for i in self._iterations(loop)]
            loop_vars, body = [loop.var], loop.body

        n = pragma.num_threads or self.n_threads
        sched_args = pragma.clause_args("schedule")
        if sched_args and sched_args[0] == "dynamic":
            # One shared work queue: threads pull chunks as they go.
            # Grabs happen between yields, so they are atomic under the
            # cooperative scheduler — exactly the runtime's internal
            # synchronisation, which (like reductions) produces no
            # user-visible events.
            queues = [list(space)] * n
            grab = int(sched_args[1]) if len(sched_args) > 1 else 1
        else:
            # Static: thread k owns the k-th contiguous block and takes
            # it in one grab.
            grab = (len(space) + n - 1) // n
            queues = [space[k * grab : (k + 1) * grab] for k in range(n)]

        def worker(k: int, env: dict):
            queue = queues[k]
            while queue:
                grabbed = queue[:grab]
                del queue[:grab]
                for point in grabbed:
                    env.update(zip(loop_vars, point))
                    yield from _exec(body, env)

        tids = [("dev", k) if pragma.is_target else k for k in range(n)]
        self._run_team(pragma, tids, worker, loop_vars)

    def _run_simd(self, loop: Loop) -> None:
        iters = self._iterations(loop)
        safelen_args = loop.pragma.clause_args("safelen")
        vl = int(safelen_args[0]) if safelen_args else 4
        n_chunks = (len(iters) + vl - 1) // vl

        def lane_worker(lane: int, env: dict):
            for c in range(n_chunks):
                pos = c * vl + lane
                if pos < len(iters):
                    env[loop.var] = iters[pos]
                    yield from _exec(loop.body, env)
                yield ("barrier",)  # end of the vector step

        tids = [("lane", lane) for lane in range(vl)]
        self._run_team(loop.pragma, tids, lane_worker, [loop.var], lane=True)

    def run_parallel_region(self, node: ParallelRegion) -> None:
        pragma = node.pragma or Pragma("parallel")
        n = pragma.num_threads or self.n_threads
        self._run_team(pragma, list(range(n)), lambda k, env: _exec(node.body, env), [])

    def run(self) -> Trace:
        for stmt in self.program.body:
            if isinstance(stmt, Loop) and stmt.pragma is not None:
                kind = stmt.pragma.kind
                if kind == "simd" or "for" in kind.split() or kind.startswith("target"):
                    self.run_parallel_loop(stmt)
                    continue
                raise ExecutionError(f"unsupported loop directive {kind!r}")
            elif isinstance(stmt, ParallelRegion):
                self.run_parallel_region(stmt)
            else:
                self._drain(_exec(stmt, {}))
        self.trace.final_arrays = self.mem.snapshot()
        return self.trace


def execute(
    program: Program,
    n_threads: int = 2,
    schedule_seed: int = 0,
    strategy: str = "random",
) -> Trace:
    """Run ``program`` once under a seeded exploration strategy.

    ``strategy="random"`` reproduces the seed machine bit for bit; see
    :mod:`repro.runtime.schedules` for the other policies.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    rng = np.random.Generator(np.random.PCG64(schedule_seed))
    trace = Trace(
        clock_bank=ClockBank(),
        schedule_seed=schedule_seed,
        schedule_strategy=strategy,
        n_threads=n_threads,
    )
    return _Execution(program, n_threads, make_strategy(strategy, rng), trace).run()
