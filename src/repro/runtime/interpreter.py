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

Compiled bodies
---------------
A :class:`CompiledProgram` turns each body into nested Python closures
the first time an execution reaches it; every later execution of the
same program (each schedule :class:`~repro.runtime.machine.Machine`
explores) reuses them.  A body compiles against the private names of
its lexical scope: the construct's private and reduction variables, its
loop variables, and the variable of each enclosing serial loop.  Those
names live in the thread's environment dict; every other name is shared
memory.  Sub-trees that touch only private names — arithmetic, constant
indices, conditions, private assignments — compile to plain calls.  A
shared read whose location is computed by a plain call compiles to a
call returning its ``read`` action, which the enclosing code yields
directly.  Everything else that touches shared memory or synchronises
compiles to a generator function and suspends at each action.  Errors
are raised when execution reaches the offending node, never at compile
time: a nested parallel construct, an unknown operator or an
unevaluable node compiles to code that raises it, so a rejected
construct in a branch never taken does no harm.  Kernel text is never
turned into Python source.

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
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

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


class MemEvent(NamedTuple):
    """One shared-memory access (a tuple: one is built per access)."""

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
# Arithmetic
# ---------------------------------------------------------------------------


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


def _div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ExecutionError("integer division by zero")
        # C truncates toward zero.  Pure integer form: floating
        # `int(a / b)` silently loses precision past 2**53.
        return a // b if (a < 0) == (b < 0) else -(-a // b)
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _mod(a, b):
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ExecutionError("modulo requires integer operands")
    if b == 0:
        raise ExecutionError("modulo by zero")
    # C remainder: a == (a/b)*b + a%b with truncating division, so the
    # result carries the dividend's sign.  Integer-only again.
    q = a // b if (a < 0) == (b < 0) else -(-a // b)
    return a - b * q


_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "%": _mod,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def _op(op: str):
    """The function applying binary operator ``op``; an unknown operator
    raises when it is applied, not when it is looked up."""
    fn = _OPS.get(op)
    if fn is None:
        def fn(a, b):
            raise ExecutionError(f"unknown operator {op!r}")
    return fn


def _arith(op: str, a, b):
    return _op(op)(a, b)


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


# ---------------------------------------------------------------------------
# Compilation to closures
# ---------------------------------------------------------------------------
# An expression compiles to ``(form, fn)``:
#   _PURE  fn(env) returns the value (no shared access);
#   _READ  fn(env) returns the ("read", loc) action whose answer is the value;
#   _GEN   fn(env) is a generator that yields actions and returns the value.
# Code consuming one writes, for flags ``pure``/``read`` fixed at compile time:
#   x = f(env) if pure else (yield f(env)) if read else (yield from f(env))
# A statement compiles to ``(is_gen, fn)``: a plain call, or a generator.
# ``env`` is the thread's dict of private variables; ``private`` is the
# set of names it holds wherever the compiled code runs.

_PURE, _READ, _GEN = 0, 1, 2
_BARRIER = ("barrier",)


def _noop(env) -> None:
    pass


def _raiser(message: str):
    """A statement or pure expression that raises ``message`` when reached."""
    def fail(env):
        raise ExecutionError(message)
    return fail


def _compile_expr(expr, private: frozenset) -> tuple:
    if isinstance(expr, Num):
        value = expr.value
        return _PURE, lambda env: value
    if isinstance(expr, Var):
        name = expr.name
        if name in private:
            return _PURE, lambda env: env[name]
        action = ("read", ("sca", name))
        return _READ, lambda env: action
    if isinstance(expr, Idx):
        loc = _constant_loc(expr)
        if loc is not None:
            action = ("read", loc)
            return _READ, lambda env: action
        lpure, locate = _compile_loc(expr, private)
        if lpure:
            return _READ, lambda env: ("read", locate(env))

        def read(env):
            return (yield ("read", (yield from locate(env))))
        return _GEN, read
    if isinstance(expr, BinOp):
        op = _op(expr.op)
        lform, left = _compile_expr(expr.left, private)
        rform, right = _compile_expr(expr.right, private)
        if lform == rform == _PURE:
            return _PURE, lambda env: op(left(env), right(env))
        lpure, lread = lform == _PURE, lform == _READ
        rpure, rread = rform == _PURE, rform == _READ

        def binop(env):
            a = left(env) if lpure else (yield left(env)) if lread else (yield from left(env))
            b = right(env) if rpure else (yield right(env)) if rread else (yield from right(env))
            return op(a, b)
        return _GEN, binop
    return _PURE, _raiser(f"cannot evaluate {expr!r}")


def _constant_loc(target: Idx) -> tuple | None:
    """``target``'s location when its index is an integer constant."""
    index = target.index
    if isinstance(index, Num) and type(index.value) is int:
        return ("arr", target.array, index.value)
    return None


def _compile_loc(target, private: frozenset) -> tuple:
    """A shared target's location as ``(pure, fn)``: ``fn(env)`` returns
    it, or (when the index reads shared memory) a generator does."""
    if isinstance(target, Var):
        loc = ("sca", target.name)
        return True, lambda env: loc
    const = _constant_loc(target)
    if const is not None:
        return True, lambda env: const
    array = target.array
    iform, index = _compile_expr(target.index, private)
    if iform == _PURE:
        return True, lambda env: ("arr", array, _as_index(index(env)))
    iread = iform == _READ

    def locate(env):
        i = (yield index(env)) if iread else (yield from index(env))
        return ("arr", array, _as_index(i))
    return False, locate


def _compile_assign(stmt: Assign, private: frozenset, atomic: bool) -> tuple:
    target, expr, op = stmt.target, stmt.expr, stmt.op
    if isinstance(target, Var) and target.name in private:
        # Private variable: no shared events at all (atomic or not).
        name = target.name
        fn = None if op is None else _op(op)
        form, value = _compile_expr(expr, private)
        if form == _PURE:
            def assign(env):
                rhs = value(env)
                env[name] = rhs if fn is None else fn(env[name], rhs)
            return False, assign
        vread = form == _READ

        def assign(env):
            rhs = (yield value(env)) if vread else (yield from value(env))
            env[name] = rhs if fn is None else fn(env[name], rhs)
        return True, assign
    if not isinstance(target, (Var, Idx)):
        return False, _raiser(f"cannot assign to {target!r}")
    if atomic and op is None and isinstance(expr, BinOp) and (
        (isinstance(target, Var) and isinstance(expr.left, Var) and expr.left.name == target.name)
        or (isinstance(target, Idx) and isinstance(expr.left, Idx) and expr.left.array == target.array)
    ):
        # Fortran-style `s = s + x(i)` under atomic: evaluate the RHS
        # reads normally, then commit the RMW indivisibly.
        expr, op = expr.right, expr.op
    lpure, loc = _compile_loc(target, private)
    form, value = _compile_expr(expr, private)
    vpure, vread = form == _PURE, form == _READ
    if atomic:
        # A plain store (`#pragma omp atomic write`) is indivisible too.
        def assign(env):
            where = loc(env) if lpure else (yield from loc(env))
            rhs = value(env) if vpure else (yield value(env)) if vread else (yield from value(env))
            yield ("atomic", where, op, rhs)
        return True, assign
    fn = None if op is None else _op(op)

    def assign(env):
        where = loc(env) if lpure else (yield from loc(env))
        rhs = value(env) if vpure else (yield value(env)) if vread else (yield from value(env))
        if fn is not None:
            rhs = fn((yield ("read", where)), rhs)
        yield ("write", where, rhs)
    return True, assign


def _compile_seq(seq: Seq, private: frozenset) -> tuple:
    steps = [_compile_stmt(s, private) for s in seq]
    steps = tuple(step for step in steps if step[1] is not _noop)
    if not steps:
        return False, _noop
    if len(steps) == 1:
        return steps[0]
    if not any(gen for gen, _ in steps):
        fns = tuple(fn for _, fn in steps)

        def run(env):
            for fn in fns:
                fn(env)
        return False, run

    def run(env):
        for gen, fn in steps:
            if gen:
                yield from fn(env)
            else:
                fn(env)
    return True, run


def _compile_if(stmt: IfStmt, private: frozenset) -> tuple:
    cform, cond = _compile_expr(stmt.cond, private)
    tgen, then = _compile_stmt(stmt.then_body, private)
    egen, other = (False, _noop) if stmt.else_body is None else _compile_stmt(stmt.else_body, private)
    if cform == _PURE and not (tgen or egen):
        def branch(env):
            if cond(env):
                then(env)
            else:
                other(env)
        return False, branch
    cpure, cread = cform == _PURE, cform == _READ

    def branch(env):
        taken = cond(env) if cpure else (yield cond(env)) if cread else (yield from cond(env))
        if taken:
            if tgen:
                yield from then(env)
            else:
                then(env)
        elif egen:
            yield from other(env)
        else:
            other(env)
    return True, branch


def _compile_loop(loop: Loop, private: frozenset) -> tuple:
    """A serial loop; its variable is private inside the body only."""
    var, step, extra = loop.var, loop.step, 1 if loop.inclusive else 0
    saved = var in private
    lo_form, lo = _compile_expr(loop.lo, private)
    hi_form, hi = _compile_expr(loop.hi, private)
    bgen, body = _compile_stmt(loop.body, private | {var})
    if lo_form == hi_form == _PURE and not bgen:
        def run(env):
            start = _as_index(lo(env))
            stop = _as_index(hi(env)) + extra
            old = env.get(var)
            for i in range(start, stop, step):
                env[var] = i
                body(env)
            if saved:
                env[var] = old
            else:
                env.pop(var, None)
        return False, run
    lpure, lread = lo_form == _PURE, lo_form == _READ
    hpure, hread = hi_form == _PURE, hi_form == _READ

    def run(env):
        start = _as_index(lo(env) if lpure else (yield lo(env)) if lread else (yield from lo(env)))
        stop = _as_index(hi(env) if hpure else (yield hi(env)) if hread else (yield from hi(env))) + extra
        old = env.get(var)
        for i in range(start, stop, step):
            env[var] = i
            if bgen:
                yield from body(env)
            else:
                body(env)
        if saved:
            env[var] = old
        else:
            env.pop(var, None)
    return True, run


def _locked(lock: str, gen: bool, body) -> tuple:
    acquire, release = ("acquire", lock), ("release", lock)

    def run(env):
        yield acquire
        try:
            if gen:
                yield from body(env)
            else:
                body(env)
        finally:
            yield release
    return True, run


def _gated(ask: tuple, gen: bool, body, barrier: bool) -> tuple:
    """``master``/``single``: run ``body`` if the scheduler answers yes."""
    def run(env):
        if (yield ask):
            if gen:
                yield from body(env)
            else:
                body(env)
        if barrier:
            yield _BARRIER
    return True, run


def _barrier(env):
    yield _BARRIER


def _compile_stmt(stmt, private: frozenset) -> tuple:
    if isinstance(stmt, Assign):
        return _compile_assign(stmt, private, atomic=False)
    if isinstance(stmt, AtomicStmt):
        return _compile_assign(stmt.update, private, atomic=True)
    if isinstance(stmt, Seq):
        return _compile_seq(stmt, private)
    if isinstance(stmt, IfStmt):
        return _compile_if(stmt, private)
    if isinstance(stmt, Loop):
        if stmt.pragma is not None:
            return False, _raiser("nested parallel constructs are not supported")
        return _compile_loop(stmt, private)
    if isinstance(stmt, CriticalSection):
        return _locked(f"$critical:{stmt.name or '<anon>'}", *_compile_stmt(stmt.body, private))
    if isinstance(stmt, OrderedBlock):
        return _locked("$ordered", *_compile_stmt(stmt.body, private))
    if isinstance(stmt, Barrier):
        return True, _barrier
    if isinstance(stmt, FlushStmt):
        return False, _noop  # memory model noise; no scheduling effect here
    if isinstance(stmt, MasterSection):
        return _gated(("am_master",), *_compile_stmt(stmt.body, private), barrier=False)
    if isinstance(stmt, SingleSection):
        return _gated(("single",), *_compile_stmt(stmt.body, private), barrier=not stmt.nowait)
    if isinstance(stmt, ParallelRegion):
        return False, _raiser("nested parallel regions are not supported")
    return False, _raiser(f"cannot execute {stmt!r}")


_NO_PRIVATES: frozenset = frozenset()


class CompiledProgram:
    """A program and the closures compiled from it.

    Construction does no work: each body compiles the first time an
    execution reaches it, and every later :meth:`execute` reuses it.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._code: dict = {}

    def stmt(self, node, private: frozenset = _NO_PRIVATES) -> tuple:
        """``(is_gen, fn)`` for a statement run with ``private`` names."""
        key = (id(node), private)
        code = self._code.get(key)
        if code is None:
            code = self._code[key] = _compile_stmt(node, private)
        return code

    def expr(self, node) -> tuple:
        """``(form, fn)`` for an expression evaluated serially."""
        key = (id(node), None)
        code = self._code.get(key)
        if code is None:
            code = self._code[key] = _compile_expr(node, _NO_PRIVATES)
        return code

    def execute(self, n_threads: int = 2, schedule_seed: int = 0, strategy: str = "random") -> Trace:
        """Run the program once under a seeded exploration strategy."""
        if n_threads < 1:
            raise ValueError("need at least one thread")
        trace = Trace(
            clock_bank=ClockBank(),
            schedule_seed=schedule_seed,
            schedule_strategy=strategy,
            n_threads=n_threads,
        )
        picker = make_strategy(strategy, np.random.PCG64(schedule_seed))
        return _Execution(self, n_threads, picker, trace).run()


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

_REDUCTION_INIT = {"+": 0.0, "-": 0.0, "*": 1.0, "max": -np.inf, "min": np.inf}


class _Thread:
    __slots__ = ("tid", "gen", "vc", "locks", "status", "action", "send_value", "is_master", "lane")

    def __init__(self, tid, gen, vc: EpochClock, is_master: bool = False, lane: bool = False) -> None:
        self.tid = tid
        self.gen = gen
        self.vc = vc
        self.locks = frozenset()  # held locks; its events share this set
        self.status = "ready"  # ready | blocked | barrier | done
        self.action = None  # pending action; None when resumed after a block
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

    def _log(self, t: _Thread, is_write: bool, loc: tuple, atomic: bool) -> None:
        # Events share one interned row per sync interval: vc.row()
        # only allocates when the clock changed.
        self.trace.events.append(MemEvent(
            next(self.seq), t.tid, is_write, loc, t.vc.row(), t.locks, atomic, t.lane, self.region,
        ))

    def _process(self, t: _Thread, action: tuple) -> bool:
        """Apply a non-``read``/``write`` action; returns True if the thread
        stays ready (its ``send_value`` holds the resume payload)."""
        kind = action[0]
        if kind == "atomic":
            if action[2] is not None:  # read-modify-write
                self._log(t, False, action[1], True)
            self._log(t, True, action[1], True)
            t.send_value = _access(self.mem, action)
            return True
        if kind == "acquire":
            name = action[1]
            owner = self.lock_owner.get(name)
            if owner is None:
                self.lock_owner[name] = t.tid
                t.locks = t.locks | {name}
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
            t.locks = t.locks - {name}
            del self.lock_owner[name]
            waiters = self.lock_waiters.get(name)
            if waiters:
                nxt = waiters.pop(0)
                self.lock_owner[name] = nxt.tid
                nxt.locks = nxt.locks | {name}
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

    def _release_barrier(self, threads: list[_Thread], live: int) -> None:
        """No thread is ready: release a barrier every live thread has
        reached (join clocks, tick, resume everyone), else deadlock."""
        waiting = [t for t in threads if t.status == "barrier"]
        if not waiting or len(waiting) != live:
            raise ExecutionError(
                "deadlock: no runnable thread "
                f"(states: {[(t.tid, t.status) for t in threads]})"
            )
        merged = EpochClock(self.bank)
        for t in threads:
            merged.join(t.vc.values)
        for t in waiting:
            t.vc = merged.copy()
            t.vc.tick(t.tid)
            t.status = "ready"
            t.send_value = None

    def run(self, threads: list[_Thread]) -> None:
        # Start every generator to its first action.
        live = 0
        for t in threads:
            try:
                t.action = t.gen.send(None)
                live += 1
            except StopIteration:
                t.status = "done"
        mem, events, seq, region = self.mem, self.trace.events, self.seq, self.region
        pick = self.strategy.pick
        new = tuple.__new__  # builds a MemEvent without its Python-level __new__
        # The ready threads in team order, rebuilt only when a status changes.
        ready = None
        while live:
            if ready is None:
                ready = [t for t in threads if t.status == "ready"]
                if not ready:
                    self._release_barrier(threads, live)
                    ready = None
                    continue
            t = pick(ready)
            action = t.action
            if action is None:
                send = t.send_value  # resumed after a block: pull the next action
            else:
                kind = action[0]
                if kind == "read" or kind == "write":
                    is_write = kind == "write"
                    events.append(new(MemEvent, (
                        next(seq), t.tid, is_write, action[1], t.vc.row(), t.locks, False, t.lane, region,
                    )))
                    if is_write:
                        mem.store(action[1], action[2])
                        send = None
                    else:
                        send = mem.load(action[1])
                elif self._process(t, action):
                    send = t.send_value
                    if kind == "release":
                        ready = None  # a waiter may have taken the lock
                else:
                    t.action = None  # re-armed when unblocked
                    ready = None
                    continue
            try:
                t.action = t.gen.send(send)
            except StopIteration:
                t.status = "done"
                live -= 1
                ready = None


# ---------------------------------------------------------------------------
# Top-level execution
# ---------------------------------------------------------------------------


class _Execution:
    """One run of a program: serial top-level statements plus teams."""

    def __init__(self, code: CompiledProgram, n_threads: int, strategy: ScheduleStrategy, trace: Trace) -> None:
        self.code = code
        self.mem = SharedMemory(code.program)
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

    def _run_serial(self, stmt) -> None:
        gen, fn = self.code.stmt(stmt)
        if gen:
            self._drain(fn({}))
        else:
            fn({})

    def _eval_serial(self, expr) -> int:
        form, fn = self.code.expr(expr)
        if form == _PURE:
            return _as_index(fn({}))
        if form == _READ:
            return _as_index(_access(self.mem, fn({})))
        return _as_index(self._drain(fn({})))

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

    def _body(self, pragma: Pragma, node, loop_vars: list[str]) -> tuple:
        """``node`` compiled against the names a team member keeps private."""
        private = frozenset(pragma.private_vars).union(pragma.reductions, loop_vars)
        return self.code.stmt(node, private)

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
            space, loop_vars, node = self._collapse_space(loop)
        else:
            space = [(i,) for i in self._iterations(loop)]
            loop_vars, node = [loop.var], loop.body

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
        gen, body = self._body(pragma, node, loop_vars)

        def worker(k: int, env: dict):
            queue = queues[k]
            while queue:
                grabbed = queue[:grab]
                del queue[:grab]
                for point in grabbed:
                    env.update(zip(loop_vars, point))
                    if gen:
                        yield from body(env)
                    else:
                        body(env)

        tids = [("dev", k) if pragma.is_target else k for k in range(n)]
        self._run_team(pragma, tids, worker, loop_vars)

    def _run_simd(self, loop: Loop) -> None:
        iters = self._iterations(loop)
        safelen_args = loop.pragma.clause_args("safelen")
        vl = int(safelen_args[0]) if safelen_args else 4
        n_chunks = (len(iters) + vl - 1) // vl
        var = loop.var
        gen, body = self._body(loop.pragma, loop.body, [var])

        def lane_worker(lane: int, env: dict):
            for c in range(n_chunks):
                pos = c * vl + lane
                if pos < len(iters):
                    env[var] = iters[pos]
                    if gen:
                        yield from body(env)
                    else:
                        body(env)
                yield _BARRIER  # end of the vector step

        tids = [("lane", lane) for lane in range(vl)]
        self._run_team(loop.pragma, tids, lane_worker, [var], lane=True)

    def run_parallel_region(self, node: ParallelRegion) -> None:
        pragma = node.pragma or Pragma("parallel")
        n = pragma.num_threads or self.n_threads
        gen, body = self._body(pragma, node.body, [])

        def member(k: int, env: dict):
            if gen:
                yield from body(env)
            else:
                body(env)

        self._run_team(pragma, list(range(n)), member, [])

    def run(self) -> Trace:
        for stmt in self.code.program.body:
            if isinstance(stmt, Loop) and stmt.pragma is not None:
                kind = stmt.pragma.kind
                if kind == "simd" or "for" in kind.split() or kind.startswith("target"):
                    self.run_parallel_loop(stmt)
                    continue
                raise ExecutionError(f"unsupported loop directive {kind!r}")
            elif isinstance(stmt, ParallelRegion):
                self.run_parallel_region(stmt)
            else:
                self._run_serial(stmt)
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
    :mod:`repro.runtime.schedules` for the other policies.  To run one
    program under several schedules, build a :class:`CompiledProgram`
    once and call its :meth:`~CompiledProgram.execute` per schedule.
    """
    return CompiledProgram(program).execute(n_threads, schedule_seed, strategy)
