"""Failure-injection tests for the simulated machine's guard rails."""

import re

import pytest

from repro.openmp import parse_c
from repro.openmp.ast_nodes import (
    Assign, BinOp, Idx, IfStmt, Loop, Num, ParallelRegion, Seq, Var,
)
from repro.openmp.pragmas import Pragma
from repro.runtime import ExecutionError, execute
from repro.runtime.interpreter import CompiledProgram, _arith


class TestGuards:
    def test_nested_parallel_rejected(self):
        src = """
int i, j;
double a[8];
#pragma omp parallel for
for (i = 0; i < 4; i++) {
  #pragma omp parallel for
  for (j = 0; j < 2; j++) {
    a[i * 2 + j] = 1;
  }
}
"""
        with pytest.raises(ExecutionError, match="nested parallel constructs are not supported"):
            execute(parse_c(src))

    def test_nested_region_rejected(self):
        src = """
double s;
#pragma omp parallel
{
  #pragma omp parallel
  {
    s = 1;
  }
}
"""
        with pytest.raises(ExecutionError, match="nested parallel regions are not supported"):
            execute(parse_c(src))

    def test_division_by_zero(self):
        src = """
int i;
double a[4];
for (i = 0; i < 4; i++) { a[i] = 1 / (i - i); }
"""
        with pytest.raises(ExecutionError):
            execute(parse_c(src))

    def test_modulo_by_zero(self):
        src = """
int i;
double a[4];
for (i = 0; i < 4; i++) { a[i] = i % (i - i); }
"""
        with pytest.raises(ExecutionError):
            execute(parse_c(src))

    def test_non_integer_index(self):
        # Double arrays start as (i % 7) * 0.5 + 1.0, so x[1] == 1.5.
        src = """
double a[8];
double x[8];
a[x[1]] = 1;
"""
        with pytest.raises(ExecutionError, match="non-integer array index 1.5"):
            execute(parse_c(src))

    def test_arith_semantics_match_c(self):
        # Truncating division toward zero for mixed-sign ints.
        assert _arith("/", 7, 2) == 3
        assert _arith("/", -7, 2) == -3
        assert _arith("%", 7, 3) == 1
        assert _arith("%", -7, 3) == -1  # C semantics: sign of dividend
        assert _arith("/", 7.0, 2) == 3.5

    def test_unknown_operator(self):
        with pytest.raises(ExecutionError, match=re.escape("unknown operator '**'")):
            _arith("**", 2, 3)


# Each fault, with the message execution raises when it reaches it.
FAULTS = {
    "nested parallel for": (
        Loop("j", Num(0), Num(2), Seq([Assign(Idx("a", Var("j")), Num(1))]),
             pragma=Pragma("parallel for")),
        "nested parallel constructs are not supported",
    ),
    "nested region": (
        ParallelRegion(Seq([Assign(Var("s"), Num(1))]), Pragma("parallel")),
        "nested parallel regions are not supported",
    ),
    "unknown operator": (
        Assign(Idx("a", Var("i")), BinOp("**", Var("i"), Num(2))),
        "unknown operator '**'",
    ),
    "unevaluable node": (
        Assign(Idx("a", Var("i")), "oops"),
        "cannot evaluate 'oops'",
    ),
}

GUARDED = """
int i, j;
double s;
double a[8];
#pragma omp parallel for
for (i = 0; i < 4; i++) {
  if (i > CUT) {
    a[i] = 2;
  }
  a[i] = 1;
}
"""


def guarded_kernel(fault, cut: int):
    """GUARDED with ``fault`` as the body of its ``if (i > cut)``."""
    program = parse_c(GUARDED.replace("CUT", str(cut)))
    branch = program.body.stmts[0].body.stmts[0]
    assert isinstance(branch, IfStmt)
    branch.then_body = Seq([fault])
    return program


class TestDeferredErrors:
    """Compiling a kernel never raises: each rejected node raises its
    error when, and only if, execution reaches it."""

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_raises_when_reached(self, name):
        fault, message = FAULTS[name]
        program = guarded_kernel(fault, cut=-1)
        code = CompiledProgram(program)
        code.stmt(fault, frozenset({"i"}))  # compiles without raising
        for strategy in ("random", "adversarial"):
            with pytest.raises(ExecutionError, match=re.escape(message)):
                code.execute(n_threads=2, strategy=strategy)

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_in_branch_never_taken_still_runs(self, name):
        fault, _ = FAULTS[name]
        trace = execute(guarded_kernel(fault, cut=10), n_threads=2)
        assert trace.final_arrays["a"][:4].tolist() == [1.0] * 4
        assert [e.loc for e in trace.events if e.is_write] and all(
            e.loc[2] < 4 for e in trace.events
        )

    def test_fault_inside_critical_releases_before_propagating(self):
        program = parse_c("""
double s;
#pragma omp parallel
{
  #pragma omp critical
  { s = 1 / (s - s); }
}
""")
        region = program.body.stmts[0]
        is_gen, body = CompiledProgram(program).stmt(region.body)
        assert is_gen
        thread = body({})
        assert thread.send(None) == ("acquire", "$critical:<anon>")
        assert thread.send(None) == ("read", ("sca", "s"))
        assert thread.send(0.0) == ("read", ("sca", "s"))
        # The division faults; the lock is still released first.
        assert thread.send(0.0) == ("release", "$critical:<anon>")
        with pytest.raises(ExecutionError, match="division by zero"):
            thread.send(None)
        with pytest.raises(ExecutionError, match="division by zero"):
            execute(program)
