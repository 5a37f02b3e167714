"""Failure-injection tests for the simulated machine's guard rails."""

import pytest

from repro.openmp import parse_c
from repro.runtime import ExecutionError, execute
from repro.runtime.interpreter import _arith


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
        with pytest.raises(ExecutionError):
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
        with pytest.raises(ExecutionError):
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
        with pytest.raises(ExecutionError):
            _arith("**", 2, 3)
