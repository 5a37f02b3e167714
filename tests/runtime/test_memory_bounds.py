"""Explicit array-bounds semantics for both languages.

C buffers are exactly ``size`` slots (valid indices ``0..size-1``);
Fortran buffers carry one padding slot at index 0 so 1-based subscripts
are used as-is (valid indices ``1..size``) — the padding slot must never
be silently addressable."""

import pytest

from repro.openmp import parse_c, parse_fortran
from repro.runtime import SharedMemory


@pytest.fixture
def c_mem():
    return SharedMemory(parse_c("double a[8];"))


@pytest.fixture
def f_mem():
    return SharedMemory(parse_fortran("real :: a(8)"))


class TestCBounds:
    def test_first_and_last_valid(self, c_mem):
        c_mem.store(("arr", "a", 0), 1.0)
        c_mem.store(("arr", "a", 7), 2.0)
        assert c_mem.load(("arr", "a", 0)) == 1.0
        assert c_mem.load(("arr", "a", 7)) == 2.0

    def test_size_rejected(self, c_mem):
        with pytest.raises(IndexError):
            c_mem.load(("arr", "a", 8))

    def test_negative_rejected(self, c_mem):
        with pytest.raises(IndexError):
            c_mem.load(("arr", "a", -1))


class TestFortranBounds:
    def test_padding_slot_rejected(self, f_mem):
        # Index 0 exists in the buffer (the padding slot) but is not a
        # legal Fortran subscript; it must raise, not silently alias.
        with pytest.raises(IndexError):
            f_mem.load(("arr", "a", 0))
        with pytest.raises(IndexError):
            f_mem.store(("arr", "a", 0), 9.0)

    def test_first_and_last_valid(self, f_mem):
        f_mem.store(("arr", "a", 1), 1.0)
        f_mem.store(("arr", "a", 8), 2.0)
        assert f_mem.load(("arr", "a", 1)) == 1.0
        assert f_mem.load(("arr", "a", 8)) == 2.0

    def test_size_plus_one_rejected(self, f_mem):
        with pytest.raises(IndexError):
            f_mem.load(("arr", "a", 9))

    def test_error_message_reports_window(self, f_mem):
        with pytest.raises(IndexError, match=r"\[1, 8\]"):
            f_mem.load(("arr", "a", 0))


def test_undeclared_array_rejected(c_mem):
    with pytest.raises(KeyError):
        c_mem.load(("arr", "nope", 0))
