import math

import numpy as np
import pytest

from pimfuncs.costmodel import counting, with_counting
from pimfuncs.errors import RangeError
from pimfuncs.fixedpoint import to_fixed_array, to_float_array
from pimfuncs.lut import (build_dllut, build_dlut,
                          build_fixed_llut, build_llut, build_mlut,
                          dllut_query_interp, dlut_query_interp,
                          fixed_llut_query, fixed_llut_query_interp,
                          llut_query, llut_query_interp, lut_memory_bytes,
                          mlut_query, mlut_query_interp, node_of)


def at(query, t, x):
    """``query`` of the one-element float64 array holding ``x``."""
    return query(t, np.array([float(x)]))[0]


def fixed_at(query, t, xs):
    """A fixed-table ``query`` of float inputs, converted through Q3.28."""
    return to_float_array(query(t, to_fixed_array(np.asarray(xs, float))))


class TestMlutAddressing:
    # 12 cells over [0, 5): k = 12/5 = 2.4, offset centers cells on nodes
    def test_density_and_offset(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        assert t.spec.k == pytest.approx(2.4)
        assert t.spec.p == pytest.approx(5.0 / 24.0, abs=1e-5)  # ~0.20833

    def test_worked_address(self):
        # a(3.0) = round((3.0 - 5/24) * 2.4) = 7
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        assert at(mlut_query, t, 3.0) == t.entries[7]
        assert at(mlut_query, t, 3.0) not in (t.entries[6], t.entries[8])

    def test_query_at_node_returns_its_entry(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        nodes = np.array([node_of(t, a) for a in range(12)])
        assert np.array_equal(mlut_query(t, nodes), t.entries)

    def test_worked_pseudo_inverse(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        assert node_of(t, 7) == pytest.approx(3.125, abs=1e-9)

    def test_entries_hold_node_values(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        for a in range(12):
            assert t.entries[a] == np.float32(math.sin(node_of(t, a)))

    def test_query_returns_nearest_node_value(self):
        t = build_mlut(math.sin, 0.0, 5.0, 120)
        xs = np.array([0.01, 1.7, 3.0, 4.99])
        np.testing.assert_allclose(mlut_query(t, xs), np.sin(xs),
                                   rtol=0, atol=1.0 / (2 * 24.0))

    def test_out_of_range_raises(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        with pytest.raises(RangeError):
            at(mlut_query, t, 5.5)
        with pytest.raises(RangeError):
            at(mlut_query, t, -0.1)

    def test_interp_guard_entry(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12, interpolated=True)
        assert len(t.entries) == 13
        assert t.spec.p == 0.0  # interp nodes start at lo

    def test_interp_beats_nearest(self):
        tn = build_mlut(math.exp, 0.0, 1.0, 64)
        ti = build_mlut(math.exp, 0.0, 1.0, 64, interpolated=True)
        xs = np.linspace(0.001, 0.999, 101)
        err_n = np.max(np.abs(mlut_query(tn, xs) - np.exp(xs)))
        err_i = np.max(np.abs(mlut_query_interp(ti, xs) - np.exp(xs)))
        assert err_i < err_n / 20


class TestLlutAddressing:
    def test_density_rounds_down_to_power_of_two(self):
        # 12 cells over [0, 6): raw density 2 -> n = 1, range stays [0, 6]
        t = build_llut(math.sin, 0.0, 6.0, 12)
        assert t.spec.n == 1
        assert t.spec.k == 2.0
        assert t.spec.hi == pytest.approx(6.0)

    def test_covered_range_expands(self):
        # 13 cells over [0, 6): density floor(13/6) -> 2, range grows to 6.5
        t = build_llut(math.sin, 0.0, 6.0, 13)
        assert t.spec.n == 1
        assert t.spec.hi == pytest.approx(6.5)

    def test_no_multiply_per_query(self):
        t = build_llut(math.sin, 0.0, 6.0, 1024)
        _, c = with_counting(lambda: at(llut_query, t, 2.5))
        assert c.float_mul == 0
        assert c.int_mul == 0
        assert c.ldexp_op == 1
        assert c.lut_lookup == 1

    def test_one_multiply_interp(self):
        t = build_llut(math.sin, 0.0, 6.0, 1024, interpolated=True)
        _, c = with_counting(lambda: at(llut_query_interp, t, 2.5))
        assert c.float_mul == 1
        assert c.lut_lookup == 2

    def test_interp_accuracy(self):
        t = build_llut(math.sin, 0.0, 2 * math.pi, 4096, interpolated=True)
        xs = np.random.default_rng(3).uniform(0, 2 * math.pi, 500)
        x32 = xs.astype(np.float32).astype(np.float64)
        np.testing.assert_allclose(llut_query_interp(t, x32), np.sin(x32),
                                   rtol=0, atol=1e-6)


class TestFixedLlut:
    def test_shift_addressing_matches_float(self):
        ff = build_llut(math.sin, 0.0, 6.0, 4096)
        fx = build_fixed_llut(math.sin, 0.0, 6.0, 4096)
        xs = np.array([0.01, 1.234, 3.999, 5.9])
        np.testing.assert_allclose(fixed_at(fixed_llut_query, fx, xs),
                                   llut_query(ff, xs), rtol=0, atol=1e-7)

    def test_interp_uses_int_mul_only(self):
        t = build_fixed_llut(math.sin, 0.0, 6.0, 1024, interpolated=True)
        _, c = with_counting(
            lambda: fixed_at(fixed_llut_query_interp, t, [2.5]))
        assert c.float_mul == 0
        assert c.int_mul == 1

    def test_interp_close_to_float_interp(self):
        ff = build_llut(math.sin, 0.0, 6.0, 4096, interpolated=True)
        fx = build_fixed_llut(math.sin, 0.0, 6.0, 4096, interpolated=True)
        xs = np.random.default_rng(5).uniform(0, 5.99, 300)
        np.testing.assert_allclose(fixed_at(fixed_llut_query_interp, fx, xs),
                                   llut_query_interp(ff, xs), rtol=0, atol=3e-7)

    def test_rejects_range_outside_q3_28(self):
        with pytest.raises(RangeError):
            build_fixed_llut(math.exp, 0.0, 16.0, 64)

    def test_density_exponent_28(self):
        # n = FRAC_BITS leaves no raw bits below the address, so the
        # nearest-entry rounding term is 0, not a negative shift.
        t = build_fixed_llut(math.sin, 0.0, 2.0 ** -27, 2)
        assert t.spec.n == 28
        got = fixed_llut_query(t, to_fixed_array(np.array([2.0 ** -29])))
        assert got[0] == t.entries[0]


class TestDlut:
    def test_worked_address(self):
        # 3.0 = 1.5 * 2**1; top 2 mantissa bits of 0.5 are '10'
        # (address 6); a node's interpolation delta is 0
        t = build_dlut(math.sqrt, exp_bits=3, mant_bits=2, base_exponent=0)
        assert at(dlut_query_interp, t, 3.0) == t.entries[6]
        assert t.entries[6] not in (t.entries[5], t.entries[7])

    def test_node_round_trip(self):
        t = build_dlut(math.sqrt, exp_bits=3, mant_bits=4, base_exponent=-2)
        addrs = [0, 5, 17, 40]
        nodes = np.array([node_of(t, a) for a in addrs])
        assert np.array_equal(dlut_query_interp(t, nodes), t.entries[addrs])

    def test_resolution_scales_with_exponent(self):
        t = build_dlut(math.sqrt, exp_bits=3, mant_bits=4, base_exponent=0)
        # cell width at exponent e is 2**(e - mant_bits)
        assert node_of(t, 1) - node_of(t, 0) == pytest.approx(2.0 ** -4)
        assert node_of(t, 17) - node_of(t, 16) == pytest.approx(2.0 ** -3)

    def test_interp_query(self):
        t = build_dlut(math.tanh, exp_bits=5, mant_bits=8, base_exponent=-16)
        xs = np.array([0.001, 0.37, 1.0, 2.5, 100.0])
        np.testing.assert_allclose(dlut_query_interp(t, xs), np.tanh(xs),
                                   rtol=0, atol=3e-6)

    def test_below_base_raises(self):
        t = build_dlut(math.tanh, exp_bits=5, mant_bits=8, base_exponent=-16)
        with pytest.raises(RangeError):
            at(dlut_query_interp, t, 2.0 ** -20)
        with pytest.raises(RangeError):
            at(dlut_query_interp, t, -1.0)

    def test_one_float_multiply(self):
        t = build_dlut(math.tanh, exp_bits=5, mant_bits=8, base_exponent=-16)
        _, c = with_counting(lambda: at(dlut_query_interp, t, 0.37))
        assert c.float_mul == 1
        assert c.int_mul == 0


class TestDllut:
    def test_covers_zero(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        assert at(dllut_query_interp, t, 0.0) == 0.0

    def test_boundary_continuity(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        below, above = dllut_query_interp(t, np.array([0.9999999, 1.0]))
        assert abs(below - above) < 1e-5

    def test_accuracy(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        xs = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(dllut_query_interp(t, xs), np.tanh(xs),
                                   rtol=0, atol=5e-6)

    def test_negative_rejected(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        with pytest.raises(RangeError):
            at(dllut_query_interp, t, -0.5)


class TestMemoryAccounting:
    def test_entry_bytes(self):
        t = build_mlut(math.sin, 0.0, 5.0, 256)
        assert lut_memory_bytes(t) == 256 * 4 + 48

    def test_guard_entry_counted(self):
        t = build_llut(math.sin, 0.0, 5.0, 256, interpolated=True)
        assert lut_memory_bytes(t) == 257 * 4 + 48

    def test_dllut_sums_parts(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        assert lut_memory_bytes(t) == (lut_memory_bytes(t.sub_low)
                                       + lut_memory_bytes(t.sub_high))

    def test_setup_entries_tallied(self):
        _, c = with_counting(lambda: build_mlut(math.sin, 0.0, 5.0, 128))
        assert c.table_setup_entries == 128
        _, c = with_counting(
            lambda: build_llut(math.sin, 0.0, 5.0, 128, interpolated=True))
        assert c.table_setup_entries == 129


class TestLayoutChecks:
    """Sizes and ranges no layout accepts raise RangeError before any
    entry is tabulated."""

    @pytest.mark.parametrize("build, args", [
        (build_dlut, (12, 2, -16)),  # more octaves than a double has
        (build_dlut, (4, 2, 1020)),  # 2**1036 overflows
        (build_dlut, (4, 2, -1080)),  # below the smallest subnormal
        (build_dllut, (4, 2, 1020)),
        (build_mlut, (-1e308, 1e308, 10)),  # hi - lo overflows
        (build_llut, (-1e308, 1e308, 10)),
        (build_mlut, (0.0, 1e-320, 4)),  # infinite density
        (build_llut, (0.0, math.nan, 4)),
    ])
    def test_refused(self, build, args):
        with counting() as c, pytest.raises(RangeError):
            build(math.sin, *args)
        assert c.table_setup_entries == 0

    @pytest.mark.parametrize("build", [build_mlut, build_llut,
                                       build_fixed_llut])
    @pytest.mark.parametrize("interp", [False, True])
    def test_spec_size_counts_cells(self, build, interp):
        t = build(math.sin, 0.0, 1.0, 100, interpolated=interp)
        assert t.spec.size == 100 == len(t.entries) - interp

    def test_d_spec_size_counts_cells(self):
        t = build_dlut(math.tanh, 3, 5, -4)
        assert t.spec.size == 8 << 5 == len(t.entries) - 1
        assert t.spec.hi_exponent == 4
