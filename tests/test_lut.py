import math

import numpy as np
import pytest

from pimfuncs.costmodel import with_counting
from pimfuncs.errors import RangeError
from pimfuncs.fixedpoint import to_fixed, to_float
from pimfuncs.lut import (address_of, build_dllut, build_dlut,
                          build_fixed_llut, build_llut, build_mlut,
                          dllut_query_interp, dlut_query_interp,
                          fixed_llut_query, fixed_llut_query_interp,
                          llut_query, llut_query_interp, lut_memory_bytes,
                          mlut_query, mlut_query_interp, node_of)


class TestMlutAddressing:
    # 12 cells over [0, 5): k = 12/5 = 2.4, offset centers cells on nodes
    def test_density_and_offset(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        assert t.spec.k == pytest.approx(2.4)
        assert t.spec.p == pytest.approx(5.0 / 24.0, abs=1e-5)  # ~0.20833

    def test_worked_address(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        assert address_of(t, 3.0) == 7

    def test_worked_pseudo_inverse(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        assert node_of(t, 7) == pytest.approx(3.125, abs=1e-9)

    def test_entries_hold_node_values(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        for a in range(12):
            assert t.entries[a] == np.float32(math.sin(node_of(t, a)))

    def test_query_returns_nearest_node_value(self):
        t = build_mlut(math.sin, 0.0, 5.0, 120)
        for x in [0.01, 1.7, 3.0, 4.99]:
            got = float(mlut_query(t, x))
            assert got == pytest.approx(math.sin(x), abs=1.0 / (2 * 24.0))

    def test_out_of_range_raises(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12)
        with pytest.raises(RangeError):
            mlut_query(t, 5.5)
        with pytest.raises(RangeError):
            mlut_query(t, -0.1)

    def test_interp_guard_entry(self):
        t = build_mlut(math.sin, 0.0, 5.0, 12, interpolated=True)
        assert len(t.entries) == 13
        assert t.spec.p == 0.0  # interp nodes start at lo

    def test_interp_beats_nearest(self):
        tn = build_mlut(math.exp, 0.0, 1.0, 64)
        ti = build_mlut(math.exp, 0.0, 1.0, 64, interpolated=True)
        xs = np.linspace(0.001, 0.999, 101)
        err_n = max(abs(float(mlut_query(tn, x)) - math.exp(x)) for x in xs)
        err_i = max(abs(float(mlut_query_interp(ti, x)) - math.exp(x)) for x in xs)
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
        _, c = with_counting(lambda: llut_query(t, 2.5))
        assert c.float_mul == 0
        assert c.int_mul == 0
        assert c.ldexp_op == 1
        assert c.lut_lookup == 1

    def test_one_multiply_interp(self):
        t = build_llut(math.sin, 0.0, 6.0, 1024, interpolated=True)
        _, c = with_counting(lambda: llut_query_interp(t, 2.5))
        assert c.float_mul == 1
        assert c.lut_lookup == 2

    def test_interp_accuracy(self):
        t = build_llut(math.sin, 0.0, 2 * math.pi, 4096, interpolated=True)
        xs = np.random.default_rng(3).uniform(0, 2 * math.pi, 500)
        for x in xs:
            x32 = float(np.float32(x))
            assert float(llut_query_interp(t, x32)) == pytest.approx(
                math.sin(x32), abs=1e-6)


class TestFixedLlut:
    def test_shift_addressing_matches_float(self):
        ff = build_llut(math.sin, 0.0, 6.0, 4096)
        fx = build_fixed_llut(math.sin, 0.0, 6.0, 4096)
        for x in [0.01, 1.234, 3.999, 5.9]:
            a_float = float(llut_query(ff, x))
            a_fixed = float(to_float(fixed_llut_query(fx, to_fixed(x))))
            assert a_fixed == pytest.approx(a_float, abs=1e-7)

    def test_interp_uses_int_mul_only(self):
        t = build_fixed_llut(math.sin, 0.0, 6.0, 1024, interpolated=True)
        _, c = with_counting(lambda: fixed_llut_query_interp(t, to_fixed(2.5)))
        assert c.float_mul == 0
        assert c.int_mul == 1

    def test_interp_close_to_float_interp(self):
        ff = build_llut(math.sin, 0.0, 6.0, 4096, interpolated=True)
        fx = build_fixed_llut(math.sin, 0.0, 6.0, 4096, interpolated=True)
        xs = np.random.default_rng(5).uniform(0, 5.99, 300)
        for x in xs:
            vf = float(llut_query_interp(ff, float(x)))
            vx = float(to_float(fixed_llut_query_interp(fx, to_fixed(float(x)))))
            assert vx == pytest.approx(vf, abs=3e-7)

    def test_rejects_range_outside_q3_28(self):
        with pytest.raises(RangeError):
            build_fixed_llut(math.exp, 0.0, 16.0, 64)

    def test_density_exponent_28(self):
        # n = FRAC_BITS leaves no raw bits below the address, so the
        # nearest-entry rounding term is 0, not a negative shift.
        t = build_fixed_llut(math.sin, 0.0, 2.0 ** -27, 2)
        assert t.spec.n == 28
        got = fixed_llut_query(t, to_fixed(2.0 ** -29))
        assert got.raw == t.entries[0]


class TestDlut:
    def test_worked_address(self):
        # 3.0 = 1.5 * 2**1; top 2 mantissa bits of 0.5 are '10'
        t = build_dlut(math.sqrt, exp_bits=3, mant_bits=2, base_exponent=0)
        assert address_of(t, 3.0) == 6

    def test_node_round_trip(self):
        t = build_dlut(math.sqrt, exp_bits=3, mant_bits=4, base_exponent=-2)
        for a in [0, 5, 17, 40]:
            x = node_of(t, a)
            assert address_of(t, x) == a

    def test_resolution_scales_with_exponent(self):
        t = build_dlut(math.sqrt, exp_bits=3, mant_bits=4, base_exponent=0)
        # cell width at exponent e is 2**(e - mant_bits)
        assert node_of(t, 1) - node_of(t, 0) == pytest.approx(2.0 ** -4)
        assert node_of(t, 17) - node_of(t, 16) == pytest.approx(2.0 ** -3)

    def test_interp_query(self):
        t = build_dlut(math.tanh, exp_bits=5, mant_bits=8, base_exponent=-16)
        for x in [0.001, 0.37, 1.0, 2.5, 100.0]:
            assert float(dlut_query_interp(t, x)) == pytest.approx(
                math.tanh(x), abs=3e-6)

    def test_below_base_raises(self):
        t = build_dlut(math.tanh, exp_bits=5, mant_bits=8, base_exponent=-16)
        with pytest.raises(RangeError):
            dlut_query_interp(t, 2.0 ** -20)
        with pytest.raises(RangeError):
            dlut_query_interp(t, -1.0)

    def test_one_float_multiply(self):
        t = build_dlut(math.tanh, exp_bits=5, mant_bits=8, base_exponent=-16)
        _, c = with_counting(lambda: dlut_query_interp(t, 0.37))
        assert c.float_mul == 1
        assert c.int_mul == 0

    def test_step_capacity_validated(self):
        with pytest.raises(ValueError):
            build_dlut(math.tanh, exp_bits=2, mant_bits=4, base_exponent=0,
                       hi_exponent=8)


class TestDllut:
    def test_covers_zero(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        assert float(dllut_query_interp(t, 0.0)) == 0.0

    def test_boundary_continuity(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        below = float(dllut_query_interp(t, 0.9999999))
        above = float(dllut_query_interp(t, 1.0))
        assert abs(below - above) < 1e-5

    def test_accuracy(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        for x in np.linspace(0.0, 10.0, 101):
            assert float(dllut_query_interp(t, float(x))) == pytest.approx(
                math.tanh(x), abs=5e-6)

    def test_negative_rejected(self):
        t = build_dllut(math.tanh, exp_bits=4, mant_bits=8, base_exponent=0)
        with pytest.raises(RangeError):
            dllut_query_interp(t, -0.5)


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
