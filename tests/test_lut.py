import math
from functools import partial

import numpy as np
import pytest

from pimfuncs.costmodel import counting
from pimfuncs.errors import RangeError
from pimfuncs.fixedpoint import ldexp32, to_fixed, to_float
from pimfuncs.lut import (MAX_CELLS, _l_position, _nodes, build_dllut,
                          build_dlut, build_fixed_llut, build_llut, build_mlut,
                          dllut_query_interp, dlut_query_interp,
                          fixed_llut_query, fixed_llut_query_interp,
                          llut_query, llut_query_interp, lut_memory_bytes,
                          mapped, mlut_query, mlut_query_interp)

# The table hosts: libm functions lifted to float64 arrays.
ATAN, EXP, SIN, SQRT, TANH = (partial(mapped, f) for f in (
    math.atan, math.exp, math.sin, math.sqrt, math.tanh))


def at(query, t, x):
    """``query`` of the one-element float64 array holding ``x``."""
    return query(t, np.array([float(x)]))[0]


def node_of(t, addr):
    """The node stored at address ``addr`` of a table ``t``."""
    return float(_nodes(t.spec)(np.array([addr]))[0])


def fixed_at(query, t, xs):
    """A fixed-table ``query`` of float inputs, converted through Q3.28."""
    return to_float(query(t, to_fixed(xs)))


class TestMlutAddressing:
    # 12 cells over [0, 5): k = 12/5 = 2.4, offset centers cells on nodes
    def test_density_and_offset(self):
        t = build_mlut(SIN, 0.0, 5.0, 12)
        assert t.spec.k == pytest.approx(2.4)
        assert t.spec.p == pytest.approx(5.0 / 24.0, abs=1e-5)  # ~0.20833

    def test_worked_address(self):
        # a(3.0) = round((3.0 - 5/24) * 2.4) = 7
        t = build_mlut(SIN, 0.0, 5.0, 12)
        assert at(mlut_query, t, 3.0) == t.entries[7]
        assert at(mlut_query, t, 3.0) not in (t.entries[6], t.entries[8])

    def test_query_at_node_returns_its_entry(self):
        t = build_mlut(SIN, 0.0, 5.0, 12)
        nodes = np.array([node_of(t, a) for a in range(12)])
        assert np.array_equal(mlut_query(t, nodes), t.entries)

    def test_worked_pseudo_inverse(self):
        t = build_mlut(SIN, 0.0, 5.0, 12)
        assert node_of(t, 7) == pytest.approx(3.125, abs=1e-9)

    def test_entries_hold_node_values(self):
        t = build_mlut(SIN, 0.0, 5.0, 12)
        for a in range(12):
            assert t.entries[a] == np.float32(math.sin(node_of(t, a)))

    def test_query_returns_nearest_node_value(self):
        t = build_mlut(SIN, 0.0, 5.0, 120)
        xs = np.array([0.01, 1.7, 3.0, 4.99])
        np.testing.assert_allclose(mlut_query(t, xs), np.sin(xs),
                                   rtol=0, atol=1.0 / (2 * 24.0))

    def test_out_of_range_raises(self):
        t = build_mlut(SIN, 0.0, 5.0, 12)
        with pytest.raises(RangeError):
            at(mlut_query, t, 5.5)
        with pytest.raises(RangeError):
            at(mlut_query, t, -0.1)

    def test_interp_guard_entry(self):
        t = build_mlut(SIN, 0.0, 5.0, 12, interpolated=True)
        assert len(t.entries) == 13
        assert t.spec.p == 0.0  # interp nodes start at lo

    def test_interp_beats_nearest(self):
        tn = build_mlut(EXP, 0.0, 1.0, 64)
        ti = build_mlut(EXP, 0.0, 1.0, 64, interpolated=True)
        xs = np.linspace(0.001, 0.999, 101)
        err_n = np.max(np.abs(mlut_query(tn, xs) - np.exp(xs)))
        err_i = np.max(np.abs(mlut_query_interp(ti, xs) - np.exp(xs)))
        assert err_i < err_n / 20


class TestLlutAddressing:
    def test_density_rounds_down_to_power_of_two(self):
        # 12 cells over [0, 6): raw density 2 -> n = 1, range stays [0, 6]
        t = build_llut(SIN, 0.0, 6.0, 12)
        assert t.spec.n == 1
        assert t.spec.k == 2.0
        assert t.spec.hi == pytest.approx(6.0)

    def test_covered_range_expands(self):
        # 13 cells over [0, 6): density floor(13/6) -> 2, range grows to 6.5
        t = build_llut(SIN, 0.0, 6.0, 13)
        assert t.spec.n == 1
        assert t.spec.hi == pytest.approx(6.5)

    def test_no_multiply_per_query(self):
        t = build_llut(SIN, 0.0, 6.0, 1024)
        with counting() as c:
            at(llut_query, t, 2.5)
        assert c.float_mul == 0
        assert c.int_mul == 0
        assert c.ldexp_op == 1
        assert c.lut_lookup == 1

    def test_one_multiply_interp(self):
        t = build_llut(SIN, 0.0, 6.0, 1024, interpolated=True)
        with counting() as c:
            at(llut_query_interp, t, 2.5)
        assert c.float_mul == 1
        assert c.lut_lookup == 2

    def test_interp_accuracy(self):
        t = build_llut(SIN, 0.0, 2 * math.pi, 4096, interpolated=True)
        xs = np.random.default_rng(3).uniform(0, 2 * math.pi, 500)
        x32 = xs.astype(np.float32).astype(np.float64)
        np.testing.assert_allclose(llut_query_interp(t, x32), np.sin(x32),
                                   rtol=0, atol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lo, hi, size", [
        (0.0, 2 * math.pi, 4096), (-1.0, 1.0, 65536), (0.0, 1e-30, 64),
        (1.0, 1.0 + 2.0 ** -20, 1024), (0.0, 1e6, 16),
        (-float(np.finfo(np.float32).max) / 8,
         float(np.finfo(np.float32).max) / 8, 16),
    ], ids=["sin", "unit", "n=105", "n=30", "n<0", "widest"])
    @pytest.mark.parametrize("interpolated", [False, True])
    def test_position_at_range_ends_is_ldexp32s(self, lo, hi, size,
                                                interpolated):
        """At spec.lo and spec.hi, where |x - p| * 2**n is largest, the
        position has ldexp32's bits, one ldexp_op per element, and no
        overflow warning."""
        t = build_llut(ATAN, lo, hi, size, interpolated=interpolated)
        s = t.spec
        x = np.array([s.lo, s.hi])
        with counting() as c:
            got = _l_position(t, x)
        want = ldexp32(x.astype(np.float32) - np.float32(s.p), s.n)
        assert got.dtype == np.float32
        assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()
        assert c.ldexp_op == 2
        query = llut_query_interp if interpolated else llut_query
        assert np.all(np.isfinite(query(t, x)))


class TestFixedLlut:
    def test_shift_addressing_matches_float(self):
        ff = build_llut(SIN, 0.0, 6.0, 4096)
        fx = build_fixed_llut(SIN, 0.0, 6.0, 4096)
        xs = np.array([0.01, 1.234, 3.999, 5.9])
        np.testing.assert_allclose(fixed_at(fixed_llut_query, fx, xs),
                                   llut_query(ff, xs), rtol=0, atol=1e-7)

    def test_interp_uses_int_mul_only(self):
        t = build_fixed_llut(SIN, 0.0, 6.0, 1024, interpolated=True)
        with counting() as c:
            fixed_at(fixed_llut_query_interp, t, [2.5])
        assert c.float_mul == 0
        assert c.int_mul == 1

    def test_interp_close_to_float_interp(self):
        ff = build_llut(SIN, 0.0, 6.0, 4096, interpolated=True)
        fx = build_fixed_llut(SIN, 0.0, 6.0, 4096, interpolated=True)
        xs = np.random.default_rng(5).uniform(0, 5.99, 300)
        np.testing.assert_allclose(fixed_at(fixed_llut_query_interp, fx, xs),
                                   llut_query_interp(ff, xs), rtol=0, atol=3e-7)

    def test_rejects_range_outside_q3_28(self):
        with pytest.raises(RangeError):
            build_fixed_llut(EXP, 0.0, 16.0, 64)

    def test_density_exponent_28(self):
        # n = FRAC_BITS leaves no raw bits below the address, so the
        # nearest-entry rounding term is 0, not a negative shift.
        t = build_fixed_llut(SIN, 0.0, 2.0 ** -27, 2)
        assert t.spec.n == 28
        got = fixed_llut_query(t, to_fixed(np.array([2.0 ** -29])))
        assert got[0] == t.entries[0]

    @pytest.mark.parametrize("interp", (False, True))
    def test_out_of_range_raises(self, interp):
        # An L-LUT covers [0, 1] at 16 cells; 5.0 would read a clamped cell.
        t = build_fixed_llut(SIN, 0.0, 1.0, 16, interpolated=interp)
        query = fixed_llut_query_interp if interp else fixed_llut_query
        s = t.spec
        edges = to_fixed(np.array([s.lo, s.hi]))
        query(t, edges)
        for raw in (edges[0] - 1, edges[1] + 1, to_fixed(5.0), to_fixed(-5.0)):
            with pytest.raises(RangeError):
                query(t, np.array([edges[0], raw]))


class TestDlut:
    def test_worked_address(self):
        # 3.0 = 1.5 * 2**1; top 2 mantissa bits of 0.5 are '10'
        # (address 6); a node's interpolation delta is 0
        t = build_dlut(SQRT, base_exponent=0, hi_exponent=8, mant_bits=2)
        assert at(dlut_query_interp, t, 3.0) == t.entries[6]
        assert t.entries[6] not in (t.entries[5], t.entries[7])

    def test_node_round_trip(self):
        t = build_dlut(SQRT, base_exponent=-2, hi_exponent=6, mant_bits=4)
        addrs = [0, 5, 17, 40]
        nodes = np.array([node_of(t, a) for a in addrs])
        assert np.array_equal(dlut_query_interp(t, nodes), t.entries[addrs])

    def test_resolution_scales_with_exponent(self):
        t = build_dlut(SQRT, base_exponent=0, hi_exponent=8, mant_bits=4)
        # cell width at exponent e is 2**(e - mant_bits)
        assert node_of(t, 1) - node_of(t, 0) == pytest.approx(2.0 ** -4)
        assert node_of(t, 17) - node_of(t, 16) == pytest.approx(2.0 ** -3)

    def test_interp_query(self):
        t = build_dlut(TANH, base_exponent=-16, hi_exponent=16, mant_bits=8)
        xs = np.array([0.001, 0.37, 1.0, 2.5, 100.0])
        np.testing.assert_allclose(dlut_query_interp(t, xs), np.tanh(xs),
                                   rtol=0, atol=3e-6)

    def test_below_base_raises(self):
        t = build_dlut(TANH, base_exponent=-16, hi_exponent=16, mant_bits=8)
        with pytest.raises(RangeError):
            at(dlut_query_interp, t, 2.0 ** -20)
        with pytest.raises(RangeError):
            at(dlut_query_interp, t, -1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_beyond_float32_raises(self):
        # +-1e39 cast to float32 is +-inf, refused by the range check
        # rather than leaking an overflow warning from the cast.
        t = build_dlut(TANH, base_exponent=-16, hi_exponent=16, mant_bits=8)
        for x in (1e39, -1e39):
            with pytest.raises(RangeError):
                at(dlut_query_interp, t, x)

    def test_one_float_multiply(self):
        t = build_dlut(TANH, base_exponent=-16, hi_exponent=16, mant_bits=8)
        with counting() as c:
            at(dlut_query_interp, t, 0.37)
        assert c.float_mul == 1
        assert c.int_mul == 0


class TestDllut:
    def test_covers_zero(self):
        t = build_dllut(TANH, base_exponent=0, hi_exponent=16, mant_bits=8)
        assert at(dllut_query_interp, t, 0.0) == 0.0

    def test_boundary_continuity(self):
        t = build_dllut(TANH, base_exponent=0, hi_exponent=16, mant_bits=8)
        below, above = dllut_query_interp(t, np.array([0.9999999, 1.0]))
        assert abs(below - above) < 1e-5

    def test_accuracy(self):
        t = build_dllut(TANH, base_exponent=0, hi_exponent=16, mant_bits=8)
        xs = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(dllut_query_interp(t, xs), np.tanh(xs),
                                   rtol=0, atol=5e-6)

    def test_negative_rejected(self):
        t = build_dllut(TANH, base_exponent=0, hi_exponent=16, mant_bits=8)
        with pytest.raises(RangeError):
            at(dllut_query_interp, t, -0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_beyond_float32_raises(self):
        t = build_dllut(TANH, base_exponent=0, hi_exponent=16, mant_bits=8)
        with pytest.raises(RangeError):
            at(dllut_query_interp, t, 1e39)

    def test_node_of_points_to_the_parts(self):
        """A DL-LUT's first 2**mant_bits addresses are L cells of width
        2**(base - mant_bits) from 0; the D octaves' nodes follow, from
        the one node 2**base on."""
        t = build_dllut(TANH, base_exponent=-2, hi_exponent=3, mant_bits=4)
        for a in range(len(t.entries)):
            step, frac = divmod(a, 16)
            want = (a * 2.0 ** -6 if step == 0
                    else math.ldexp(1.0 + frac / 16, step - 3))
            assert node_of(t, a) == want, a
        assert node_of(t, 16) == 0.25 and node_of(t, len(t.entries) - 1) == 8

    def test_split_rounding_up_reads_the_last_l_cell(self):
        """A double below 2**base that float32 rounds up to it takes the
        L position 2**mant_bits, clamped to the last L cell with delta 1:
        entries[255] + (entries[256] - entries[255]) * 1, which is 0 here
        in float32, not entries[256]."""
        host = partial(mapped, lambda v: 3.0 if v < 1.0 else 2.0 ** -30)
        t = build_dllut(host, base_exponent=0, hi_exponent=2, mant_bits=8)
        x = 1.0 - 2.0 ** -30
        assert np.float32(x) == 1.0 and t.entries[256] == 2.0 ** -30
        assert at(dllut_query_interp, t, x) == 0.0


class TestMemoryAccounting:
    def test_entry_bytes(self):
        t = build_mlut(SIN, 0.0, 5.0, 256)
        assert lut_memory_bytes(t) == 256 * 4 + 48

    def test_guard_entry_counted(self):
        t = build_llut(SIN, 0.0, 5.0, 256, interpolated=True)
        assert lut_memory_bytes(t) == 257 * 4 + 48

    def test_dllut_sums_parts(self):
        """One record: 2**mant_bits L cells, 16 octaves of D cells and one
        guard entry, so the node 2**base is stored once."""
        t = build_dllut(TANH, base_exponent=0, hi_exponent=16, mant_bits=8)
        assert lut_memory_bytes(t) == (256 + (16 << 8) + 1) * 4 + 48

    def test_setup_entries_tallied(self):
        with counting() as c:
            build_mlut(SIN, 0.0, 5.0, 128)
        assert c.table_setup_entries == 128
        with counting() as c:
            build_llut(SIN, 0.0, 5.0, 128, interpolated=True)
        assert c.table_setup_entries == 129


class TestLayoutChecks:
    """Sizes and ranges no layout accepts raise RangeError before any
    entry is tabulated."""

    @pytest.mark.parametrize("build, args", [
        (build_dlut, (-16, 4080, 2)),  # more octaves than a double has
        (build_dlut, (1020, 1036, 2)),  # 2**1036 overflows
        (build_dlut, (-1080, -1064, 2)),  # below the smallest subnormal
        (build_dllut, (1020, 1036, 2)),
        (build_mlut, (-1e308, 1e308, 10)),  # hi - lo overflows
        (build_llut, (-1e308, 1e308, 10)),
        (build_mlut, (0.0, 1e-320, 4)),  # infinite density
        (build_llut, (0.0, math.nan, 4)),
        (build_mlut, (0.0, 1e300, 16)),  # density rounds to 0 in float32
        (build_mlut, (0.0, 1e200, 16)),  # x beyond float32
        (build_llut, (0.0, 1e200, 16)),
        (build_mlut, (0.0, 1e-300, 16)),  # density beyond float32
        (build_llut, (-3e38, 3e38, 16)),  # x - p beyond float32
        (build_dlut, (120, 136, 6)),  # 2**136 is beyond float32
        (build_dlut, (-160, -144, 6)),  # 2**-160 is 0 in float32
        (build_dlut, (3, 3, 6)),  # no octave
        (build_dllut, (0, -2, 6)),  # octaves the wrong way round
        (build_dlut, (-16, 16, 0)),  # no mantissa bits
        (build_dllut, (0, 4, 24)),  # more mantissa bits than float32 has
        (build_mlut, (0.0, 1.0, MAX_CELLS + 1)),  # beyond one MRAM bank
        (build_llut, (0.0, 1.0, MAX_CELLS + 1)),
        (build_fixed_llut, (0.0, 1.0, MAX_CELLS + 1)),
        (build_dlut, (-112, 17, 17)),  # 129 octaves of 2**17 cells
        (build_dllut, (-112, 16, 17)),  # 128 octaves and the L cells
    ])
    def test_refused(self, build, args):
        with counting() as c, pytest.raises(RangeError):
            build(SIN, *args)
        assert c.table_setup_entries == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("query", [mlut_query, mlut_query_interp])
    def test_widest_m_range_queries_without_overflow(self, query):
        reach = float(np.finfo(np.float32).max) / 2
        t = build_mlut(ATAN, -reach, reach, 16,
                       interpolated=query is mlut_query_interp)
        out = query(t, np.array([-reach, 0.0, reach]))
        assert np.all(np.isfinite(out))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_widest_d_range_queries_without_overflow(self):
        top = build_dlut(ATAN, 112, 128, 6)  # up to 2**128
        bottom = build_dlut(ATAN, -126, -110, 6)
        f32_max = float(np.finfo(np.float32).max)
        for t, xs in ((top, [2.0 ** 112, f32_max]), (bottom, [2.0 ** -126])):
            assert np.all(np.isfinite(dlut_query_interp(t, np.array(xs))))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_widest_dl_range_queries_without_overflow(self):
        """A DL table's L cells are ldexp-addressed, so their density
        2**(mant_bits - base_exponent) need not be a float32: the DL
        layouts take the D layouts' whole range."""
        top = build_dllut(ATAN, 127, 128, 2)  # L density 2**-125
        bottom = build_dllut(ATAN, -126, -120, 4)  # L density 2**130
        f32_max = float(np.finfo(np.float32).max)
        for t, xs in ((top, [0.0, 2.0 ** 126, 2.0 ** 127, f32_max]),
                      (bottom, [0.0, 2.0 ** -149, 2.0 ** -127, 2.0 ** -121])):
            out = dllut_query_interp(t, np.array(xs))
            assert np.array_equal(out, np.arctan(xs).astype(np.float32))

    @pytest.mark.parametrize("build", [build_mlut, build_llut,
                                       build_fixed_llut])
    @pytest.mark.parametrize("interp", [False, True])
    def test_spec_size_counts_cells(self, build, interp):
        t = build(SIN, 0.0, 1.0, 100, interpolated=interp)
        assert t.spec.size == 100 == len(t.entries) - interp

    def test_d_spec_size_counts_cells(self):
        t = build_dlut(TANH, -4, 4, 5)
        assert t.spec.size == 8 << 5 == len(t.entries) - 1
        assert t.spec.hi_exponent == 4

    @pytest.mark.parametrize("base, hi", [(-16, 3), (-16, 4), (0, 3), (5, 6),
                                          (-126, 128)])
    def test_any_octave_count(self, base, hi):
        """A D layout takes any count of octaves, 19, 20, 3, 1 and 254
        among them; the top cell interpolates towards the guard node."""
        t = build_dlut(ATAN, base, hi, 2)
        s = t.spec
        assert (s.lo, s.hi) == (2.0 ** base, 2.0 ** hi)
        assert s.size == (hi - base) << 2 == len(t.entries) - 1
        assert node_of(t, s.size) == s.hi
        top = s.hi * (1 - 2.0 ** -24)  # the float32 below 2**hi
        got = dlut_query_interp(t, np.array([s.lo, top]))
        assert got[0] == t.entries[0]
        assert t.entries[-2] <= got[1] <= t.entries[-1]
        with pytest.raises(RangeError):
            at(dlut_query_interp, t, s.hi)
