import math

import numpy as np
import pytest

from pimfuncs.costmodel import with_counting
from pimfuncs.errors import DomainError, FixedOverflowError, RangeError
from pimfuncs.fixedpoint import (RAW_MAX, RAW_MIN, SCALE, check_raw, fixed_add,
                                 fixed_mul, fixed_shift, fixed_sub, ldexp32,
                                 split_float, to_fixed, to_float)


class TestToFixed:
    def test_exact_small_values(self):
        raw = to_fixed(np.array([0.0, 1.0, -1.0, 0.5]))
        assert raw.dtype == np.int64
        assert raw.tolist() == [0, SCALE, -SCALE, SCALE // 2]
        assert to_fixed(1.0).shape == ()  # a float gives a 0-d result

    def test_pi_oracle(self):
        # round(pi * 2**28) computed independently with integer arithmetic
        assert to_fixed(math.pi) == 843314857

    def test_round_to_nearest_even(self):
        # 2**-29 is exactly halfway between raw 0 and raw 1 -> even (0);
        # 3 * 2**-29 is halfway between raw 1 and raw 2 -> even (2)
        assert to_fixed([2.0 ** -29, 3.0 * 2.0 ** -29]).tolist() == [0, 2]

    def test_range_limits(self):
        to_fixed(np.array([7.999999, -7.999999]))
        for bad in [8.0, -8.0, math.inf, -math.inf, math.nan]:
            with pytest.raises(RangeError):
                to_fixed(np.array([0.5, bad]))
            with pytest.raises(RangeError):
                to_fixed(bad)

    def test_round_trip(self):
        xs = np.array([0.1, -2.7, 3.14159, 7.5, -7.99])
        assert np.all(np.abs(to_fixed(xs) / SCALE - xs) <= 2.0 ** -29)


class TestArithmetic:
    def test_add_sub(self):
        a, b = to_fixed([1.25, -0.5]), to_fixed([2.5, 0.25])
        assert (fixed_add(a, b) / SCALE).tolist() == [3.75, -0.25]
        assert (fixed_sub(a, b) / SCALE).tolist() == [-1.25, -0.75]

    def test_add_overflow_raises(self):
        big = to_fixed(np.array([0.0, 7.9]))
        with pytest.raises(FixedOverflowError):
            fixed_add(big, big)
        with pytest.raises(FixedOverflowError):
            fixed_sub(-big, big)

    def test_shift_is_arithmetic(self):
        assert fixed_shift(np.array([-8, SCALE]), 2).tolist() == [-2, SCALE // 4]
        # floor, not truncation toward 0
        assert fixed_shift(np.array([-1]), 1).tolist() == [-1]
        assert fixed_shift(np.array([RAW_MIN]), 31).tolist() == [-1]

    def test_shift_range(self):
        for i in (32, -1):
            with pytest.raises(RangeError):
                fixed_shift(to_fixed(np.array([1.0])), i)

    def test_mul(self):
        a, b = to_fixed(np.array([1.5, -1.5])), to_fixed(2.0)
        assert (fixed_mul(a, b) / SCALE).tolist() == [3.0, -3.0]
        # truncated toward -inf: (+-2**-28) * 0.5 gives 0 and -2**-28
        assert fixed_mul(np.array([1, -1]), SCALE // 2).tolist() == [0, -1]
        with pytest.raises(FixedOverflowError):
            fixed_mul(to_fixed(np.array([4.0])), to_fixed(2.0))

    def test_raw_bounds_enforced(self):
        with pytest.raises(FixedOverflowError):
            check_raw(np.array([0, RAW_MAX + 1]))
        with pytest.raises(FixedOverflowError):
            check_raw(np.array([RAW_MIN - 1]))
        ok = np.array([RAW_MAX, RAW_MIN])
        assert check_raw(ok) is ok

    def test_ops_are_tallied(self):
        a, b = to_fixed(np.array([0.5, 0.25, 1.0])), to_fixed(0.25)
        _, c = with_counting(lambda: fixed_shift(
            fixed_sub(fixed_mul(fixed_add(a, b), b), b), 1))
        assert (c.int_add, c.int_mul, c.int_shift) == (6, 3, 3)


class TestSplitFloat:
    def test_basic(self):
        e, m = split_float(np.array([6.0]))
        assert (e[0], m[0]) == (2, 1.5)

    def test_mantissa_range(self):
        xs = np.array([0.001, 0.5, 1.0, 1.999, 12345.678])
        e, m = split_float(xs)
        assert np.all((1.0 <= m) & (m < 2.0))
        assert np.array_equal(np.ldexp(m, e), xs)

    def test_domain_errors(self):
        for bad in [0.0, -1.0, math.inf, math.nan]:
            with pytest.raises(DomainError):
                split_float(np.array([1.0, bad]))


class TestLdexp32:
    def test_matches_platform_ldexp(self):
        rng = np.random.default_rng(42)
        args = rng.uniform(-1e5, 1e5, 5000).astype(np.float32)
        exps = rng.integers(-160, 160, 5000)
        for a, e in zip(args, exps):
            with np.errstate(over="ignore"):
                expect = np.ldexp(a, int(e))
            got = ldexp32(a, int(e))
            assert got == expect or (np.isnan(got) and np.isnan(expect)), \
                (float(a), int(e))

    def test_subnormal_outputs(self):
        # 1.0 * 2**-149 is the smallest positive subnormal
        assert ldexp32(np.float32(1.0), -149) == np.ldexp(np.float32(1.0), -149)
        assert ldexp32(np.float32(1.5), -149) == np.ldexp(np.float32(1.5), -149)
        assert ldexp32(np.float32(1.0), -150) == np.float32(0.0)

    def test_subnormal_inputs(self):
        tiny = np.float32(1e-44)
        assert ldexp32(tiny, 30) == np.ldexp(tiny, 30)

    def test_overflow_to_inf(self):
        assert ldexp32(np.float32(1.0), 200) == np.float32(np.inf)
        assert ldexp32(np.float32(-1.0), 200) == np.float32(-np.inf)

    def test_specials_pass_through(self):
        assert ldexp32(np.float32(np.inf), -5) == np.float32(np.inf)
        assert np.isnan(ldexp32(np.float32(np.nan), 3))
        z = ldexp32(np.float32(-0.0), 10)
        assert z == 0.0 and np.signbit(z)

    def test_exact_power_shift(self):
        assert ldexp32(np.float32(3.0), 4) == np.float32(48.0)
        assert ldexp32(np.float32(48.0), -4) == np.float32(3.0)

    def test_tallied(self):
        _, c = with_counting(lambda: ldexp32(np.float32(1.5), 3))
        assert c.ldexp_op == 1

    def test_huge_exponents_saturate(self):
        assert ldexp32(np.float32(1.5), -(1 << 40)) == 0.0
        with np.errstate(over="ignore"):
            assert ldexp32(np.float32(-1.5), 1 << 40) == np.float32(-np.inf)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_silent_at_any_int_exponent(self):
        """A non-positive int exponent cannot overflow: subnormal and
        zero results come without a warning.  A positive one still
        overflows to +-inf without one."""
        x = np.array([1.0, -3e38, 3e38, -1e-40, 0.0, np.inf, np.nan],
                     dtype=np.float32)
        for e in (0, -1, -126, -149, -150, -400, -(1 << 40)):
            got = ldexp32(x, e)
            want = (x.astype(np.float64) * 2.0 ** max(e, -400)).astype(np.float32)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes(), e
        assert ldexp32(x, -149)[0] > 0.0 and ldexp32(x, -150)[0] == 0.0
        for e in (1, 128, 1 << 40):
            got = ldexp32(x, e)
            assert got[2] == np.inf and got[1] == -np.inf, e
            assert got[4] == 0.0 and got[5] == np.inf and np.isnan(got[6])

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        args = rng.uniform(-1e5, 1e5, 300).astype(np.float32)
        exps = rng.integers(-300, 300, 300)
        with np.errstate(over="ignore"):
            got, c = with_counting(lambda: ldexp32(args, exps.astype(np.float64)))
            expect = [ldexp32(a, int(e)) for a, e in zip(args, exps)]
        assert got.dtype == np.float32
        assert got.tobytes() == np.asarray(expect, dtype=np.float32).tobytes()
        assert c.ldexp_op == len(args)


def test_to_float_is_float32():
    v = to_float(to_fixed(np.array([1.0 / 3.0, -2.5])))
    assert v.dtype == np.float32
    assert abs(float(v[0]) - 1.0 / 3.0) < 1e-7 and v[1] == -2.5
    assert isinstance(to_float(to_fixed(1.0 / 3.0)), np.float32)
