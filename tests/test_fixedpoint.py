import math

import numpy as np
import pytest

from pimfuncs.costmodel import with_counting
from pimfuncs.errors import DomainError, FixedOverflowError, RangeError
from pimfuncs.fixedpoint import (SCALE, FixedQ3_28, fixed_add, fixed_mul,
                                 fixed_shift, fixed_sub, ldexp32, split_float,
                                 to_fixed, to_float)


class TestToFixed:
    def test_exact_small_values(self):
        assert to_fixed(0.0).raw == 0
        assert to_fixed(1.0).raw == SCALE
        assert to_fixed(-1.0).raw == -SCALE
        assert to_fixed(0.5).raw == SCALE // 2

    def test_pi_oracle(self):
        # round(pi * 2**28) computed independently with integer arithmetic
        assert to_fixed(math.pi).raw == 843314857

    def test_round_to_nearest_even(self):
        # 2**-29 is exactly halfway between raw 0 and raw 1 -> even (0)
        assert to_fixed(2.0 ** -29).raw == 0
        # 3 * 2**-29 is halfway between raw 1 and raw 2 -> even (2)
        assert to_fixed(3.0 * 2.0 ** -29).raw == 2

    def test_range_limits(self):
        to_fixed(7.999999)
        to_fixed(-7.999999)
        with pytest.raises(RangeError):
            to_fixed(8.0)
        with pytest.raises(RangeError):
            to_fixed(-8.0)
        with pytest.raises(RangeError):
            to_fixed(math.inf)
        with pytest.raises(RangeError):
            to_fixed(math.nan)

    def test_round_trip(self):
        for x in [0.1, -2.7, 3.14159, 7.5, -7.99]:
            assert abs(float(to_fixed(x)) - x) <= 2.0 ** -29


class TestArithmetic:
    def test_add_sub(self):
        a, b = to_fixed(1.25), to_fixed(2.5)
        assert float(fixed_add(a, b)) == pytest.approx(3.75, abs=1e-8)
        assert float(fixed_sub(a, b)) == pytest.approx(-1.25, abs=1e-8)

    def test_add_overflow_raises(self):
        big = to_fixed(7.9)
        with pytest.raises(FixedOverflowError):
            fixed_add(big, big)

    def test_shift_is_arithmetic(self):
        assert fixed_shift(FixedQ3_28(-8), 2).raw == -2
        assert fixed_shift(FixedQ3_28(-1), 1).raw == -1  # floor, not trunc
        assert fixed_shift(to_fixed(1.0), 4).raw == SCALE >> 4

    def test_shift_range(self):
        with pytest.raises(RangeError):
            fixed_shift(to_fixed(1.0), 32)
        with pytest.raises(RangeError):
            fixed_shift(to_fixed(1.0), -1)

    def test_mul(self):
        a, b = to_fixed(1.5), to_fixed(2.0)
        assert float(fixed_mul(a, b)) == pytest.approx(3.0, abs=1e-8)
        assert float(fixed_mul(to_fixed(-1.5), b)) == pytest.approx(-3.0, abs=2e-8)

    def test_raw_bounds_enforced(self):
        with pytest.raises(FixedOverflowError):
            FixedQ3_28(1 << 31)
        FixedQ3_28((1 << 31) - 1)
        FixedQ3_28(-(1 << 31))

    def test_ops_are_tallied(self):
        a, b = to_fixed(0.5), to_fixed(0.25)
        _, c = with_counting(lambda: fixed_mul(fixed_add(a, b), b))
        assert c.int_add == 1
        assert c.int_mul == 1


class TestSplitFloat:
    def test_basic(self):
        p = split_float(6.0)
        assert p.exponent == 2
        assert p.mantissa == 1.5
        assert p.sign == 1

    def test_mantissa_range(self):
        for x in [0.001, 0.5, 1.0, 1.999, 12345.678]:
            p = split_float(x)
            assert 1.0 <= p.mantissa < 2.0
            assert math.ldexp(p.mantissa, p.exponent) == x

    def test_domain_errors(self):
        for bad in [0.0, -1.0, math.inf, math.nan]:
            with pytest.raises(DomainError):
                split_float(bad)


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
    v = to_float(to_fixed(1.0 / 3.0))
    assert isinstance(v, np.float32)
    assert abs(float(v) - 1.0 / 3.0) < 1e-7
