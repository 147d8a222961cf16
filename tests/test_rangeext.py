import math

import numpy as np
import pytest

from pimfuncs.errors import DomainError
from pimfuncs.fixedpoint import split_float, to_fixed
from pimfuncs.rangeext import (TWO_PI, exp_extend, exp_split, log_extend,
                               quadrant_adjust, quadrant_reduce, reduce_2pi,
                               reflect_odd, sqrt_extend, sqrt_reduce)


class TestReduce2Pi:
    def test_identity_in_range(self):
        assert reduce_2pi(1.0) == 1.0
        assert reduce_2pi(0.0) == 0.0

    def test_oracle_value(self):
        # 100 - 15 * 2*pi computed in extended precision
        assert reduce_2pi(100.0) == pytest.approx(5.752220392306207, abs=1e-12)

    def test_negative_folds_up(self):
        r = reduce_2pi(-1.0)
        assert 0.0 <= r < TWO_PI
        assert r == pytest.approx(TWO_PI - 1.0, abs=1e-12)

    def test_periodicity(self):
        for x in [3.0, 17.5, -42.0, 1e6]:
            r = reduce_2pi(x)
            assert 0.0 <= r < TWO_PI
            assert math.sin(r) == pytest.approx(math.sin(x), abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            reduce_2pi(math.inf)
        with pytest.raises(DomainError):
            reduce_2pi(math.nan)


class TestQuadrants:
    def test_reduce_all_quadrants(self):
        for q in range(4):
            theta = to_fixed(0.7 + q * math.pi / 2)
            red = quadrant_reduce(theta)
            assert red.quadrant == q
            assert float(red.angle) == pytest.approx(0.7, abs=1e-7)

    def test_angle_stays_small(self):
        for x in np.linspace(0, TWO_PI - 1e-6, 101):
            red = quadrant_reduce(to_fixed(float(x)))
            assert -1e-7 <= float(red.angle) <= math.pi / 2 + 1e-7

    def test_adjust_recovers_sin_cos(self):
        for x in np.linspace(0.01, TWO_PI - 0.01, 37):
            red = quadrant_reduce(to_fixed(float(x)))
            a = float(red.angle)
            s = quadrant_adjust(np.float32(math.cos(a)), np.float32(math.sin(a)),
                                red, "sin")
            c = quadrant_adjust(np.float32(math.cos(a)), np.float32(math.sin(a)),
                                red, "cos")
            assert float(s) == pytest.approx(math.sin(x), abs=1e-6)
            assert float(c) == pytest.approx(math.cos(x), abs=1e-6)

    def test_adjust_rejects_bad_selector(self):
        red = quadrant_reduce(to_fixed(0.3))
        with pytest.raises(ValueError):
            quadrant_adjust(np.float32(1), np.float32(0), red, "tan")


class TestExpSplit:
    def test_split_reconstructs(self):
        for x in [-5.3, -0.1, 0.0, 0.9, 4.2]:
            i, r = exp_split(x)
            assert 0.0 <= r < 1.0
            assert i + r == pytest.approx(x * math.log2(math.e), abs=1e-12)

    def test_extend(self):
        i, r = exp_split(3.3)
        v = exp_extend(np.float32(2.0 ** r), i)
        assert float(v) == pytest.approx(math.exp(3.3), rel=1e-6)

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_non_finite_raises_domain_error(self, x):
        with pytest.raises(DomainError):
            exp_split(x)


class TestSqrtReduce:
    def test_even_exponent_untouched(self):
        m, e = sqrt_reduce(split_float(6.0))  # 1.5 * 2**2
        assert (m, e) == (1.5, 2)

    def test_odd_exponent_folds(self):
        m, e = sqrt_reduce(split_float(2.0))  # 1.0 * 2**1 -> 0.5 * 2**2
        assert (m, e) == (0.5, 2)
        assert e % 2 == 0

    def test_extend_requires_even(self):
        with pytest.raises(ValueError):
            sqrt_extend(np.float32(1.0), 3)

    def test_round_trip(self):
        for x in [0.02, 0.5, 2.0, 77.0, 1e6]:
            m, e = sqrt_reduce(split_float(x))
            v = sqrt_extend(np.float32(math.sqrt(m)), e)
            assert float(v) == pytest.approx(math.sqrt(x), rel=1e-6)


class TestLogExtend:
    def test_composition(self):
        parts = split_float(6.0)
        v = log_extend(parts, np.float32(math.log(parts.mantissa)))
        assert float(v) == pytest.approx(math.log(6.0), rel=1e-6)


class TestReflectOdd:
    def test_positive_passthrough(self):
        assert float(reflect_odd(0.5, math.sin)) == pytest.approx(math.sin(0.5))

    def test_odd_reflection(self):
        v = reflect_odd(-0.5, math.sin)
        assert float(v) == pytest.approx(-math.sin(0.5), abs=1e-7)

    def test_gelu_reflection(self):
        def gelu_pos(x):
            return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

        v = reflect_odd(-1.3, gelu_pos, gelu=True)
        expect = -1.3 * 0.5 * (1.0 + math.erf(-1.3 / math.sqrt(2.0)))
        assert float(v) == pytest.approx(expect, abs=1e-6)
