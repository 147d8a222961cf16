import math
from functools import partial

import numpy as np
import pytest

from pimfuncs.combined import build_cordic_lut, cordic_lut_rotate
from pimfuncs.cordic import (HYPERBOLIC_REPEATS, CordicMode, cordic_cos,
                             cordic_cosh, cordic_exp, cordic_log,
                             cordic_rotate, cordic_sin, cordic_sinh,
                             cordic_sqrt, cordic_tan, cordic_tanh,
                             cordic_vector, generate_cordic_tables)
from pimfuncs.costmodel import with_counting
from pimfuncs.errors import DomainError, RangeError
from pimfuncs.fixedpoint import FixedQ3_28, to_fixed, to_float


class TestTableGeneration:
    def test_circular_inverse_gain(self):
        # Product over i=0..23 of 1/sqrt(1 + 2^-2i), independent double oracle
        t = generate_cordic_tables(CordicMode.CIRCULAR, 24)
        assert float(t.inv_gain) == pytest.approx(0.6072529350088813, abs=1e-8)

    def test_circular_schedule(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 8)
        assert t.schedule == tuple(range(8))
        assert float(t.angles[0]) == pytest.approx(math.atan(1.0), abs=1e-8)

    def test_hyperbolic_repeats(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 16)
        assert t.schedule[:6] == (1, 2, 3, 4, 4, 5)
        assert 4 in t.repeat_schedule
        long = generate_cordic_tables(CordicMode.HYPERBOLIC, 16)
        assert long.schedule.count(4) == 2

    def test_hyperbolic_repeat_13(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 20)
        assert t.schedule.count(13) == 2
        assert set(HYPERBOLIC_REPEATS) >= set(t.repeat_schedule)

    def test_hyperbolic_convergence_bound(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        assert t.max_angle == pytest.approx(1.1182, abs=1e-3)

    def test_iteration_limits(self):
        with pytest.raises(RangeError):
            generate_cordic_tables(CordicMode.CIRCULAR, 0)
        with pytest.raises(RangeError):
            generate_cordic_tables(CordicMode.CIRCULAR, 33)
        with pytest.raises(RangeError):
            generate_cordic_tables(CordicMode.HYPERBOLIC, 31)


class TestRotation:
    def test_sin_cos_of_one(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        x, y = cordic_rotate(t, to_fixed(1.0))
        assert float(x) == pytest.approx(math.cos(1.0), abs=1e-7)
        assert float(y) == pytest.approx(math.sin(1.0), abs=1e-7)

    def test_negative_angle(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        x, y = cordic_rotate(t, to_fixed(-0.8))
        assert float(y) == pytest.approx(math.sin(-0.8), abs=1e-7)

    def test_loop_op_counts(self):
        # 28 iterations: exactly 2 shifts + 3 adds each, zero multiplies
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        _, c = with_counting(lambda: cordic_rotate(t, to_fixed(0.7)))
        assert c.int_shift == 56
        assert c.int_add == 84
        assert c.int_mul == 0
        assert c.float_mul == 0

    def test_out_of_convergence_raises(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        with pytest.raises(RangeError):
            cordic_rotate(t, to_fixed(3.0))

    def test_hyperbolic_rotation(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        x, y = cordic_rotate(t, to_fixed(0.9))
        assert float(x) == pytest.approx(math.cosh(0.9), abs=1e-7)
        assert float(y) == pytest.approx(math.sinh(0.9), abs=1e-7)

    def test_hyperbolic_identity(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        for theta in np.linspace(-1.05, 1.05, 21):
            x, y = cordic_rotate(t, to_fixed(float(theta)))
            assert float(x) ** 2 - float(y) ** 2 == pytest.approx(1.0, abs=1e-4)


class TestVectoring:
    def test_circular_atan(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        _, theta = cordic_vector(t, to_fixed(1.0), to_fixed(0.5))
        assert float(theta) == pytest.approx(math.atan(0.5), abs=1e-7)

    def test_hyperbolic_atanh(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        _, theta = cordic_vector(t, to_fixed(1.0), to_fixed(0.4))
        assert float(theta) == pytest.approx(math.atanh(0.4), abs=1e-7)

    def test_requires_positive_x(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        with pytest.raises(DomainError):
            cordic_vector(t, to_fixed(0.0), to_fixed(0.5))

    def test_ratio_out_of_range(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        with pytest.raises(RangeError):
            cordic_vector(t, to_fixed(1.0), to_fixed(0.95))


def _raw(values) -> np.ndarray:
    return np.rint(np.asarray(values) * (1 << 28)).astype(np.int64)


def _raw_array_cases():
    """name -> (entry point, raw argument arrays), one per loop use."""
    circ = generate_cordic_tables(CordicMode.CIRCULAR, 28)
    hyp = generate_cordic_tables(CordicMode.HYPERBOLIC, 24)
    start = build_cordic_lut(CordicMode.HYPERBOLIC, 6, 28)
    angles = np.array([0.0, 1e-9, 0.3, -0.7, 1.05, -1.1, 0.5, 2.0 ** -28])
    m = np.array([1.0, 1.25, 1.5, 1.999, 0.5, 0.75])
    return {
        "rotate-circular": (partial(cordic_rotate, circ), [_raw(angles)]),
        "rotate-hyperbolic": (partial(cordic_rotate, hyp), [_raw(angles)]),
        "vector-hyperbolic": (partial(cordic_vector, hyp),
                              [_raw(m + 1.0), _raw(m - 1.0)]),
        "vector-circular": (partial(cordic_vector, circ),
                            [_raw(m + 0.25), _raw(m - 0.25)]),
        "lut-rotate": (partial(cordic_lut_rotate, start),
                       [_raw(np.abs(angles) * 1.8)]),
    }


class TestRawArrays:
    """int64 raw arrays run the same loop as FixedQ3_28 values."""

    @pytest.mark.parametrize("name", sorted(_raw_array_cases()))
    def test_array_equals_per_element(self, name):
        fn, raws = _raw_array_cases()[name]
        (ax, ay), counts = with_counting(lambda: fn(*raws))
        assert ax.dtype == ay.dtype == np.int64
        n = raws[0].size
        per_element = []
        for k in range(n):
            (fx, fy), c = with_counting(
                lambda: fn(*(FixedQ3_28(int(r[k])) for r in raws)))
            assert isinstance(fx, FixedQ3_28)
            assert (int(ax[k]), int(ay[k])) == (fx.raw, fy.raw)
            per_element.append(c.as_dict())
        assert all(c == per_element[0] for c in per_element)
        assert counts.as_dict() == {op: n * v
                                    for op, v in per_element[0].items()}

    def test_any_bad_element_raises(self):
        circ = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        hyp = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        start = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        ok = np.array([0, 1 << 27, 1 << 26, 3 << 25], dtype=np.int64)
        for k in range(ok.size):
            bad = ok.copy()
            bad[k] = 3 << 28  # 3.0: beyond convergence and the span
            with pytest.raises(RangeError):
                cordic_rotate(circ, bad)
            with pytest.raises(RangeError):
                cordic_lut_rotate(start, bad)
            neg = ok.copy()
            neg[k] = -1
            with pytest.raises(RangeError):
                cordic_lut_rotate(start, neg)
            x0 = np.full(ok.size, 1 << 28, dtype=np.int64)
            x0[k] = 0
            with pytest.raises(DomainError):
                cordic_vector(hyp, x0, ok)
            y0 = ok.copy()
            y0[k] = 255 << 20  # ratio 0.996 > tanh(1.118)
            with pytest.raises(RangeError):
                cordic_vector(hyp, np.full(ok.size, 1 << 28), y0)


class TestPipelines:
    @pytest.mark.parametrize("x", [-9.7, -2.5, -0.3, 0.0, 0.5, 1.570796, 3.0,
                                   6.2, 25.0])
    def test_sin(self, x):
        assert float(cordic_sin(x)) == pytest.approx(math.sin(x), abs=3e-7)

    @pytest.mark.parametrize("x", [-9.7, -0.3, 0.0, 2.0, 3.14159, 6.2])
    def test_cos(self, x):
        assert float(cordic_cos(x)) == pytest.approx(math.cos(x), abs=3e-7)

    @pytest.mark.parametrize("x", [-1.2, -0.4, 0.0, 0.7, 1.3])
    def test_tan(self, x):
        assert float(cordic_tan(x)) == pytest.approx(math.tan(x), rel=2e-6,
                                                     abs=3e-7)

    def test_tan_pole(self):
        # Exactly the fixed-point pi/2 lands on raw cos == 0
        v = cordic_tan(float(to_fixed(math.pi / 2)))
        assert abs(float(v)) > 1e6 or math.isinf(float(v))

    @pytest.mark.parametrize("x", [-4.0, -2.0, -0.9, 0.0, 0.4, 1.1, 3.0, 5.0])
    def test_sinh_cosh(self, x):
        assert float(cordic_sinh(x)) == pytest.approx(math.sinh(x), rel=3e-6,
                                                      abs=3e-7)
        assert float(cordic_cosh(x)) == pytest.approx(math.cosh(x), rel=3e-6)

    @pytest.mark.parametrize("x", [-8.0, -1.0, -0.2, 0.0, 0.8, 2.5, 8.0])
    def test_tanh(self, x):
        assert float(cordic_tanh(x)) == pytest.approx(math.tanh(x), abs=5e-7)

    @pytest.mark.parametrize("x", [-20.0, -3.3, -0.5, 0.0, 1.0, 3.3, 10.0])
    def test_exp(self, x):
        assert float(cordic_exp(x)) == pytest.approx(math.exp(x), rel=3e-7)

    @pytest.mark.parametrize("x", [1e-6, 0.03, 0.99, 1.0, 6.0, 12345.0])
    def test_log(self, x):
        assert float(cordic_log(x)) == pytest.approx(math.log(x), rel=3e-6,
                                                     abs=3e-7)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            cordic_log(0.0)
        with pytest.raises(DomainError):
            cordic_log(-1.0)

    @pytest.mark.parametrize("x", [1e-8, 0.25, 0.5, 2.0, 3.0, 1e6])
    def test_sqrt(self, x):
        assert float(cordic_sqrt(x)) == pytest.approx(math.sqrt(x), rel=3e-7)

    def test_float32_output(self):
        assert isinstance(cordic_sin(1.0), np.float32)


class TestErrorDecay:
    def test_more_iterations_help(self):
        xs = np.linspace(0.0, math.pi / 2, 257)
        errs = {}
        for n in (10, 16, 22):
            t = generate_cordic_tables(CordicMode.CIRCULAR, n)
            errs[n] = max(abs(float(to_float(cordic_rotate(t, to_fixed(float(x)))[1]))
                              - math.sin(x)) for x in xs)
        assert errs[16] < errs[10] / 8
        assert errs[22] < errs[16] / 8
