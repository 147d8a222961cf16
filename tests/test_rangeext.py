import itertools
import math

import numpy as np
import pytest

from pimfuncs import api, rangeext
from pimfuncs.costmodel import OpCounts, counting
from pimfuncs.errors import DomainError
from pimfuncs.fixedpoint import SCALE, split_float, to_fixed
from pimfuncs.harness import DEFAULT_DOMAINS
from pimfuncs.rangeext import (TWO_PI, exp_extend, exp_split, log_extend,
                               quadrant_adjust, quadrant_reduce, reduce_2pi,
                               reflect_odd, sqrt_extend, sqrt_reduce)

from perfbench.tracing import Patches, Tracer


class TestReduce2Pi:
    def test_identity_in_range(self):
        assert reduce_2pi(np.array([1.0, 0.0])).tolist() == [1.0, 0.0]

    def test_oracle_value(self):
        # 100 - 15 * 2*pi computed in extended precision
        r = reduce_2pi(np.array([100.0]))[0]
        assert r == pytest.approx(5.752220392306207, abs=1e-12)

    def test_negative_folds_up(self):
        r = reduce_2pi(np.array([-1.0]))[0]
        assert 0.0 <= r < TWO_PI
        assert r == pytest.approx(TWO_PI - 1.0, abs=1e-12)

    def test_periodicity(self):
        xs = np.array([3.0, 17.5, -42.0, 1e6])
        r = reduce_2pi(xs)
        assert np.all((0.0 <= r) & (r < TWO_PI))
        np.testing.assert_allclose(np.sin(r), np.sin(xs), atol=1e-9)

    def test_non_finite_rejected(self):
        for x in (math.inf, math.nan):
            with pytest.raises(DomainError):
                reduce_2pi(np.array([1.0, x]))

    def test_stays_below_the_sin_tables_top(self):
        """The D/DL sin tables stop at 2^3, above 2*pi: every reduced
        input lies in [0, 2*pi), the float32 neighbours of multiples of
        2*pi of either sign and any magnitude included."""
        k = np.concatenate([np.arange(1.0, 4097.0),
                            np.exp2(np.arange(12.0, 126.0))])
        m = np.concatenate([k, -k]) * TWO_PI
        m32 = m.astype(np.float32)
        xs = np.concatenate([m, np.nextafter(m, np.inf),
                             np.nextafter(m, -np.inf), m32,
                             np.nextafter(m32, np.float32(np.inf)),
                             np.nextafter(m32, np.float32(-np.inf))])
        r = reduce_2pi(xs.astype(np.float64))
        assert np.all((0.0 <= r) & (r < TWO_PI)) and TWO_PI < 2.0 ** 3
        assert r.max() > TWO_PI - 1e-9 and np.count_nonzero(r == 0.0)
        for method in (api.MethodId.DLUT_INTERP, api.MethodId.DLLUT_INTERP):
            ev = api.build_evaluator(api.FunctionId.SIN,
                                     api.EvaluatorConfig(method=method))
            assert ev.tables[0].spec.hi == 2.0 ** 3
            out, _ = ev.evaluate_batch(m32)
            assert np.all(np.abs(out) <= 1.0)


class TestQuadrants:
    def test_reduce_all_quadrants(self):
        theta = to_fixed(0.7 + np.arange(4) * math.pi / 2)
        r, q = quadrant_reduce(theta)
        assert q.tolist() == [0, 1, 2, 3]
        np.testing.assert_allclose(r / SCALE, 0.7, atol=1e-7)

    def test_angle_stays_small(self):
        r, _ = quadrant_reduce(to_fixed(np.linspace(0, TWO_PI - 1e-6, 101)))
        assert np.all((-1e-7 <= r / SCALE) & (r / SCALE <= math.pi / 2 + 1e-7))

    def test_adjust_recovers_sin_cos(self):
        xs = np.linspace(0.01, TWO_PI - 0.01, 37)
        r, q = quadrant_reduce(to_fixed(xs))
        a = r / SCALE
        s, c = quadrant_adjust(np.cos(a).astype(np.float32),
                               np.sin(a).astype(np.float32), q)
        np.testing.assert_allclose(s, np.sin(xs), atol=1e-6)
        np.testing.assert_allclose(c, np.cos(xs), atol=1e-6)


class TestExpSplit:
    def test_split_reconstructs(self):
        xs = np.array([-5.3, -0.1, 0.0, 0.9, 4.2])
        i, r = exp_split(xs)
        assert np.all((0.0 <= r) & (r < 1.0))
        np.testing.assert_allclose(i + r, xs * math.log2(math.e), atol=1e-12)

    def test_extend(self):
        i, r = exp_split(np.array([3.3]))
        v = exp_extend((2.0 ** r).astype(np.float32), i)
        assert float(v[0]) == pytest.approx(math.exp(3.3), rel=1e-6)

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_non_finite_raises_domain_error(self, x):
        with pytest.raises(DomainError):
            exp_split(np.array([1.0, x]))


class TestSqrtReduce:
    def test_even_exponent_untouched(self):
        m, e = sqrt_reduce(*split_float(np.array([6.0])))  # 1.5 * 2**2
        assert (m[0], e[0]) == (1.5, 2)

    def test_odd_exponent_folds(self):
        m, e = sqrt_reduce(*split_float(np.array([2.0])))  # 1.0 * 2**1 -> 0.5 * 2**2
        assert (m[0], e[0]) == (0.5, 2)

    def test_round_trip(self):
        xs = np.array([0.02, 0.5, 2.0, 77.0, 1e6])
        m, e = sqrt_reduce(*split_float(xs))
        assert np.all(e % 2 == 0) and np.all((0.5 <= m) & (m < 2.0))
        v = sqrt_extend(np.sqrt(m).astype(np.float32), e)
        np.testing.assert_allclose(v, np.sqrt(xs), rtol=1e-6)


class TestLogExtend:
    def test_composition(self):
        e, m = split_float(np.array([6.0]))
        v = log_extend(e, np.log(m).astype(np.float32))
        assert float(v[0]) == pytest.approx(math.log(6.0), rel=1e-6)


class TestReflectOdd:
    def test_positive_passthrough(self):
        v = reflect_odd(np.array([0.5]), np.sin)
        assert float(v[0]) == pytest.approx(math.sin(0.5))

    def test_odd_reflection(self):
        with counting() as c:
            v = reflect_odd(np.array([-0.5, 0.5]), np.sin)
        np.testing.assert_allclose(v, [-math.sin(0.5), math.sin(0.5)], atol=1e-7)
        assert c == OpCounts()  # the sign flip is not tallied


class _Recording(Patches):
    def __init__(self):
        super().__init__()
        self.replaced = []

    def replace(self, original, replacement) -> None:
        self.replaced.append(original)
        super().replace(original, replacement)


def test_tracer_wraps_range_steps_that_default_cells_call():
    """Every range-step name the benchmark tracer wraps resolves, and
    some default cell's evaluate_batch on its domain calls it."""
    patches = _Recording()
    Tracer().install(patches)
    patches.undo()
    steps = [f for f in patches.replaced
             if f.__module__ in ("pimfuncs.rangeext", "pimfuncs.fixedpoint")]
    assert {"quadrant_reduce", "reflect_odd",
            "split_float"} <= {f.__name__ for f in steps}

    called = set()
    calls = Patches()
    for f in steps:
        def counted(*args, _f=f, **kwargs):
            called.add(_f.__name__)
            return _f(*args, **kwargs)
        calls.replace(f, counted)
    try:
        rng = np.random.default_rng(0)
        for function, method, fmt in itertools.product(
                api.FunctionId, api.MethodId, api.NumberFormat):
            if api.supported(function, method, fmt):
                ev = api.build_evaluator(function,
                                         api.EvaluatorConfig(method, fmt))
                ev.evaluate_batch(rng.uniform(*DEFAULT_DOMAINS[function], 64))
    finally:
        calls.undo()
    assert {f.__name__ for f in steps} - called == set()
    assert rangeext.reduce_2pi is reduce_2pi  # undone
