import math
from functools import partial

import numpy as np
import pytest

from pimfuncs import (EvaluatorConfig, FunctionId, MethodId, build_evaluator,
                      combined, cordic, counting, supported)
from pimfuncs.combined import build_cordic_lut, cordic_lut_rotate
from pimfuncs.cordic import (HYPERBOLIC_REPEATS, CordicMode, cordic_rotate,
                             cordic_vector, generate_cordic_tables)
from pimfuncs.costmodel import with_counting
from pimfuncs.errors import DomainError, RangeError
from pimfuncs.fixedpoint import RAW_MAX, RAW_MIN, SCALE, to_fixed, to_float
from pimfuncs.harness import DEFAULT_DOMAINS


def fx(*values) -> np.ndarray:
    """Raw Q3.28 int64 array of ``values``."""
    return to_fixed(values)


def fl(raw: np.ndarray) -> np.ndarray:
    """float64 values of a raw Q3.28 array."""
    return to_float(raw).astype(np.float64)


class TestTableGeneration:
    def test_circular_inverse_gain(self):
        # Product over i=0..23 of 1/sqrt(1 + 2^-2i), independent double oracle
        t = generate_cordic_tables(CordicMode.CIRCULAR, 24)
        assert t.inv_gain / SCALE == pytest.approx(0.6072529350088813,
                                                   abs=1e-8)

    def test_circular_schedule(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 8)
        assert t.schedule == tuple(range(8))
        assert t.phi_raw[0] / SCALE == pytest.approx(math.atan(1.0), abs=1e-8)

    def test_hyperbolic_repeats(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 16)
        assert t.schedule[:6] == (1, 2, 3, 4, 4, 5)
        long = generate_cordic_tables(CordicMode.HYPERBOLIC, 16)
        assert long.schedule.count(4) == 2

    def test_hyperbolic_repeat_13(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 20)
        assert t.schedule.count(13) == 2
        repeated = {i for i in t.schedule if t.schedule.count(i) > 1}
        assert set(HYPERBOLIC_REPEATS) >= repeated

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

    @pytest.mark.parametrize("mode", list(CordicMode))
    def test_first_index_below_the_modes_clamps(self, mode):
        plain = generate_cordic_tables(mode, 12)
        assert generate_cordic_tables(mode, 12, -3) == plain
        assert plain.schedule[0] == (0 if mode is CordicMode.CIRCULAR else 1)

    # first_index None is plain CORDIC's; 2..20 are CORDIC+LUT's address
    # widths, whose remaining iterations start there.
    @pytest.mark.parametrize("first_index", [None, *range(2, 21)])
    @pytest.mark.parametrize("mode", list(CordicMode))
    def test_raws_are_per_angle_conversions(self, mode, first_index):
        """Each raw angle and the raw inverse gain are the Q3.28 of that
        one double, a Python int, with gain and max_angle the products
        and sums taken in schedule order."""
        angle = math.atan if mode is CordicMode.CIRCULAR else math.atanh
        sign = 1.0 if mode is CordicMode.CIRCULAR else -1.0
        for n_iter in range(1, 33 if mode is CordicMode.CIRCULAR else 31):
            t = generate_cordic_tables(mode, n_iter, first_index)
            gain, max_angle = 1.0, 0.0
            for i in t.schedule:
                gain *= math.sqrt(1.0 + sign * 2.0 ** (-2 * i))
                max_angle += angle(2.0 ** -i)
            assert (t.gain, t.max_angle) == (gain, max_angle)
            assert t.phi_raw == tuple(int(to_fixed(angle(2.0 ** -i)))
                                      for i in t.schedule)
            assert t.inv_gain == int(to_fixed(1.0 / gain))
            assert {type(v) for v in (*t.phi_raw, t.inv_gain)} == {int}


class TestRotation:
    def test_sin_cos_of_one(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        x, y = cordic_rotate(t, fx(1.0))
        assert fl(x)[0] == pytest.approx(math.cos(1.0), abs=1e-7)
        assert fl(y)[0] == pytest.approx(math.sin(1.0), abs=1e-7)

    def test_negative_angle(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        x, y = cordic_rotate(t, fx(-0.8))
        assert fl(y)[0] == pytest.approx(math.sin(-0.8), abs=1e-7)

    def test_loop_op_counts(self):
        # 28 iterations: exactly 2 shifts + 3 adds each, zero multiplies
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        _, c = with_counting(lambda: cordic_rotate(t, fx(0.7)))
        assert c.int_shift == 56
        assert c.int_add == 84
        assert c.int_mul == 0
        assert c.float_mul == 0

    def test_out_of_convergence_raises(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        with pytest.raises(RangeError):
            cordic_rotate(t, fx(3.0))

    def test_hyperbolic_rotation(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        x, y = cordic_rotate(t, fx(0.9))
        assert fl(x)[0] == pytest.approx(math.cosh(0.9), abs=1e-7)
        assert fl(y)[0] == pytest.approx(math.sinh(0.9), abs=1e-7)

    def test_hyperbolic_identity(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        x, y = map(fl, cordic_rotate(t, fx(*np.linspace(-1.05, 1.05, 21))))
        np.testing.assert_allclose(x ** 2 - y ** 2, 1.0, rtol=0, atol=1e-4)


class TestVectoring:
    def test_circular_atan(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        _, theta = cordic_vector(t, fx(1.0), fx(0.5))
        assert fl(theta)[0] == pytest.approx(math.atan(0.5), abs=1e-7)

    def test_hyperbolic_atanh(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        _, theta = cordic_vector(t, fx(1.0), fx(0.4))
        assert fl(theta)[0] == pytest.approx(math.atanh(0.4), abs=1e-7)

    def test_requires_positive_x(self):
        t = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        with pytest.raises(DomainError):
            cordic_vector(t, fx(0.0), fx(0.5))

    def test_ratio_out_of_range(self):
        t = generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
        with pytest.raises(RangeError):
            cordic_vector(t, fx(1.0), fx(0.95))


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
    """A whole array runs the same loop as each of its elements alone."""

    @pytest.mark.parametrize("name", sorted(_raw_array_cases()))
    def test_array_equals_per_element(self, name):
        fn, raws = _raw_array_cases()[name]
        (ax, ay), counts = with_counting(lambda: fn(*raws))
        assert ax.dtype == ay.dtype == np.int64
        n = raws[0].size
        per_element = []
        for k in range(n):
            (ex, ey), c = with_counting(lambda: fn(*(r[k:k + 1] for r in raws)))
            assert ex.dtype == ey.dtype == np.int64
            assert (ax[k], ay[k]) == (ex[0], ey[0])
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


def _cordic(name: str, x: float) -> np.float32:
    """``name`` of ``x`` via the plain CORDIC cell (28 iterations)."""
    cfg = EvaluatorConfig(method=MethodId.CORDIC)
    return build_evaluator(FunctionId(name), cfg).evaluate(x)


class TestPipelines:
    @pytest.mark.parametrize("x", [-9.7, -2.5, -0.3, 0.0, 0.5, 1.570796, 3.0,
                                   6.2, 25.0])
    def test_sin(self, x):
        assert float(_cordic("sin", x)) == pytest.approx(math.sin(x), abs=3e-7)

    @pytest.mark.parametrize("x", [-9.7, -0.3, 0.0, 2.0, 3.14159, 6.2])
    def test_cos(self, x):
        assert float(_cordic("cos", x)) == pytest.approx(math.cos(x), abs=3e-7)

    @pytest.mark.parametrize("x", [-1.2, -0.4, 0.0, 0.7, 1.3])
    def test_tan(self, x):
        assert float(_cordic("tan", x)) == pytest.approx(math.tan(x), rel=2e-6,
                                                         abs=3e-7)

    def test_tan_pole(self):
        # Exactly the fixed-point pi/2 lands on raw cos == 0
        v = _cordic("tan", to_fixed(math.pi / 2) / SCALE)
        assert abs(float(v)) > 1e6 or math.isinf(float(v))

    @pytest.mark.parametrize("x", [-4.0, -2.0, -0.9, 0.0, 0.4, 1.1, 3.0, 5.0])
    def test_sinh_cosh(self, x):
        assert float(_cordic("sinh", x)) == pytest.approx(math.sinh(x),
                                                          rel=3e-6, abs=3e-7)
        assert float(_cordic("cosh", x)) == pytest.approx(math.cosh(x),
                                                          rel=3e-6)

    @pytest.mark.parametrize("method", [MethodId.CORDIC, MethodId.CORDIC_LUT])
    @pytest.mark.parametrize("x", [-89.4, -89.0, 88.8, 89.0, 89.4])
    def test_sinh_cosh_finite_where_exp_overflows(self, method, x):
        # exp(|x|) > FLT_MAX here, but sinh and cosh are not; beyond
        # |x| ~ 89.42 they overflow too.  The evaluator sees float32(x).
        cfg = EvaluatorConfig(method=method)
        sinh = float(build_evaluator(FunctionId.SINH, cfg).evaluate(x))
        cosh = float(build_evaluator(FunctionId.COSH, cfg).evaluate(x))
        x32 = float(np.float32(x))
        assert sinh == pytest.approx(math.sinh(x32), rel=3e-6)
        assert cosh == pytest.approx(math.cosh(x32), rel=3e-6)
        assert math.isinf(build_evaluator(FunctionId.COSH, cfg).evaluate(89.5))

    @pytest.mark.parametrize("x", [-8.0, -1.0, -0.2, 0.0, 0.8, 2.5, 8.0])
    def test_tanh(self, x):
        assert float(_cordic("tanh", x)) == pytest.approx(math.tanh(x),
                                                          abs=5e-7)

    @pytest.mark.parametrize("x", [-20.0, -3.3, -0.5, 0.0, 1.0, 3.3, 10.0])
    def test_exp(self, x):
        assert float(_cordic("exp", x)) == pytest.approx(math.exp(x), rel=3e-7)

    @pytest.mark.parametrize("x", [1e-6, 0.03, 0.99, 1.0, 6.0, 12345.0])
    def test_log(self, x):
        assert float(_cordic("log", x)) == pytest.approx(math.log(x), rel=3e-6,
                                                         abs=3e-7)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            _cordic("log", 0.0)
        with pytest.raises(DomainError):
            _cordic("log", -1.0)

    @pytest.mark.parametrize("x", [1e-8, 0.25, 0.5, 2.0, 3.0, 1e6])
    def test_sqrt(self, x):
        assert float(_cordic("sqrt", x)) == pytest.approx(math.sqrt(x),
                                                          rel=3e-7)

    def test_float32_output(self):
        assert isinstance(_cordic("sin", 1.0), np.float32)


class TestErrorDecay:
    def test_more_iterations_help(self):
        xs = np.linspace(0.0, math.pi / 2, 257)
        errs = {}
        for n in (10, 16, 22):
            t = generate_cordic_tables(CordicMode.CIRCULAR, n)
            errs[n] = np.max(np.abs(fl(cordic_rotate(t, fx(*xs))[1])
                                    - np.sin(xs)))
        assert errs[16] < errs[10] / 8
        assert errs[22] < errs[16] / 8


def _iterate_where(tables, x, y, t, vectoring=False):
    """Reference loop: ``_iterate`` as it was, steering by ``np.where``."""
    hyper = tables.mode is CordicMode.HYPERBOLIC
    for i, phi in zip(tables.schedule, tables.phi_raw):
        d = np.where(y < 0, 1, -1) if vectoring else np.where(t >= 0, 1, -1)
        ys = d * (y >> i)
        x, y, t = (x + ys if hyper else x - ys), y + d * (x >> i), t - d * phi
    return x, y, t


def _steering_rows(tables):
    """(x, y, t) rows that tie or sit at the ends of the raw range: t == 0
    at the start and after 1-3 iterations, y == 0 at the start and after
    the first iteration, and raw values at and next to +-RAW_MAX."""
    phi = np.cumsum(tables.phi_raw[:3])
    first = tables.schedule[0]
    big = (RAW_MAX, RAW_MIN, RAW_MAX - 1, RAW_MIN + 1)
    rows = [(1 << 28, 0, 0), (1 << 28, 1 << 20, 0), (RAW_MAX, 0, RAW_MAX),
            (RAW_MAX, RAW_MAX >> first, 0), (1 << 26, (1 << 26) >> first, 5)]
    rows += [(1 << 28, 7, int(p)) for p in phi]
    rows += [(a, b, c) for a in big for b in big for c in big]
    return np.array(rows, dtype=np.int64)


class TestSteering:
    """The sign-bit steering in ``_iterate`` matches ``np.where`` bit for bit."""

    @pytest.mark.parametrize("mode", list(CordicMode))
    @pytest.mark.parametrize("vectoring", [False, True])
    @pytest.mark.parametrize("n", [1, 128, 4096])
    def test_matches_where_loop(self, mode, vectoring, n):
        tables = generate_cordic_tables(mode, 28)
        rows = _steering_rows(tables)
        rng = np.random.default_rng(n)
        if n == 1:
            cases = [rows[k:k + 1] for k in range(len(rows))]
        else:
            r = rng.integers(RAW_MIN, RAW_MAX, (n, 3), endpoint=True)
            r[:len(rows)] = rows
            cases = [r]
        for case in cases:
            x, y, t = (np.ascontiguousarray(case[:, j]) for j in range(3))
            got = cordic._iterate(tables, x, y, t, vectoring=vectoring)
            want = _iterate_where(tables, x, y, t, vectoring=vectoring)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                assert g.tolist() == w.tolist()


_ROTATING_CELLS = [(f, m) for m in (MethodId.CORDIC, MethodId.CORDIC_LUT)
                   for f in FunctionId if supported(f, m)]
_HYP_NEAR = [-np.nextafter(np.float32(1.1), np.float32(0)), -0.5, 0.0, 0.25,
             1.0, np.nextafter(np.float32(1.1), np.float32(0))]
_HYP_FAR = [-30.0, -np.float32(1.1), np.float32(1.1), 1.5, 4.0, 89.0]
_HYP_BATCHES = {"near": _HYP_NEAR, "far": _HYP_FAR, "empty": [],
                "mixed": [v for pair in zip(_HYP_NEAR, _HYP_FAR) for v in pair]}


@pytest.fixture
def iterate_calls(monkeypatch):
    """The number of ``_iterate`` calls made so far, as a one-item list."""
    calls = [0]
    original = cordic._iterate

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(cordic, "_iterate", counted)
    monkeypatch.setattr(combined, "_iterate", counted)
    return calls


class TestOneRotation:
    """Every CORDIC and CORDIC+LUT request runs the iteration loop once."""

    @pytest.mark.parametrize("cell", _ROTATING_CELLS,
                             ids=lambda c: f"{c[0].value}-{c[1].value}")
    def test_cell(self, cell, iterate_calls):
        function, method = cell
        ev = build_evaluator(function, EvaluatorConfig(method=method))
        lo, hi = DEFAULT_DOMAINS[function]
        iterate_calls[0] = 0
        ev.evaluate_batch(np.linspace(lo, hi, 37))
        assert iterate_calls == [1]
        ev.evaluate((lo + hi) / 2)
        assert iterate_calls == [2]

    @pytest.mark.parametrize("method", [MethodId.CORDIC, MethodId.CORDIC_LUT])
    @pytest.mark.parametrize("function", [FunctionId.SINH, FunctionId.COSH,
                                          FunctionId.TANH])
    @pytest.mark.parametrize("batch", sorted(_HYP_BATCHES))
    def test_hyperbolic_batches(self, method, function, batch, iterate_calls):
        ev = build_evaluator(function, EvaluatorConfig(method=method))
        xs = np.asarray(_HYP_BATCHES[batch], dtype=np.float32)
        iterate_calls[0] = 0
        out, batch_counts = ev.evaluate_batch(xs)
        assert iterate_calls == [1]
        with counting() as scalar_counts:
            scalar = np.asarray([ev.evaluate(x) for x in xs], dtype=np.float32)
        assert iterate_calls == [1 + xs.size]
        assert out.view(np.uint32).tolist() == scalar.view(np.uint32).tolist()
        assert batch_counts == scalar_counts
