import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pimfuncs import OpCounts, lut
from pimfuncs.api import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                          build_evaluator, config_for, gelu_exact, supported)
from pimfuncs.errors import DomainError, RangeError, UnsupportedCombinationError
from pimfuncs.harness import DEFAULT_DOMAINS

F = FunctionId
M = MethodId

# Hand-transcribed support matrix: rows are methods, columns are
# sin cos tan sinh cosh tanh exp log sqrt gelu.
EXPECTED_MATRIX = {
    M.CORDIC:       (1, 1, 1, 1, 1, 1, 1, 1, 1, 0),
    M.MLUT:         (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
    M.MLUT_INTERP:  (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
    M.LLUT:         (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
    M.LLUT_INTERP:  (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
    M.DLUT_INTERP:  (1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    M.DLLUT_INTERP: (1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
    M.CORDIC_LUT:   (1, 1, 1, 1, 1, 1, 1, 0, 0, 0),
}

FUNCTION_ORDER = (F.SIN, F.COS, F.TAN, F.SINH, F.COSH, F.TANH, F.EXP, F.LOG,
                  F.SQRT, F.GELU)

_REF = {
    F.SIN: math.sin, F.COS: math.cos, F.TAN: math.tan, F.SINH: math.sinh,
    F.COSH: math.cosh, F.TANH: math.tanh, F.EXP: math.exp, F.LOG: math.log,
    F.SQRT: math.sqrt, F.GELU: gelu_exact,
}

_PROBE = {
    F.SIN: 2.5, F.COS: 2.5, F.TAN: 0.9, F.SINH: 1.7, F.COSH: 1.7, F.TANH: 1.7,
    F.EXP: 3.1, F.LOG: 6.0, F.SQRT: 2.0, F.GELU: 1.3,
}


class TestSupportMatrix:
    def test_all_80_cells(self):
        for method, row in EXPECTED_MATRIX.items():
            for function, expect in zip(FUNCTION_ORDER, row):
                assert supported(function, method) == bool(expect), \
                    (function, method)

    def test_cell_count(self):
        assert len(EXPECTED_MATRIX) * len(FUNCTION_ORDER) == 80

    def test_fixed_format_only_for_llut(self):
        for method in MethodId:
            for function in FunctionId:
                ok = supported(function, method, NumberFormat.FIXED)
                if method in (M.LLUT, M.LLUT_INTERP):
                    assert ok == supported(function, method)
                else:
                    assert not ok

    def test_unsupported_build_raises(self):
        with pytest.raises(UnsupportedCombinationError):
            build_evaluator(F.GELU, EvaluatorConfig(method=M.CORDIC))
        with pytest.raises(UnsupportedCombinationError):
            build_evaluator(F.SIN, EvaluatorConfig(
                method=M.MLUT, number_format=NumberFormat.FIXED))

    @pytest.mark.parametrize("function,config", (
        (F.SIN, EvaluatorConfig(method="cordic")),
        ("sin", EvaluatorConfig(method=M.LLUT)),
        (F.SIN, EvaluatorConfig(method=M.LLUT, number_format="fixed")),
        ([], EvaluatorConfig(method=M.LLUT)),
        (F.SIN, EvaluatorConfig(method=[])),
        (F.SIN, None),
        (F.SIN, SimpleNamespace(method=M.LLUT, number_format=NumberFormat.FLOAT,
                                lut_size=64)),
    ), ids=("method-str", "function-str", "format-str", "function-list",
            "method-list", "config-none", "config-lookalike"))
    def test_non_member_build_raises(self, function, config):
        with pytest.raises(UnsupportedCombinationError):
            build_evaluator(function, config)

    def test_non_members_are_unsupported(self):
        assert not supported("sin", M.LLUT)
        assert not supported(F.SIN, "cordic")
        assert not supported(F.SIN, M.LLUT, "fixed")

    @pytest.mark.parametrize("args", (([], M.LLUT), (F.SIN, [])),
                             ids=("function-list", "method-list"))
    def test_unhashable_arguments_are_unsupported(self, args):
        assert not supported(*args)


def test_only_the_methods_own_size_is_checked():
    """An unused sizing field is not read: a CORDIC cell builds whatever
    ``lut_size`` holds."""
    build_evaluator(F.SIN, EvaluatorConfig(method=M.CORDIC, lut_size=None))


# The field each method is sized by: a table's entries, a D table's
# mantissa bits (2**mant_bits cells per octave), or CORDIC iterations.
_SIZING_FIELD = dict.fromkeys(MethodId, "lut_size") | {
    M.CORDIC: "n_iter", M.CORDIC_LUT: "n_iter",
    M.DLUT_INTERP: "mant_bits", M.DLLUT_INTERP: "mant_bits"}


@pytest.mark.parametrize("method", list(MethodId), ids=lambda m: m.value)
def test_config_for_sets_the_methods_sizing_field(method):
    for fmt in NumberFormat:
        expect = dataclasses.replace(
            EvaluatorConfig(method=method, number_format=fmt),
            **{_SIZING_FIELD[method]: 7})
        assert config_for(method, fmt, 7) == expect


def test_config_for_refuses_a_non_member():
    with pytest.raises(UnsupportedCombinationError):
        config_for("cordic", NumberFormat.FLOAT, 16)


def test_config_for_refuses_an_unhashable_method():
    with pytest.raises(UnsupportedCombinationError):
        config_for([], NumberFormat.FLOAT, 16)


def _all_supported():
    for method in MethodId:
        for fmt in (NumberFormat.FLOAT, NumberFormat.FIXED):
            for function in FunctionId:
                if supported(function, method, fmt):
                    yield function, method, fmt


@pytest.mark.parametrize("function,method,fmt", list(_all_supported()),
                         ids=lambda v: getattr(v, "value", str(v)))
def test_each_combination_evaluates(function, method, fmt):
    ev = build_evaluator(function, EvaluatorConfig(method=method,
                                                   number_format=fmt))
    x = _PROBE[function]
    got = float(ev.evaluate(x))
    expect = _REF[function](x)
    tol = 4e-3 if method in (M.MLUT, M.LLUT) else 1e-4
    assert got == pytest.approx(expect, rel=tol, abs=tol)


_INTERP_TWIN = {M.MLUT: M.MLUT_INTERP, M.LLUT: M.LLUT_INTERP}


@pytest.mark.parametrize(
    "function,method,fmt",
    [c for c in _all_supported() if c[1] in _INTERP_TWIN],
    ids=lambda v: getattr(v, "value", str(v)))
def test_nearest_cell_shares_its_interp_twins_tables(function, method, fmt):
    """One M/L table serves both queries, so a nearest-entry cell builds
    the spec and entry bits of its interpolated twin's tables."""
    near, twin = (build_evaluator(function, EvaluatorConfig(
        method=m, number_format=fmt)).tables
        for m in (method, _INTERP_TWIN[method]))
    assert [t.spec for t in near] == [t.spec for t in twin]
    assert ([t.entries.tobytes() for t in near]
            == [t.entries.tobytes() for t in twin])


def test_config_holds_only_the_sizing_fields():
    assert {f.name for f in dataclasses.fields(EvaluatorConfig)} == {
        "method", "number_format", "n_iter", "lut_size", "mant_bits"}


@pytest.mark.parametrize("function,method,field,values", (
    (F.SIN, M.CORDIC, "n_iter", (16, 28)),
    (F.SIN, M.LLUT_INTERP, "lut_size", (512, 4096)),
    (F.TANH, M.DLUT_INTERP, "mant_bits", (4, 8)),
), ids=("n_iter", "lut_size", "mant_bits"))
def test_each_sizing_field_sizes_the_tables(function, method, field, values):
    sizes = {build_evaluator(function, EvaluatorConfig(
        method=method, **{field: v})).setup.bytes for v in values}
    assert len(sizes) == len(values)


@pytest.mark.parametrize("function,method,fmt,field,value", (
    (F.SIN, M.MLUT_INTERP, NumberFormat.FLOAT, "lut_size", 1),
    (F.SIN, M.LLUT, NumberFormat.FLOAT, "lut_size", 1),
    (F.EXP, M.LLUT_INTERP, NumberFormat.FIXED, "lut_size", 1),
    (F.TANH, M.DLUT_INTERP, NumberFormat.FLOAT, "mant_bits", 24),
    (F.TANH, M.DLLUT_INTERP, NumberFormat.FLOAT, "mant_bits", 24),
    (F.GELU, M.DLLUT_INTERP, NumberFormat.FLOAT, "mant_bits", -1),
    (F.SIN, M.CORDIC, NumberFormat.FLOAT, "n_iter", 27.5),
    (F.SIN, M.CORDIC, NumberFormat.FLOAT, "n_iter", True),
    (F.SIN, M.LLUT_INTERP, NumberFormat.FLOAT, "lut_size", 4096.0),
    (F.SIN, M.LLUT_INTERP, NumberFormat.FLOAT, "lut_size", None),
    (F.SIN, M.DLUT_INTERP, NumberFormat.FLOAT, "mant_bits", 8.0),
    (F.SIN, M.LLUT, NumberFormat.FLOAT, "lut_size", 2 ** 40),
    (F.EXP, M.MLUT_INTERP, NumberFormat.FLOAT, "lut_size", 2 ** 24 + 1),
    (F.LOG, M.LLUT, NumberFormat.FIXED, "lut_size", 2 ** 24 + 1),
), ids=("mlut", "llut", "fixed-llut", "dlut", "dllut", "dllut-negative",
        "n_iter-float", "n_iter-bool", "lut_size-float", "lut_size-none",
        "mant_bits-float", "llut-2^40", "mlut-over-cap", "fixed-llut-over-cap"))
def test_size_outside_the_builders_range_raises_range_error(
        function, method, fmt, field, value):
    with pytest.raises(RangeError):
        build_evaluator(function, EvaluatorConfig(
            method=method, number_format=fmt, **{field: value}))


# Cells whose exponent split sees the input: exp in every cell, and
# sinh/cosh/tanh via CORDIC beyond the direct rotation's range.
_EXP_SPLIT_CELLS = [c for c in _all_supported() if c[0] is F.EXP] + [
    (f, m, NumberFormat.FLOAT) for f in (F.SINH, F.COSH, F.TANH)
    for m in (M.CORDIC, M.CORDIC_LUT)]


@pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("function,method,fmt", _EXP_SPLIT_CELLS,
                         ids=lambda v: getattr(v, "value", str(v)))
def test_non_finite_exp_split_raises_domain_error(function, method, fmt, x):
    ev = build_evaluator(function, EvaluatorConfig(method=method,
                                                   number_format=fmt))
    with pytest.raises(DomainError):
        ev.evaluate(x)
    with pytest.raises(DomainError):
        ev.evaluate_batch(np.array([1.0, x]))


class TestEvaluatorBehavior:
    def test_batch_matches_scalar_bitwise(self):
        ev = build_evaluator(F.SIN, EvaluatorConfig(method=M.LLUT_INTERP))
        xs = np.linspace(-10, 10, 257).astype(np.float32)
        out, counts = ev.evaluate_batch(xs)
        for x, o in zip(xs, out):
            assert ev.evaluate(float(x)) == o
        assert counts.lut_lookup == 2 * len(xs)

    def test_evaluate_takes_one_value(self):
        ev = build_evaluator(F.SIN, EvaluatorConfig(method=M.LLUT_INTERP))
        for x in (np.array([0.5, 1.5]), [0.5], np.ones((1, 1))):
            with pytest.raises(DomainError):
                ev.evaluate(x)
        for x in (0.5, np.float32(0.5), np.array(0.5)):
            y = ev.evaluate(x)
            assert type(y) is np.float32
            assert y == ev.evaluate_batch([0.5])[0][0]

    def test_batch_preserves_shape(self):
        ev = build_evaluator(F.EXP, EvaluatorConfig(method=M.CORDIC))
        xs = np.ones((3, 5), dtype=np.float32)
        out, _ = ev.evaluate_batch(xs)
        assert out.shape == (3, 5)
        assert out.dtype == np.float32

    def test_setup_report(self):
        ev = build_evaluator(F.SIN, EvaluatorConfig(method=M.LLUT_INTERP,
                                                    lut_size=512))
        assert ev.setup.table_entries == 513
        assert ev.setup.bytes == 513 * 4 + 48
        assert ev.setup.wall_seconds >= 0.0

    def test_sqrt_of_zero(self):
        for method in (M.CORDIC, M.LLUT_INTERP, M.MLUT):
            ev = build_evaluator(F.SQRT, EvaluatorConfig(method=method))
            assert float(ev.evaluate(0.0)) == 0.0

    def test_log_domain_error_propagates(self):
        ev = build_evaluator(F.LOG, EvaluatorConfig(method=M.LLUT_INTERP))
        with pytest.raises(DomainError):
            ev.evaluate(-1.0)

    def test_negative_inputs_for_odd_functions(self):
        for method in (M.DLUT_INTERP, M.DLLUT_INTERP):
            ev = build_evaluator(F.TANH, EvaluatorConfig(method=method))
            assert float(ev.evaluate(-1.7)) == pytest.approx(math.tanh(-1.7),
                                                             abs=1e-5)
            ev = build_evaluator(F.GELU, EvaluatorConfig(method=method))
            assert float(ev.evaluate(-1.3)) == pytest.approx(gelu_exact(-1.3),
                                                             abs=1e-5)

    def test_tiny_inputs_near_zero(self):
        ev = build_evaluator(F.TANH, EvaluatorConfig(method=M.DLUT_INTERP))
        x = 2.0 ** -20
        assert float(ev.evaluate(x)) == pytest.approx(x, rel=1e-6)
        ev = build_evaluator(F.GELU, EvaluatorConfig(method=M.DLUT_INTERP))
        assert float(ev.evaluate(x)) == pytest.approx(x / 2, rel=1e-6)

    def test_gelu_identity_split(self):
        # gelu(x) - gelu(-x) == x, so the negative branch follows from it
        ev = build_evaluator(F.GELU, EvaluatorConfig(method=M.DLLUT_INTERP))
        for x in [0.3, 1.1, 4.0]:
            diff = float(ev.evaluate(x)) - float(ev.evaluate(-x))
            assert diff == pytest.approx(x, rel=1e-5)

    def test_accuracy_over_domain(self):
        ev = build_evaluator(F.SIN, EvaluatorConfig(method=M.LLUT_INTERP))
        xs = np.random.default_rng(0).uniform(-20, 20, 500)
        for x in xs:
            x32 = float(np.float32(x))
            assert float(ev.evaluate(x32)) == pytest.approx(math.sin(x32),
                                                            abs=2e-6)

    def test_tan_pole_is_infinite_or_huge(self):
        ev = build_evaluator(F.TAN, EvaluatorConfig(method=M.CORDIC))
        v = float(ev.evaluate(math.pi / 2))
        assert abs(v) > 1e6 or math.isinf(v)


_D_METHODS = (M.DLUT_INTERP, M.DLLUT_INTERP)


def _table_query(ev):
    """The evaluator's table and its own query, with no bypass."""
    table, = ev.tables
    query = (lut.dllut_query_interp if table.spec.kind == "DL"
             else lut.dlut_query_interp)
    return lambda x: query(table, np.array([x], dtype=np.float64))[0]


class TestDLSplit:
    """Float32 inputs whose reduction, fmod(|x|, 2*pi) in double, lands in
    [1 - 2**-25, 1): below the DL-LUT's split at 2**0, but 1.0 in float32,
    so the L position is 2**mant_bits, read as the last L cell with delta
    1, which gives float32 sin(1) at every mant_bits.  Only sin reaches
    this through the evaluator: its reduction makes a new double."""

    XS = (16892107423744.0, 3.3175630315582915e18, 5.360795485841648e28)

    @pytest.mark.parametrize("mant_bits", (1, 8, 12))
    def test_sin_rounding_up_to_the_split(self, mant_bits):
        xs = np.array(self.XS + tuple(-x for x in self.XS), dtype=np.float32)
        r = np.fmod(np.abs(xs.astype(np.float64)), 2.0 * math.pi)
        assert np.all(r < 1.0) and np.all(r.astype(np.float32) == 1.0)
        ev = build_evaluator(F.SIN, EvaluatorConfig(
            method=M.DLLUT_INTERP, mant_bits=mant_bits))
        out, counts = ev.evaluate_batch(xs)
        assert out.view(np.uint32).tolist() == [0x3F576AA4] * 3 + [0xBF576AA4] * 3
        assert counts == OpCounts(float_add=30, float_mul=12, ldexp_op=6,
                                  lut_lookup=12)


@pytest.mark.parametrize("method", _D_METHODS)
class TestDTableSaturation:
    """tanh and GELU are constant in float32 above their tables' octaves
    and saturate there, +-inf included, tallying no op; sin's tables stop
    at 2^3, which no reduced input reaches."""

    @staticmethod
    def _both_paths(ev, xs):
        """Batch results and counts, once scalar results match them bit
        for bit."""
        xs = np.asarray(xs, dtype=np.float32)
        out, counts = ev.evaluate_batch(xs)
        scalar = np.array([ev.evaluate(x) for x in xs], dtype=np.float32)
        assert scalar.tobytes() == out.tobytes()
        return out, counts

    def test_octaves(self, method):
        tops = {F.SIN: 8.0, F.TANH: 16.0, F.GELU: 8.0}
        for f, top in tops.items():
            table, = build_evaluator(f, EvaluatorConfig(method=method)).tables
            assert table.spec.hi == top
            assert table.spec.lo == (1.0 / 65536 if method is M.DLUT_INTERP
                                     else 0.0)

    def test_tanh_is_one_from_16(self, method):
        ev = build_evaluator(F.TANH, EvaluatorConfig(method=method))
        big = [16.0, 1e10, 3e38, math.inf]
        out, counts = self._both_paths(ev, big + [-x for x in big])
        assert out.tolist() == [1.0] * 4 + [-1.0] * 4
        assert counts.as_dict() == OpCounts().as_dict()
        below = np.nextafter(np.float32(16.0), np.float32(0.0))
        kept = _table_query(ev)(below)
        out, _ = self._both_paths(ev, [below, -below])
        assert out.tolist() == [kept, -kept]

    def test_gelu_is_x_from_8_and_zero_below_minus_8(self, method):
        """gelu(-inf) is +0 too, the limit of x * Phi(x)."""
        ev = build_evaluator(F.GELU, EvaluatorConfig(method=method))
        big = [8.0, 9.5, 1e10, 3e38, math.inf]
        out, counts = self._both_paths(ev, big + [-x for x in big])
        assert out[:5].tolist() == np.float32(big).tolist()
        assert out[5:].tolist() == [0.0] * 5 and not np.signbit(out[5:]).any()
        assert counts.as_dict() == OpCounts().as_dict()
        below = np.nextafter(np.float32(8.0), np.float32(0.0))
        kept = _table_query(ev)(below)
        out, _ = self._both_paths(ev, [below])
        assert out.tolist() == [kept]

    @pytest.mark.parametrize("f", (F.TANH, F.GELU))
    def test_saturated_elements_tally_nothing(self, method, f):
        ev = build_evaluator(f, EvaluatorConfig(method=method))
        small = [0.5, -1.25, 3.0]
        _, alone = self._both_paths(ev, small)
        _, mixed = self._both_paths(ev, small + [16.0, -1e10, -math.inf])
        assert mixed.as_dict() == alone.as_dict()

    @pytest.mark.parametrize("f", (F.TANH, F.GELU))
    def test_nan_still_refused(self, method, f):
        ev = build_evaluator(f, EvaluatorConfig(method=method))
        with pytest.raises(RangeError):
            ev.evaluate(math.nan)


# The cells whose pipeline evaluates |x| and gives the result its sign
# afterwards: every CORDIC and CORDIC+LUT trig and hyperbolic cell, and
# sin and tanh via the D/DL-LUTs.
_REFLECTING = [(f, m) for m in (M.CORDIC, M.CORDIC_LUT)
               for f in (F.SIN, F.COS, F.TAN, F.SINH, F.COSH, F.TANH)] + [
    (f, m) for m in (M.DLUT_INTERP, M.DLLUT_INTERP) for f in (F.SIN, F.TANH)]
_ODD = (F.SIN, F.TAN, F.SINH, F.TANH)
# Subnormals, and magnitudes whose Q3.28 raw angle rounds to 0 or is tiny.
_TINY = np.float32([1e-45, 1e-40, 1e-39, 1.1754942e-38, 2.0 ** -30, 1e-8])


@pytest.mark.parametrize("function,method", _REFLECTING,
                         ids=[f"{f.value}-{m.value}" for f, m in _REFLECTING])
def test_reflecting_cells_are_bitwise_odd_or_even(function, method):
    """f(-x) has the bits of -f(x) for sin, tan, sinh and tanh, and of
    f(x) for cos and cosh, at draws on (0, hi] of the function's domain
    and at tiny x.  +-0 is the special-value contract's to decide, so it
    is not drawn.  The M/L cells are left out: their tables span a full
    period or the whole domain and are read at x itself, so f(-x) and
    f(x) come from different entries."""
    hi = DEFAULT_DOMAINS[function][1]
    xs = np.random.default_rng(0).uniform(0.0, hi, 4096).astype(np.float32)
    xs = np.concatenate([xs[xs > 0], _TINY])
    ev = build_evaluator(function, EvaluatorConfig(method=method))
    pos, _ = ev.evaluate_batch(xs)
    neg, _ = ev.evaluate_batch(-xs)
    want = -pos if function in _ODD else pos
    moved = xs[neg.view(np.uint32) != want.view(np.uint32)]
    assert moved.size == 0, f"{moved.size} asymmetric, first at {moved[:4]}"
