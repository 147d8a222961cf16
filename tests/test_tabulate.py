"""Chunked tabulation is bit-identical to a per-node loop.

Every table builder and every double reference evaluates its host
function over vectorized nodes, a chunk at a time: a scalar host is
mapped node by node, an array formula is called once per float64 chunk.
The oracles here are the per-node loops written out:
``[f(float(v)) for v in nodes]``, ``to_fixed(...).raw`` per entry, and
the D-LUT ``divmod``/``math.ldexp`` address loop, with each compound
host written as its scalar formula (``_cndf``, ``_gelu``, ``2.0 ** r``)
rather than imported from the library.  Sizes straddle the chunk edges.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimfuncs import counting
from pimfuncs.api import (_D_CELLS, _TABLE_CELLS, EvaluatorConfig, MethodId,
                          NumberFormat, build_evaluator, gelu_exact)
from pimfuncs.combined import TABLE_SPAN, build_cordic_lut
from pimfuncs.cordic import CordicMode, generate_cordic_tables
from pimfuncs.errors import RangeError
from pimfuncs.fixedpoint import to_fixed
from pimfuncs.harness import (CNDF_LUT_SIZE, FunctionId, _bs_reference,
                              _bs_sample, _cndf_exact, _make_cndf_lut,
                              _sigmoid_reference, reference_values)
from pimfuncs.lut import (TABULATE_CHUNK, array_formula, build_dllut,
                          build_dlut, build_fixed_llut, build_llut,
                          build_mlut, mapped, tabulate)

SIZES = (2, 4095, 4096, 4097, 8192, 65536)
SEEDS = (0, 1, 7)


def _cndf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _gelu(x: float) -> float:
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _exp2(r: float) -> float:
    return 2.0 ** r


# The scalar form of each function's reference, one double at a time.
_SCALAR_REFERENCE = {
    FunctionId.SIN: math.sin, FunctionId.COS: math.cos,
    FunctionId.TAN: math.tan, FunctionId.SINH: math.sinh,
    FunctionId.COSH: math.cosh, FunctionId.TANH: math.tanh,
    FunctionId.EXP: math.exp, FunctionId.LOG: math.log,
    FunctionId.SQRT: math.sqrt, FunctionId.GELU: _gelu,
}


def _bits(a) -> list:
    a = np.asarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64).tolist()


def _ml_loop(f, lut, fixed=False):
    """The per-node loop over p + a / k that M/L builders ran."""
    s = lut.spec
    nodes = s.p + np.arange(len(lut.entries)) / s.k
    if fixed:
        return np.asarray([to_fixed(f(float(v))).raw for v in nodes],
                          dtype=np.int64)
    return np.asarray([f(float(v)) for v in nodes], dtype=np.float32)


def _d_loop(f, lut):
    """The D-LUT address loop, guard entry at 2**hi_exponent included."""
    s = lut.spec
    count = (s.hi_exponent - s.base_exponent) << s.mant_bits
    entries = np.empty(count + lut.interpolated, dtype=np.float32)
    for addr in range(count):
        step, frac = divmod(addr, 1 << s.mant_bits)
        entries[addr] = f(math.ldexp(1.0 + frac / (1 << s.mant_bits),
                                     s.base_exponent + step))
    if lut.interpolated:
        entries[count] = f(math.ldexp(1.0, s.hi_exponent))
    return entries


def _built(build, *args, **kwargs):
    with counting() as c:
        lut = build(*args, **kwargs)
    return lut, c.table_setup_entries


class TestTabulate:
    @pytest.mark.parametrize("count", (0, 1, TABULATE_CHUNK - 1, TABULATE_CHUNK,
                                       TABULATE_CHUNK + 1, 3 * TABULATE_CHUNK))
    def test_calls_f_once_per_node_in_address_order(self, count):
        seen = []

        def f(v):
            seen.append(v)
            return math.cos(v)
        out = tabulate(f, lambda a: a * 0.001, count)
        nodes = [a * 0.001 for a in range(count)]
        assert seen == nodes
        assert out.dtype == np.float64
        assert _bits(out) == _bits(np.array([math.cos(v) for v in nodes]))

    @pytest.mark.parametrize("count", (1, TABULATE_CHUNK, 2 * TABULATE_CHUNK + 3))
    def test_array_formula_called_once_per_float64_chunk(self, count):
        seen = []

        @array_formula
        def f(x):
            seen.append(x)
            return x * 0.5
        out = tabulate(f, lambda a: (a * 0.25).astype(np.float32), count)
        assert [c.dtype for c in seen] == [np.float64] * len(seen)
        assert [c.size for c in seen] == [
            min(TABULATE_CHUNK, count - start)
            for start in range(0, count, TABULATE_CHUNK)]
        assert _bits(out) == _bits(np.arange(count) * 0.125)


class TestMLTables:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("interpolated", (False, True))
    @pytest.mark.parametrize("build", (build_mlut, build_llut))
    def test_float_entries(self, build, interpolated, size):
        lut, entries = _built(build, math.sin, 0.0, 2.0 * math.pi, size,
                              interpolated)
        assert lut.entries.dtype == np.float32
        assert _bits(lut.entries) == _bits(_ml_loop(math.sin, lut))
        assert entries == size + interpolated == len(lut.entries)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("interpolated", (False, True))
    def test_fixed_entries(self, interpolated, size):
        lut, entries = _built(build_fixed_llut, math.exp, 0.0, 1.0, size,
                              interpolated)
        assert lut.entries.dtype == np.int64
        assert lut.entries.tolist() == _ml_loop(math.exp, lut, fixed=True).tolist()
        assert entries == size + interpolated == len(lut.entries)

    @pytest.mark.parametrize("f", (math.exp, lambda v: math.nan))
    def test_fixed_entry_outside_q3_28_raises(self, f):
        with pytest.raises(RangeError):  # exp(4) = 54.6 >= 8; NaN anywhere
            build_fixed_llut(f, 0.0, 4.0, 64)

    @pytest.mark.parametrize("fixed", (False, True))
    def test_cndf_table(self, fixed):
        build = build_fixed_llut if fixed else build_llut
        lut = build(_cndf_exact, 0.0, 8.0, CNDF_LUT_SIZE, interpolated=True)
        want = _ml_loop(_cndf, lut, fixed)
        assert np.asarray(lut.entries).tobytes() == want.tobytes()


_ML_CONFIGS = [(m, NumberFormat.FLOAT) for m in (
    MethodId.MLUT, MethodId.MLUT_INTERP, MethodId.LLUT, MethodId.LLUT_INTERP)
] + [(m, NumberFormat.FIXED) for m in (MethodId.LLUT, MethodId.LLUT_INTERP)]


class TestChangedHosts:
    """The sqrt (np.sqrt) and exp (math.pow) evaluator tables, entry by
    entry, against math.sqrt and 2.0 ** r on each node."""

    @pytest.mark.parametrize("size", (2, 4097, 8192, 65536))
    @pytest.mark.parametrize("method,fmt", _ML_CONFIGS,
                             ids=[f"{m.value}-{f.value}" for m, f in _ML_CONFIGS])
    @pytest.mark.parametrize("function,scalar", [
        (FunctionId.SQRT, math.sqrt), (FunctionId.EXP, _exp2)],
        ids=["sqrt", "exp"])
    def test_evaluator_table(self, function, scalar, method, fmt, size):
        ev = build_evaluator(function, EvaluatorConfig(
            method=method, number_format=fmt, lut_size=size))
        (table,) = ev.tables
        fixed = fmt is NumberFormat.FIXED
        assert (np.asarray(table.entries).tobytes()
                == _ml_loop(scalar, table, fixed).tobytes())

    def test_no_runtime_warning_on_table_nodes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for fmt in NumberFormat:
                build_evaluator(FunctionId.SQRT, EvaluatorConfig(
                    method=MethodId.LLUT_INTERP, number_format=fmt))
                _make_cndf_lut(fmt)
            for method in (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP):
                build_evaluator(FunctionId.GELU, EvaluatorConfig(method=method))


class TestDTables:
    @pytest.mark.parametrize("mant_bits", range(1, 13))
    @pytest.mark.parametrize("interpolated", (True,))  # D-LUTs always are
    def test_dlut(self, mant_bits, interpolated):
        lut, entries = _built(build_dlut, math.tanh, 5, mant_bits, -16)
        assert lut.interpolated is interpolated
        assert _bits(lut.entries) == _bits(_d_loop(math.tanh, lut))
        assert entries == len(lut.entries) == (32 << mant_bits) + 1

    @pytest.mark.parametrize("mant_bits", range(1, 13))
    def test_dllut(self, mant_bits):
        lut, entries = _built(build_dllut, math.sin, 4, mant_bits, 0)
        low, high = lut.sub_low, lut.sub_high
        assert _bits(low.entries) == _bits(_ml_loop(math.sin, low))
        assert _bits(high.entries) == _bits(_d_loop(math.sin, high))
        assert entries == len(low.entries) + len(high.entries)

    def test_gelu_tables(self):
        for lut in (build_dlut(gelu_exact, 5, 8, -16),
                    build_dllut(gelu_exact, 5, 8, 0).sub_high):
            assert _bits(lut.entries) == _bits(_d_loop(_gelu, lut))


class TestCordicLutStartCells:
    @pytest.mark.parametrize("mode", (CordicMode.CIRCULAR, CordicMode.HYPERBOLIC))
    @pytest.mark.parametrize("b", (2, 6, 12, 13))
    def test_cells(self, mode, b):
        with counting() as c:
            tables = build_cordic_lut(mode, b, 28)
        with counting() as c_rem:
            rem = generate_cordic_tables(mode, 28 - b, first_index=b)
        inv_g = 1.0 / rem.gain
        cos, sin = ((math.cos, math.sin) if mode is CordicMode.CIRCULAR
                    else (math.cosh, math.sinh))
        step = TABLE_SPAN / (1 << b)
        want = [(to_fixed(cos(a * step) * inv_g).raw,
                 to_fixed(sin(a * step) * inv_g).raw, to_fixed(a * step).raw)
                for a in range((1 << b) + 1)]
        assert tables.cells.dtype == np.int64
        assert [tuple(row) for row in tables.cells.tolist()] == want
        assert c.table_setup_entries == 3 * len(want) + c_rem.table_setup_entries


class TestReferences:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("function", list(FunctionId))
    def test_reference_values(self, function, seed):
        """On float32 inputs: fed float32, the GELU array formula would keep
        ``x / math.sqrt(2.0)`` in float32 (numpy's weak-scalar rule)."""
        xs = np.random.default_rng(seed).uniform(0.01, 6.0, 5000).astype(np.float32)
        f = _SCALAR_REFERENCE[function]
        assert _bits(reference_values(function, xs)) == _bits(
            np.asarray([f(float(v)) for v in xs], dtype=np.float64))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_blackscholes_reference(self, seed):
        cols = _bs_sample(5000, seed)
        names = ("spot", "strike", "rate", "vol", "expiry")

        def price(spot, strike, rate, vol, expiry):  # the scalar formula
            srt = vol * math.sqrt(expiry)
            d1 = (math.log(spot / strike)
                  + (rate + 0.5 * vol * vol) * expiry) / srt
            d2 = d1 - srt
            return (spot * _cndf(d1)
                    - strike * math.exp(-rate * expiry) * _cndf(d2))
        want = [price(*(float(cols[k][i]) for k in names)) for i in range(5000)]
        got = _bs_reference(*(cols[k].astype(np.float64) for k in names))
        assert _bits(got) == _bits(np.asarray(want))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigmoid_reference(self, seed):
        xs = np.random.default_rng(seed).uniform(-8.0, 8.0, 5000).astype(np.float32)
        want = [1.0 / (1.0 + math.exp(-float(v))) for v in xs]
        assert _bits(_sigmoid_reference(xs)) == _bits(np.asarray(want))


# Each changed host and its scalar form.
_HOSTS = {
    "cndf": (_cndf_exact, _cndf),
    "gelu": (gelu_exact, _gelu),
    "sqrt": (_TABLE_CELLS[FunctionId.SQRT][0][0][0], math.sqrt),
    "exp": (_TABLE_CELLS[FunctionId.EXP][0][0][0], _exp2),
}
_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
             -1.5e-310, 1e300, -1e300, 1.7976931348623157e308, 1e-300,
             math.inf, -math.inf, math.nan)


def _outcome(f, v: float):
    """``f(v)`` as float64 bits, or the exception type it raises."""
    try:
        return _bits(np.float64(f(v)))
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestHostProperties:
    def test_hosts_are_the_tabulated_ones(self):
        assert _D_CELLS[FunctionId.GELU][0] is gelu_exact
        assert all(getattr(f, "array_formula", False)
                   for f in (_cndf_exact, gelu_exact, _HOSTS["sqrt"][0]))
        assert not getattr(_HOSTS["exp"][0], "array_formula", False)

    @pytest.mark.parametrize("name", sorted(_HOSTS))
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats() | st.sampled_from(_SPECIALS),
                       min_size=1, max_size=50))
    def test_matches_scalar_form(self, name, xs):
        """Bit for bit wherever the scalar form returns a value (NaN
        included); where it raises, a scalar host raises the same."""
        host, scalar = _HOSTS[name]
        want = [_outcome(scalar, v) for v in xs]
        if getattr(host, "array_formula", False):
            with np.errstate(all="ignore"):  # e.g. sqrt(-1), -inf * 0
                got = _bits(mapped(host, np.array(xs)))
            for g, w in zip(got, want):
                assert w is ValueError or g == w
        else:
            assert [_outcome(host, v) for v in xs] == want
