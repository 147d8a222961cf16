"""Chunked tabulation is bit-identical to a per-node loop.

Every table builder and every double reference evaluates its host
function over vectorized nodes, a chunk at a time: a scalar host is
mapped node by node, an array formula is called once per float64 chunk.
The oracles here are the per-node loops written out:
``[f(float(v)) for v in nodes]``, ``round(v * 2**28)`` per entry, and
the D-LUT ``divmod``/``math.ldexp`` address loop, with each compound
host written as its scalar formula (``_cndf``, ``_gelu``, ``2.0 ** r``)
rather than imported from the library.  Sizes straddle the chunk edges.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pimfuncs.harness
import pimfuncs.lut
from pimfuncs import counting
from pimfuncs.api import (_D_CELLS, _TABLE_CELLS, CNDF_HOST, EvaluatorConfig,
                          MethodId, NumberFormat, build_evaluator, cndf_exact,
                          erf_twin, gelu_exact, table_kernel)
from pimfuncs.combined import TABLE_SPAN, build_cordic_lut
from pimfuncs.cordic import CordicMode, generate_cordic_tables
from pimfuncs.errors import RangeError
from pimfuncs.harness import (CNDF_LUT_SIZE, FunctionId, _bs_reference,
                              _bs_sample, _make_cndf_lut, _sigmoid_reference,
                              reference_values)
from pimfuncs.lut import (SETTLE_ULPS, TABULATE_CHUNK, array_formula,
                          build_dllut, build_dlut, build_fixed_llut,
                          build_llut, build_mlut, mapped, tabulate, twin)

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


def _q3_28(v: float) -> int:
    """The Q3.28 raw of one double, round half to even, |v| < 8 only."""
    if not abs(v) < 8.0:
        raise RangeError(f"{v} outside Q3.28 range (-8, 8)")
    return round(v * 2 ** 28)


def _bits(a) -> list:
    a = np.asarray(a)
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64).tolist()


def _ml_loop(f, lut, fixed=False):
    """The per-node loop over p + a / k that M/L builders ran."""
    s = lut.spec
    nodes = s.p + np.arange(len(lut.entries)) / s.k
    if fixed:
        return np.asarray([_q3_28(f(float(v))) for v in nodes],
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
        lut = build(cndf_exact, 0.0, 8.0, CNDF_LUT_SIZE, interpolated=True)
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


def _perturbed(ufunc):
    """``ufunc`` moved SETTLE_ULPS/4 ulps off at every node, up and down
    in turn."""
    def off(x):
        v = ufunc(x)
        sign = np.where(np.arange(v.size) % 2, 1.0, -1.0)
        return v + sign * (SETTLE_ULPS // 4) * np.spacing(np.abs(v))
    return off


def _above_midpoint(fixed):
    """A host whose value at v sits SETTLE_ULPS/8 ulps above the midpoint
    between two stored entries near v (float32s, or Q3.28 raws), so it
    rounds up, and a twin SETTLE_ULPS/4 ulps below it, which rounds down."""
    def mid(v):
        if fixed:
            return (np.floor(v * 2.0 ** 28) + 0.5) / 2.0 ** 28
        lo = np.asarray(v, dtype=np.float32)
        hi = np.nextafter(lo, np.float32(np.inf))
        return (lo.astype(np.float64) + hi) / 2

    def host(v):
        m = float(mid(v))
        return m + SETTLE_ULPS // 8 * math.ulp(m)

    def below(x):
        m = mid(x)
        return m - SETTLE_ULPS // 8 * np.spacing(m)
    return host, below


_TWIN_ML = [(f, m, fmt) for f in (FunctionId.SIN, FunctionId.COS,
                                  FunctionId.LOG) for m, fmt in _ML_CONFIGS]
_TWIN_D = [(f, m) for f in (FunctionId.SIN, FunctionId.TANH)
           for m in (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP)]


class TestTwinHosts:
    """Twin hosts give the per-node libm table bit for bit, and send libm
    only the nodes their numpy values cannot settle."""

    def test_libm_hosts_carry_twins(self):
        ml = {f: [h for h, _, _ in hosts]
              for f, (hosts, _) in _TABLE_CELLS.items()}
        for f in (FunctionId.SIN, FunctionId.COS, FunctionId.TAN,
                  FunctionId.EXP, FunctionId.LOG):
            assert all(getattr(h, "twin", None) for h in ml[f]), f
        assert _D_CELLS[FunctionId.SIN][0].twin is np.sin
        assert _D_CELLS[FunctionId.TANH][0].twin is np.tanh
        assert not hasattr(ml[FunctionId.SQRT][0], "twin")
        assert _D_CELLS[FunctionId.GELU][0].twin

    @pytest.mark.parametrize("size", (64, 4095, 65536))  # fixed: inside Q3.28
    @pytest.mark.parametrize("function,method,fmt", _TWIN_ML,
                             ids=[f"{f.value}-{m.value}-{fmt.value}"
                                  for f, m, fmt in _TWIN_ML])
    def test_ml_evaluator_tables(self, function, method, fmt, size):
        ev = build_evaluator(function, EvaluatorConfig(
            method=method, number_format=fmt, lut_size=size))
        (table,) = ev.tables
        fixed = fmt is NumberFormat.FIXED
        assert (np.asarray(table.entries).tobytes() == _ml_loop(
            _SCALAR_REFERENCE[function], table, fixed).tobytes())

    @pytest.mark.parametrize("mant_bits", (1, 8, 12))
    @pytest.mark.parametrize("function,method", _TWIN_D,
                             ids=[f"{f.value}-{m.value}" for f, m in _TWIN_D])
    def test_d_evaluator_tables(self, function, method, mant_bits):
        (table,) = build_evaluator(function, EvaluatorConfig(
            method=method, mant_bits=mant_bits)).tables
        f = _SCALAR_REFERENCE[function]
        if method is MethodId.DLLUT_INTERP:
            assert _bits(table.sub_low.entries) == _bits(
                _ml_loop(f, table.sub_low))
            table = table.sub_high
        assert _bits(table.entries) == _bits(_d_loop(f, table))

    @pytest.mark.parametrize("function,config", [
        (FunctionId.SIN, EvaluatorConfig(method=MethodId.LLUT_INTERP,
                                         lut_size=4096)),
        (FunctionId.TANH, EvaluatorConfig(method=MethodId.DLUT_INTERP,
                                          mant_bits=12)),
    ], ids=["sin-llut-interp", "tanh-dlut-interp"])
    def test_libm_sees_few_nodes(self, monkeypatch, function, config):
        """A settle test that always failed would keep every entry and
        lose the speed; under 0.1% of the nodes may reach libm."""
        sent = []

        def counted(f, x):
            sent.append(np.size(x))
            return mapped(f, x)
        monkeypatch.setattr(pimfuncs.lut, "mapped", counted)
        with counting() as c:
            build_evaluator(function, config)
        assert sum(sent) < 0.001 * c.table_setup_entries

    @pytest.mark.parametrize("fixed", (False, True))
    def test_perturbed_twin_gives_libm_table(self, fixed):
        build = build_fixed_llut if fixed else build_llut
        lut = build(twin(math.sin, _perturbed(np.sin)), 0.0, 2.0 * math.pi,
                    8192, interpolated=True)
        assert np.asarray(lut.entries).tobytes() == _ml_loop(
            math.sin, lut, fixed).tobytes()
        lut = build_dlut(twin(math.tanh, _perturbed(np.tanh)), 5, 10, -16)
        assert _bits(lut.entries) == _bits(_d_loop(math.tanh, lut))

    @pytest.mark.parametrize("fixed", (False, True))
    def test_twin_across_a_rounding_boundary_defers_to_libm(self, fixed):
        """Every node's libm value and twin value round to different
        entries, so any node the twin settled would show."""
        host, below = _above_midpoint(fixed)
        build = build_fixed_llut if fixed else build_llut
        lut = build(twin(host, below), 0.0, 4.0, 4096, interpolated=True)
        want = _ml_loop(host, lut, fixed)
        assert np.asarray(lut.entries).tobytes() == want.tobytes()
        assert want.tobytes() != _ml_loop(
            lambda v: float(below(np.array([v]))[0]), lut, fixed).tobytes()

    def test_nan_twin_sends_every_node_to_libm_in_order(self):
        seen = []

        def f(v):
            seen.append(v)
            return math.sin(v)
        size = 2 * TABULATE_CHUNK + 3
        lut = build_llut(twin(f, lambda x: np.full_like(x, np.nan)),
                         0.0, 2.0 * math.pi, size, interpolated=True)
        s = lut.spec
        assert seen == (s.p + np.arange(size + 1) / s.k).tolist()
        assert _bits(lut.entries) == _bits(_ml_loop(math.sin, lut))

    @pytest.mark.parametrize("host,ufunc,lo,hi,exc", [
        (math.exp, np.exp, 0.0, 710.0, OverflowError),
        (math.log, np.log, 0.0, 1.0, ValueError),
    ], ids=["exp-overflow", "log-domain"])
    def test_libm_exception_is_raised_as_the_loop_raises_it(
            self, host, ufunc, lo, hi, exc):
        raised = []
        for f in (host, twin(host, ufunc)):
            with pytest.raises(exc) as info:
                build_mlut(f, lo, hi, 64, interpolated=True)
            raised.append(info.value.args)
        assert raised[0] == raised[1]


def _ulps(a, b) -> np.ndarray:
    """How many doubles apart ``a`` and ``b`` are, elementwise (finite
    values; -0.0 and 0.0 are the same), on their ordered bit patterns."""
    def ordered(v):
        i = np.asarray(v, dtype=np.float64).view(np.int64)
        return np.where(i < 0, np.iinfo(np.int64).min - i, i)
    return np.abs(ordered(a) - ordered(b))


_D_METHODS = (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP)


class TestErfTwin:
    """The numpy erf behind the CNDF and GELU twins, and the tables those
    twins build."""

    def test_near_math_erf(self):
        x = np.concatenate([
            np.random.default_rng(19).uniform(-8.0, 8.0, 200_000),
            np.linspace(-8.0, 8.0, 16_001), _SPECIALS])
        got = erf_twin(x)
        want = np.array([math.erf(v) for v in x.tolist()])
        nan = np.isnan(x)
        assert np.isnan(got[nan]).all() and not np.isnan(got[~nan]).any()
        assert _ulps(got[~nan], want[~nan]).max() <= SETTLE_ULPS // 64
        assert _bits(erf_twin(np.array([0.0, -0.0]))) == _bits(
            np.array([0.0, -0.0]))

    @pytest.mark.parametrize("size", (16, 4096, 8192, 65536))
    @pytest.mark.parametrize("interpolated", (False, True))
    @pytest.mark.parametrize("fixed", (False, True))
    def test_cndf_tables(self, fixed, interpolated, size):
        build = build_fixed_llut if fixed else build_llut
        lut = build(CNDF_HOST, 0.0, 8.0, size, interpolated)
        assert np.asarray(lut.entries).tobytes() == _ml_loop(
            _cndf, lut, fixed).tobytes()

    @pytest.mark.parametrize("mant_bits", range(1, 13))
    @pytest.mark.parametrize("method", _D_METHODS, ids=lambda m: m.value)
    def test_gelu_tables(self, method, mant_bits):
        (table,) = build_evaluator(FunctionId.GELU, EvaluatorConfig(
            method=method, mant_bits=mant_bits)).tables
        if method is MethodId.DLLUT_INTERP:
            assert _bits(table.sub_low.entries) == _bits(
                _ml_loop(_gelu, table.sub_low))
            table = table.sub_high
        assert _bits(table.entries) == _bits(_d_loop(_gelu, table))

    @pytest.mark.parametrize("build", [
        lambda: _make_cndf_lut(NumberFormat.FLOAT),
        lambda: _make_cndf_lut(NumberFormat.FIXED),
        *(lambda m=m: build_evaluator(FunctionId.GELU, EvaluatorConfig(
            method=m, mant_bits=12)) for m in _D_METHODS),
    ], ids=["cndf-float", "cndf-fixed", "gelu-dlut", "gelu-dllut"])
    def test_libm_sees_few_nodes(self, monkeypatch, build):
        sent = []

        def counted(f, x):
            if getattr(f, "twin", None) is not None:  # tabulate's call
                sent.append(np.size(x))
            return mapped(f, x)
        monkeypatch.setattr(pimfuncs.lut, "mapped", counted)
        with counting() as c:
            build()
        assert sent and sum(sent) < 0.001 * c.table_setup_entries

    @pytest.mark.parametrize("fixed", (False, True))
    def test_perturbed_twin_gives_libm_table(self, fixed):
        build = build_fixed_llut if fixed else build_llut
        lut = build(twin(cndf_exact, _perturbed(CNDF_HOST.twin)), 0.0, 8.0,
                    CNDF_LUT_SIZE, interpolated=True)
        assert np.asarray(lut.entries).tobytes() == _ml_loop(
            _cndf, lut, fixed).tobytes()

    def test_unsettled_nodes_reach_array_formula_once_per_chunk(self):
        seen = []

        @array_formula
        def f(x):
            seen.append(x.tolist())
            return x * 0.5
        count = 2 * TABULATE_CHUNK + 3
        out = tabulate(twin(f, lambda x: np.where(x % 3 == 0, np.nan, x * 0.5)),
                       lambda a: a + 1.0, count)
        nodes = np.arange(count) + 1.0
        assert seen == [[v for v in nodes[start:start + TABULATE_CHUNK].tolist()
                         if v % 3 == 0]
                        for start in range(0, count, TABULATE_CHUNK)]
        assert _bits(out) == _bits(nodes * 0.5)


# Each twin host and the range its tables' nodes cover: the M/L hosts on
# their intervals, the D/DL hosts on [0, 1) (a DL-LUT's L part) and
# log-uniformly across the D octaves [2^-16, 2^32).
_TWIN_HOSTS = {
    "sin": (_TABLE_CELLS[FunctionId.SIN][0][0][0], 0.0, 2.0 * math.pi),
    "cos": (_TABLE_CELLS[FunctionId.COS][0][0][0], 0.0, 2.0 * math.pi),
    "exp2": (_TABLE_CELLS[FunctionId.EXP][0][0][0], 0.0, 1.0),
    "log": (_TABLE_CELLS[FunctionId.LOG][0][0][0], 1.0, 2.0),
    "cndf": (CNDF_HOST, 0.0, 8.0),
    "sin-d": (_D_CELLS[FunctionId.SIN][0], None, None),
    "tanh-d": (_D_CELLS[FunctionId.TANH][0], None, None),
    "gelu-d": (_D_CELLS[FunctionId.GELU][0], None, None),
}


@pytest.mark.parametrize("name", list(_TWIN_HOSTS))
def test_twin_is_well_inside_the_settle_margin(name):
    """The settle test needs each twin within SETTLE_ULPS ulps of libm;
    measure that it is within a 64th of that, on 200,000 seeded nodes."""
    host, lo, hi = _TWIN_HOSTS[name]
    rng = np.random.default_rng(200_000)
    if lo is None:
        x = np.concatenate([rng.uniform(0.0, 1.0, 100_000),
                            np.exp2(rng.uniform(-16.0, 32.0, 100_000))])
    else:
        x = rng.uniform(lo, hi, 200_000)
    assert _ulps(host.twin(x), mapped(host, x)).max() <= SETTLE_ULPS // 64


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
        want = [(_q3_28(cos(a * step) * inv_g), _q3_28(sin(a * step) * inv_g),
                 _q3_28(a * step))
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

        def price(spot, strike, rate, vol, expiry):  # the scalar formula
            srt = vol * math.sqrt(expiry)
            d1 = (math.log(spot / strike)
                  + (rate + 0.5 * vol * vol) * expiry) / srt
            d2 = d1 - srt
            return (spot * _cndf(d1)
                    - strike * math.exp(-rate * expiry) * _cndf(d2))
        want = [price(*(float(c[i]) for c in cols)) for i in range(5000)]
        got = _bs_reference(*(c.astype(np.float64) for c in cols))
        assert _bits(got) == _bits(np.asarray(want))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sigmoid_reference(self, seed):
        xs = np.random.default_rng(seed).uniform(-8.0, 8.0, 5000).astype(np.float32)
        want = [1.0 / (1.0 + math.exp(-float(v))) for v in xs]
        assert _bits(_sigmoid_reference(xs)) == _bits(np.asarray(want))


# Each changed host and its scalar form.
_HOSTS = {
    "cndf": (cndf_exact, _cndf),
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


def _is_twin_of(host, formula) -> bool:
    """Whether ``host`` is ``formula`` carrying a twin, still an array
    formula, so its unsettled nodes reach ``formula`` once per chunk."""
    return (host.func is formula and callable(host.twin)
            and host.array_formula)


class TestHostProperties:
    def test_hosts_are_the_tabulated_ones(self, monkeypatch):
        assert _is_twin_of(_D_CELLS[FunctionId.GELU][0], gelu_exact)
        hosts = []

        def kernel(f, *args):
            hosts.append(f)
            return table_kernel(f, *args)
        monkeypatch.setattr(pimfuncs.harness, "table_kernel", kernel)
        for fmt in NumberFormat:
            _make_cndf_lut(fmt)
        assert len(hosts) == 2
        assert all(_is_twin_of(h, cndf_exact) for h in hosts)
        assert all(getattr(f, "array_formula", False)
                   for f in (cndf_exact, gelu_exact, _HOSTS["sqrt"][0]))
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
