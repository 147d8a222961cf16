"""Chunked tabulation is bit-identical to a per-node loop.

Every table builder calls its host, a function of a float64 array, on
vectorized nodes, once per chunk, and every double reference calls its
formula on the whole input; a lifted libm host (``partial(mapped,
math.sin)``) maps its input one double at a time.  The oracles here are
the per-node loops written out:
``[f(float(v)) for v in nodes]``, ``round(v * 2**28)`` per entry, and
the D-LUT ``divmod``/``math.ldexp`` address loop, with each compound
host written as its scalar formula (``_cndf``, ``_gelu``, ``2.0 ** r``)
rather than imported from the library.  Sizes straddle the chunk edges.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pimfuncs.combined
import pimfuncs.harness
import pimfuncs.lut
from pimfuncs import counting
from pimfuncs.api import (_D_CELLS, _FAMILY, _TABLE_CELLS, CNDF_HOST,
                          EvaluatorConfig, MethodId, NumberFormat,
                          build_evaluator, cndf_exact, erf_twin, gelu_exact,
                          supported, table_kernel)
from pimfuncs.combined import TABLE_SPAN, _scaled, build_cordic_lut
from pimfuncs.cordic import CordicMode, generate_cordic_tables
from pimfuncs.errors import RangeError
from pimfuncs.fixedpoint import RAW_MAX, SCALE, to_fixed
from pimfuncs.harness import (CNDF_LUT_SIZE, FunctionId, _bs_reference,
                              _bs_sample, _make_cndf_lut, _sigmoid_reference,
                              reference_values)
from pimfuncs.lut import (SETTLE_ULPS, TABULATE_CHUNK, _nodes, build_dllut,
                          build_dlut, build_fixed_llut, build_llut,
                          build_mlut, mapped, tabulate, twin)

SIZES = (2, 4095, 4096, 4097, 8192, 65536)
SEEDS = (0, 1, 7)

# The table hosts: libm functions lifted to float64 arrays.
EXP, SIN, TANH = (partial(mapped, f) for f in (math.exp, math.sin, math.tanh))


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


def _node_loop(f, lut):
    """A loop over every address of ``lut``, its guard entry included,
    each node from ``lut._nodes(spec)`` of that one address."""
    nodes = _nodes(lut.spec)
    return np.asarray([f(float(nodes(np.array([a]))[0]))
                       for a in range(len(lut.entries))], dtype=np.float32)


def _built(build, *args, **kwargs):
    with counting() as c:
        lut = build(*args, **kwargs)
    return lut, c.table_setup_entries


def _chunks(count: int) -> list:
    """The (start, stop) of each chunk of ``count`` nodes: TABULATE_CHUNK
    each, the last taking in a shorter remainder."""
    n = max(1, count // TABULATE_CHUNK)
    return [(i * TABULATE_CHUNK,
             count if i == n - 1 else (i + 1) * TABULATE_CHUNK)
            for i in range(n)]


def _spied_tabulate(monkeypatch, *modules) -> list:
    """Make each module's ``tabulate`` record, per table, its host, its
    node count and each array the host is called on, twin or not."""
    tables = []

    def spied(f, nodes, count, fixed=False):
        seen = []

        def host(x):
            seen.append(x)
            return f(x)
        tables.append((f, count, seen))
        spy = twin(host, f.twin) if hasattr(f, "twin") else host
        return tabulate(spy, nodes, count, fixed)
    for module in modules:
        monkeypatch.setattr(module, "tabulate", spied)
    return tables


def _sent_to_twin_hosts(tables) -> int:
    """How many nodes reached the host of a twin: the unsettled ones."""
    return sum(x.size for f, _, seen in tables if hasattr(f, "twin")
               for x in seen)


class TestTabulate:
    @pytest.mark.parametrize("count", (0, 1, TABULATE_CHUNK - 1, TABULATE_CHUNK,
                                       TABULATE_CHUNK + 1, 3 * TABULATE_CHUNK))
    def test_calls_f_once_per_node_in_address_order(self, count):
        seen = []

        def f(v):
            seen.append(v)
            return math.cos(v)
        out = tabulate(partial(mapped, f), lambda a: a * 0.001, count)
        nodes = [a * 0.001 for a in range(count)]
        assert seen == nodes
        assert out.dtype == np.float32
        assert _bits(out) == _bits(np.array([math.cos(v) for v in nodes],
                                            dtype=np.float32))

    @pytest.mark.parametrize("count", (1, TABULATE_CHUNK, 2 * TABULATE_CHUNK + 3))
    def test_array_formula_called_once_per_float64_chunk(self, count):
        """Any host, here an array formula, is called once per chunk on
        float64 nodes, the last chunk taking in the remainder."""
        seen = []

        def f(x):
            seen.append(x)
            return x * 0.5
        out = tabulate(f, lambda a: (a * 0.25).astype(np.float32), count)
        assert [c.dtype for c in seen] == [np.float64] * len(seen)
        assert [c.size for c in seen] == {
            1: [1], TABULATE_CHUNK: [TABULATE_CHUNK],
            2 * TABULATE_CHUNK + 3: [TABULATE_CHUNK, TABULATE_CHUNK + 3]}[count]
        assert _bits(out) == _bits((np.arange(count) * 0.125).astype(np.float32))

    @pytest.mark.parametrize("k", (1, 11, 12, 13, 17))
    def test_interpolated_table_has_no_one_node_chunk(self, k):
        """2**k cells and a guard node: max(1, 2**k // TABULATE_CHUNK)
        chunks, the guard node in the last."""
        sizes = []

        def f(x):
            sizes.append(x.size)
            return x
        tabulate(f, lambda a: a * 1.0, (1 << k) + 1)
        assert len(sizes) == max(1, (1 << k) // TABULATE_CHUNK)
        assert sum(sizes) == (1 << k) + 1 and min(sizes) > 1


class TestMLTables:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("interpolated", (False, True))
    @pytest.mark.parametrize("build", (build_mlut, build_llut))
    def test_float_entries(self, build, interpolated, size):
        lut, entries = _built(build, SIN, 0.0, 2.0 * math.pi, size,
                              interpolated)
        assert lut.entries.dtype == np.float32
        assert _bits(lut.entries) == _bits(_ml_loop(math.sin, lut))
        assert entries == size + interpolated == len(lut.entries)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("interpolated", (False, True))
    def test_fixed_entries(self, interpolated, size):
        lut, entries = _built(build_fixed_llut, EXP, 0.0, 1.0, size,
                              interpolated)
        assert lut.entries.dtype == np.int64
        assert lut.entries.tolist() == _ml_loop(math.exp, lut, fixed=True).tolist()
        assert entries == size + interpolated == len(lut.entries)

    @pytest.mark.parametrize("f", (pytest.param(EXP, id="exp"),
                                   lambda x: np.full_like(x, np.nan)))
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
        lut, entries = _built(build_dlut, TANH, -16, 16, mant_bits)
        assert lut.interpolated is interpolated
        assert _bits(lut.entries) == _bits(_d_loop(math.tanh, lut))
        assert entries == len(lut.entries) == (32 << mant_bits) + 1

    @pytest.mark.parametrize("mant_bits", range(1, 13))
    def test_dllut(self, mant_bits):
        lut, entries = _built(build_dllut, SIN, 0, 16, mant_bits)
        assert _bits(lut.entries) == _bits(_node_loop(math.sin, lut))
        assert entries == len(lut.entries) == (17 << mant_bits) + 1

    def test_gelu_tables(self):
        lut = build_dlut(gelu_exact, -16, 16, 8)
        assert _bits(lut.entries) == _bits(_d_loop(_gelu, lut))
        lut = build_dllut(gelu_exact, 0, 32, 8)
        assert _bits(lut.entries) == _bits(_node_loop(_gelu, lut))


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


def _settled_by_spacing(v, fixed):
    """The settle test with its margin's ulp taken by ``np.spacing``."""
    m = SETTLE_ULPS * np.spacing(np.abs(v))
    lo, hi = v - m, v + m
    if fixed:
        lo, hi = np.rint(lo * SCALE), np.rint(hi * SCALE)
        same = (lo == hi) & (np.abs(lo) < RAW_MAX)
    else:
        same = (lo.astype(np.float32).view(np.uint32)
                == hi.astype(np.float32).view(np.uint32))
    return same & np.isfinite(lo) & np.isfinite(hi) & (v != 0)


def _settle_probes() -> np.ndarray:
    """2**20 random double bit patterns, 2**20 more with exponents near
    float32's and Q3.28's ranges, each binade edge and its neighbours,
    and the special values, both signs."""
    rng = np.random.default_rng(1 << 20)
    anywhere = rng.integers(0, 1 << 64, 1 << 20, dtype=np.uint64)
    near = (rng.integers(0, 1 << 52, 1 << 20, dtype=np.uint64)
            | (rng.integers(1023 - 160, 1023 + 140, 1 << 20,
                            dtype=np.uint64) << np.uint64(52)))
    edges = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    edges = np.concatenate([edges, edges + np.uint64(1),
                            edges[1:] - np.uint64(1)])
    bits = np.concatenate([anywhere, near, edges])
    specials = np.array(_SPECIALS + (math.inf, math.nan, 1.7976931348623157e308))
    v = np.concatenate([bits.view(np.float64), specials])
    return np.concatenate([v, -v])


@pytest.mark.parametrize("fixed", (False, True), ids=("float", "fixed"))
def test_settle_ulp_matches_spacing(fixed):
    """The settle test's frexp ulp gives the masks ``np.spacing`` gives."""
    v = _settle_probes()
    with np.errstate(all="ignore"):
        want = _settled_by_spacing(v, fixed)
        got, _ = pimfuncs.lut._settled(v, fixed)
    assert v.size > 2_000_000 and 0 < np.count_nonzero(want) < v.size
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fixed", (False, True), ids=("float", "fixed"))
def test_settled_entry_is_the_values_own_rounding(fixed):
    """Wherever a value settles, the entry the settle test returns is the
    value's own: its float32, or its ``to_fixed`` raw, never refused."""
    v = _settle_probes()
    with np.errstate(all="ignore"):
        settled, entries = pimfuncs.lut._settled(v, fixed)
        v, entries = v[settled], entries[settled]
        want = to_fixed(v) if fixed else v.astype(np.float32)
    assert v.size > 1000
    if fixed:
        assert np.array_equal(entries, want)
    else:
        assert _bits(entries) == _bits(want)


class TestFailingBuild:
    """A build that fails raises what the per-node loop and a rounding of
    the whole table after it raise: the host's exception from a later
    chunk before an earlier entry's refusal, and numpy's float32
    overflow warning, twin or not."""

    @pytest.mark.parametrize("twinned", (False, True), ids=("bare", "twin"))
    def test_later_host_exception_precedes_refused_entry(self, twinned):
        calls = []

        def host(x):
            calls.append(x.size)
            if len(calls) > 1:
                raise ValueError("host fails on a later chunk")
            return np.full_like(x, 100.0)  # outside Q3.28
        f = twin(host, lambda x: np.full_like(x, 100.0)) if twinned else host
        with pytest.raises(ValueError, match="later chunk"):
            build_fixed_llut(f, 0.0, 1.0, 3 * TABULATE_CHUNK)
        assert len(calls) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("host", (EXP, twin(EXP, np.exp)),
                             ids=("bare", "twin"))
    def test_float32_overflow_warns(self, host):
        """exp above 88.7 overflows float32: the build warns, and with the
        warning ignored the table is the per-node loop's, inf included."""
        with pytest.raises(RuntimeWarning, match="overflow encountered in cast"):
            build_llut(host, 0.0, 100.0, 64)
        with np.errstate(over="ignore"):
            lut = build_llut(host, 0.0, 100.0, 64)
            want = _ml_loop(math.exp, lut)
        assert np.isinf(want).any()
        assert _bits(lut.entries) == _bits(want)


class TestTwinHosts:
    """Twin hosts give the per-node libm table bit for bit, and send libm
    only the nodes their numpy values cannot settle."""

    def test_libm_hosts_carry_twins(self):
        """Each libm host is its libm function, lifted, with a twin."""
        ml = {f: [h for h, _, _ in hosts]
              for f, (hosts, _) in _TABLE_CELLS.items()}
        for f in (FunctionId.SIN, FunctionId.COS, FunctionId.TAN,
                  FunctionId.EXP, FunctionId.LOG):
            assert all(getattr(h, "twin", None) for h in ml[f]), f
        assert _D_CELLS[FunctionId.SIN][0].twin is np.sin
        assert _D_CELLS[FunctionId.TANH][0].twin is np.tanh
        assert ml[FunctionId.SQRT] == [np.sqrt]
        assert _D_CELLS[FunctionId.GELU][0].twin
        lifted = [_lifted(h) for h in (
            *ml[FunctionId.SIN], *ml[FunctionId.COS], *ml[FunctionId.TAN],
            *ml[FunctionId.LOG], _D_CELLS[FunctionId.SIN][0],
            _D_CELLS[FunctionId.TANH][0])]
        assert lifted == [math.sin, math.cos, math.sin, math.cos, math.log,
                          math.sin, math.tanh]
        exp2 = _lifted(ml[FunctionId.EXP][0])
        assert (exp2.func, exp2.args) == (math.pow, (2.0,))

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
        loop = _node_loop if method is MethodId.DLLUT_INTERP else _d_loop
        f = _SCALAR_REFERENCE[function]
        assert _bits(table.entries) == _bits(loop(f, table))

    @pytest.mark.parametrize("function,config", [
        (FunctionId.SIN, EvaluatorConfig(method=MethodId.LLUT_INTERP,
                                         lut_size=4096)),
        (FunctionId.TANH, EvaluatorConfig(method=MethodId.DLUT_INTERP,
                                          mant_bits=12)),
    ], ids=["sin-llut-interp", "tanh-dlut-interp"])
    def test_libm_sees_few_nodes(self, monkeypatch, function, config):
        """A settle test that always failed would keep every entry and
        lose the speed; under 0.1% of the nodes may reach libm."""
        tables = _spied_tabulate(monkeypatch, pimfuncs.lut)
        with counting() as c:
            build_evaluator(function, config)
        assert tables
        assert _sent_to_twin_hosts(tables) < 0.001 * c.table_setup_entries

    @pytest.mark.parametrize("fixed", (False, True))
    def test_perturbed_twin_gives_libm_table(self, fixed):
        build = build_fixed_llut if fixed else build_llut
        lut = build(twin(SIN, _perturbed(np.sin)), 0.0, 2.0 * math.pi,
                    8192, interpolated=True)
        assert np.asarray(lut.entries).tobytes() == _ml_loop(
            math.sin, lut, fixed).tobytes()
        lut = build_dlut(twin(TANH, _perturbed(np.tanh)), -16, 16, 10)
        assert _bits(lut.entries) == _bits(_d_loop(math.tanh, lut))

    @pytest.mark.parametrize("fixed", (False, True))
    def test_twin_across_a_rounding_boundary_defers_to_libm(self, fixed):
        """Every node's libm value and twin value round to different
        entries, so any node the twin settled would show."""
        host, below = _above_midpoint(fixed)
        build = build_fixed_llut if fixed else build_llut
        lut = build(twin(partial(mapped, host), below), 0.0, 4.0, 4096,
                    interpolated=True)
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
        lut = build_llut(twin(partial(mapped, f),
                              lambda x: np.full_like(x, np.nan)),
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
        lifted = partial(mapped, host)
        for f in (lifted, twin(lifted, ufunc)):
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
        loop = _node_loop if method is MethodId.DLLUT_INTERP else _d_loop
        assert _bits(table.entries) == _bits(loop(_gelu, table))

    @pytest.mark.parametrize("build", [
        lambda: _make_cndf_lut(NumberFormat.FLOAT),
        lambda: _make_cndf_lut(NumberFormat.FIXED),
        *(lambda m=m: build_evaluator(FunctionId.GELU, EvaluatorConfig(
            method=m, mant_bits=12)) for m in _D_METHODS),
    ], ids=["cndf-float", "cndf-fixed", "gelu-dlut", "gelu-dllut"])
    def test_libm_sees_few_nodes(self, monkeypatch, build):
        tables = _spied_tabulate(monkeypatch, pimfuncs.lut)
        with counting() as c:
            build()
        assert any(hasattr(f, "twin") for f, _, _ in tables)
        assert _sent_to_twin_hosts(tables) < 0.001 * c.table_setup_entries

    @pytest.mark.parametrize("fixed", (False, True))
    def test_perturbed_twin_gives_libm_table(self, fixed):
        build = build_fixed_llut if fixed else build_llut
        lut = build(twin(cndf_exact, _perturbed(CNDF_HOST.twin)), 0.0, 8.0,
                    CNDF_LUT_SIZE, interpolated=True)
        assert np.asarray(lut.entries).tobytes() == _ml_loop(
            _cndf, lut, fixed).tobytes()

    def test_unsettled_nodes_reach_array_formula_once_per_chunk(self):
        """A formula host gets each chunk's unsettled nodes in one call."""
        seen = []

        def f(x):
            seen.append(x.tolist())
            return x * 0.5
        count = 2 * TABULATE_CHUNK + 3
        out = tabulate(twin(f, lambda x: np.where(x % 3 == 0, np.nan, x * 0.5)),
                       lambda a: a + 1.0, count)
        nodes = np.arange(count) + 1.0
        assert seen == [[v for v in nodes[start:stop].tolist() if v % 3 == 0]
                        for start, stop in _chunks(count)]
        assert _bits(out) == _bits((nodes * 0.5).astype(np.float32))


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
    assert _ulps(host.twin(x), host(x)).max() <= SETTLE_ULPS // 64


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
        """On float32 inputs: fed float32, ``np.sqrt`` would round in
        float32, and so would ``x / math.sqrt(2.0)`` in the GELU formula
        without its cast (numpy's weak-scalar rule)."""
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


def _lifted(host):
    """The scalar libm function that ``host``, a lifted libm host or a
    twin of one, maps over its nodes (a twin's partial flattens)."""
    assert host.func is mapped and len(host.args) == 1
    return host.args[0]


def _is_twin_of(host, formula) -> bool:
    """Whether ``host`` is ``formula`` carrying a twin, so its unsettled
    nodes reach ``formula`` once per chunk."""
    return host.func is formula and not host.args and callable(host.twin)


def _every_tabulated_host(monkeypatch) -> list:
    """(host, node count, arrays it was called on) of every table that
    builds every supported cell, both CNDF tables and the CORDIC+LUT
    start tables."""
    tables = _spied_tabulate(monkeypatch, pimfuncs.lut, pimfuncs.combined)
    for method, family in _FAMILY.items():
        for function in family.functions:
            for fmt in NumberFormat:
                if supported(function, method, fmt):
                    build_evaluator(function, EvaluatorConfig(
                        method=method, number_format=fmt))
    for fmt in NumberFormat:
        _make_cndf_lut(fmt)
    return tables


class TestHostProperties:
    def test_hosts_are_the_tabulated_ones(self, monkeypatch):
        """The CNDF and GELU tables take twins of the exact formulas, the
        CORDIC+LUT start tables scale a lifted cos, sin, cosh or sinh, and
        every host tabulated maps a float64 array to float64 of the same
        shape."""
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
        tabulated = [f for f, _, _ in _every_tabulated_host(monkeypatch)]
        named = [h for hosts, _ in _TABLE_CELLS.values() for h, _, _ in hosts]
        named += [h for h, *_ in _D_CELLS.values()] + [CNDF_HOST]
        assert {id(h) for h in named} <= {id(f) for f in tabulated}
        start = [f for f in tabulated if not any(f is h for h in named)]
        assert all(f.func is _scaled for f in start)
        assert sorted({_lifted(f.args[0]).__name__ for f in start}) == [
            "cos", "cosh", "sin", "sinh"]
        x = np.linspace(1.0, 2.0, 12).reshape(3, 4)
        for f in named + start:
            for nodes in (x, x[:0], x[:, :1]):
                y = f(nodes)
                assert (y.dtype, y.shape) == (np.float64, nodes.shape), f

    def test_tabulate_calls_each_host_once_per_float64_chunk(
            self, monkeypatch):
        """At most one call per chunk, a twin's host included, on float64
        nodes, for every table every cell builds."""
        for f, count, seen in _every_tabulated_host(monkeypatch):
            assert 1 <= len(seen) <= len(_chunks(count)), f
            assert all(x.dtype == np.float64 for x in seen), f

    @pytest.mark.parametrize("build,args", [
        (build_mlut, (0.0, 1.0, 16)), (build_llut, (0.0, 1.0, 16)),
        (build_fixed_llut, (0.0, 1.0, 16)), (build_dlut, (-16, 16, 4)),
        (build_dllut, (0, 32, 4))], ids=["M", "L", "fixed-L", "D", "DL"])
    @pytest.mark.parametrize("host", [math.sin, twin(math.sin, np.sin)],
                             ids=["bare", "bare-twin"])
    def test_bare_scalar_host_raises_type_error(self, host, build, args):
        """A libm function not lifted with ``mapped`` fails at build, with
        no table made, as numpy refuses it arrays of every size."""
        with pytest.raises(TypeError):
            build(host, *args)

    @pytest.mark.parametrize("name", sorted(_HOSTS))
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats() | st.sampled_from(_SPECIALS),
                       min_size=1, max_size=50))
    def test_matches_scalar_form(self, name, xs):
        """Bit for bit wherever the scalar form returns a value (NaN
        included), node by node and over the whole array; where it
        raises, a lifted libm host raises the same."""
        host, scalar = _HOSTS[name]
        want = [_outcome(scalar, v) for v in xs]
        with np.errstate(all="ignore"):  # e.g. sqrt(-1), -inf * 0
            got = [_outcome(lambda v: host(np.array([v]))[0], v) for v in xs]
            if not any(isinstance(w, type) for w in want):
                assert _bits(host(np.array(xs))) == want
        if isinstance(host, partial) and host.func is mapped:
            assert got == want
        else:
            assert all(w is ValueError or g == w for g, w in zip(got, want))
