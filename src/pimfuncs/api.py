"""Public evaluator API: function x method x number-format dispatch.

``supported`` answers whether a combination exists; ``build_evaluator``
builds the tables of one combination and returns an ``Evaluator`` that
holds them and one pipeline, a map from float64 arrays to float32
results, elementwise.  ``evaluate`` is a batch of one and
``evaluate_batch`` a batch of many, so scalar and batch results are
bit-identical and count the same ops.

Each cell is a small kernel inside range reduction and extension.  One
table per method family says what each function's kernel is and which
array steps wrap it: ``_TABLE_CELLS`` (M/L-LUTs, whose tables and
queries ``table_kernel`` builds), ``_D_CELLS`` (D/DL-LUTs), and
``_CORDIC_CELLS`` (CORDIC and CORDIC+LUT: each function's mode and
``cordic`` step, and whether the step takes a rotator or vectoring
tables).  ``SUPPORT`` and the dispatch follow from them.  Builders
and queries are looked up through their modules when a cell is built,
never at import.

``EvaluatorConfig`` holds what callers size; the constants fix the rest.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import combined, cordic, lut
from .costmodel import OpCounts, SetupReport, counting, tally
from .errors import DomainError, UnsupportedCombinationError
from .fixedpoint import ldexp32, to_fixed, to_float
from .rangeext import (TWO_PI, exp_via, log_via, piecewise, reduce_2pi,
                       reflect_odd, sqrt_via, tan_extend)


class FunctionId(Enum):
    SIN = "sin"
    COS = "cos"
    TAN = "tan"
    SINH = "sinh"
    COSH = "cosh"
    TANH = "tanh"
    EXP = "exp"
    LOG = "log"
    SQRT = "sqrt"
    GELU = "gelu"


class MethodId(Enum):
    CORDIC = "cordic"
    MLUT = "mlut"
    MLUT_INTERP = "mlut-interp"
    LLUT = "llut"
    LLUT_INTERP = "llut-interp"
    DLUT_INTERP = "dlut-interp"
    DLLUT_INTERP = "dllut-interp"
    CORDIC_LUT = "cordic-lut"


class NumberFormat(Enum):
    FLOAT = "float"
    FIXED = "fixed"


LUT_ADDR_BITS = 6  # CORDIC+LUT start-table address width
EXP_BITS = 5  # D/DL-LUT exponent field: the D part spans 2**EXP_BITS octaves
BASE_EXPONENT = -16  # D-LUT lower exponent bound
DL_BASE_EXPONENT = 0  # DL-LUT L/D boundary exponent


@dataclass(frozen=True)
class EvaluatorConfig:
    method: MethodId
    number_format: NumberFormat = NumberFormat.FLOAT
    n_iter: int = 28  # CORDIC and CORDIC+LUT
    lut_size: int = 4096  # M- and L-LUT cells
    mant_bits: int = 8  # D-LUT / DL-LUT mantissa field


@lut.array_formula
def cndf_exact(x):
    """The exact Gaussian CDF Phi, of a float or elementwise over an array."""
    return 0.5 * (1.0 + lut.mapped(math.erf, x / math.sqrt(2.0)))


@lut.array_formula
def gelu_exact(x):
    """x * Phi(x): the bits of x * 0.5 * (1 + erf(x / sqrt(2))), since
    either halving is exact or, at subnormal x, 1 + erf(...) is 1."""
    return x * cndf_exact(x)


# Cephes ndtr.c (Moshier) erf coefficients, highest degree first; the
# denominators U and Q are monic.
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
          7003.325141128051, 55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801,
          22629.000061389095, 49267.39426086359)
_ERFC_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
           48.63719709856814, 196.5208329560771, 526.4451949954773,
           934.5285271719576, 1027.5518868951572, 557.5353353693994)
_ERFC_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199,
           975.7085017432055, 1823.9091668790973, 2246.3376081871097,
           1656.6630919416134, 557.5353408177277)


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    y = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        y *= x
        y += c
    return y


def erf_twin(x: np.ndarray) -> np.ndarray:
    """erf over a float64 array, within a few ulps of ``math.erf``.

    x T(x^2) / U(x^2) for |x| < 1; 1 - exp(-x^2) P(|x|) / Q(|x|), signed
    as x, for |x| < 6; +-1 beyond, where libm's erf is 1.0 too.  +-0 keep
    their sign and NaN stays NaN.
    """
    a = np.abs(x)
    out = np.sign(x)  # +-1, and NaN kept
    small = a < 1.0
    s = x[small]
    z = s * s
    out[small] = s * _horner(_ERF_T, z) / _horner(_ERF_U, z)
    tail = (a >= 1.0) & (a < 6.0)
    b = a[tail]
    out[tail] = np.copysign(
        1.0 - np.exp(-b * b) * _horner(_ERFC_P, b) / _horner(_ERFC_Q, b),
        x[tail])
    return out


def _cndf_twin(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf_twin(x / math.sqrt(2.0)))


# The CNDF and GELU table hosts: the libm formulas above, twinned.
CNDF_HOST = lut.twin(cndf_exact, _cndf_twin)
_GELU = lut.twin(gelu_exact, lambda x: x * _cndf_twin(x))


def _real(v) -> float:
    """``v`` as a double; an int beyond the double range is +-inf."""
    if not isinstance(v, numbers.Real):
        raise DomainError(f"not a real number: {v!r}")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _as_float32(xs) -> np.ndarray:
    """``xs`` rounded to float32; a real number beyond float32 (a double
    such as 1e39, an int such as 10**400) becomes +-inf.  Strings, bytes,
    None, complex and other objects raise DomainError."""
    if isinstance(xs, np.ndarray) and xs.dtype == np.float32:
        return xs  # nothing to round, and errstate costs a microsecond
    try:
        arr = np.asarray(xs)
    except ValueError as exc:  # ragged nesting
        raise DomainError(f"not an array of real numbers: {exc}") from None
    if arr.dtype == object:  # Python ints beyond int64, or mixed objects
        xs = np.reshape([_real(v) for v in arr.ravel().tolist()], arr.shape)
    elif arr.dtype.kind not in "biuf":
        raise DomainError(f"not real numbers: dtype {arr.dtype}")
    with np.errstate(over="ignore"):
        return np.asarray(xs, dtype=np.float32)


@dataclass(eq=False)
class Evaluator:
    """One built cell.  ``pipeline`` maps a float64 array to float32
    results elementwise and tallies its ops into the active counting
    context.  ``tables`` holds the tables it reads: a ``lut.FuzzyLut`` per
    table for the LUT methods (two for tan via M/L), the
    ``cordic.CordicTables`` or ``combined.CordicLutTables`` for CORDIC.
    """

    function: FunctionId
    config: EvaluatorConfig
    pipeline: object
    setup: SetupReport
    tables: tuple

    def evaluate(self, x) -> np.float32:
        """One value, rounded to float32 as ``evaluate_batch`` rounds it."""
        return self.pipeline(_as_float32([x]).astype(np.float64))[0]

    def evaluate_batch(self, xs) -> tuple[np.ndarray, OpCounts]:
        arr = _as_float32(xs)
        with counting() as c:
            out = self.pipeline(arr.ravel().astype(np.float64))
        return out.reshape(arr.shape), c


# ---------------------------------------------------------------------------
# M- and L-LUT cells
# ---------------------------------------------------------------------------

_M_LUTS = (MethodId.MLUT, MethodId.MLUT_INTERP)
_L_LUTS = (MethodId.LLUT, MethodId.LLUT_INTERP)


def table_kernel(f, lo: float, hi: float, cfg: EvaluatorConfig):
    """The M/L table of ``f`` on [lo, hi] that ``cfg`` asks for, and its
    query: a map from a float64 array on [lo, hi] to float32 results.

    The one place where a (method, format) pair picks a table builder and
    a query.  Fixed-point queries need shift-only addressing, so only the
    L-LUTs have a fixed variant; it converts at the query's boundary.
    """
    fixed = cfg.number_format is NumberFormat.FIXED
    if cfg.method not in (_L_LUTS if fixed else _M_LUTS + _L_LUTS):
        raise UnsupportedCombinationError(
            f"no {cfg.number_format.value} M/L table for {cfg.method.value}")
    interp = cfg.method in (MethodId.MLUT_INTERP, MethodId.LLUT_INTERP)
    if fixed:
        table = lut.build_fixed_llut(f, lo, hi, cfg.lut_size, interp)
        fq = lut.fixed_llut_query_interp if interp else lut.fixed_llut_query
        return table, lambda r: to_float(fq(table, to_fixed(r)))
    if cfg.method in _L_LUTS:
        table = lut.build_llut(f, lo, hi, cfg.lut_size, interp)
        query = lut.llut_query_interp if interp else lut.llut_query
    else:
        table = lut.build_mlut(f, lo, hi, cfg.lut_size, interp)
        query = lut.mlut_query_interp if interp else lut.mlut_query
    return table, partial(query, table)


def _tan(q_sin, q_cos, x):
    r = reduce_2pi(x)
    return tan_extend(q_sin(r), q_cos(r))


# function -> ((host f, lo, hi) per table, pipeline step); the step
# takes one query per table, then the input array.  The libm hosts are
# twins (lut.twin): numpy's ufunc gives each entry it settles, and libm,
# called per node, the rest (math.pow(2.0, r) is 2.0 ** r, bit for bit).
# sqrt's host is an array formula: np.sqrt is correctly rounded, as
# math.sqrt is.
_SIN = lut.twin(math.sin, np.sin)
_COS = lut.twin(math.cos, np.cos)
_TABLE_CELLS = {
    FunctionId.SIN: (((_SIN, 0.0, TWO_PI),), lambda q, x: q(reduce_2pi(x))),
    FunctionId.COS: (((_COS, 0.0, TWO_PI),), lambda q, x: q(reduce_2pi(x))),
    FunctionId.TAN: (((_SIN, 0.0, TWO_PI), (_COS, 0.0, TWO_PI)), _tan),
    FunctionId.EXP: (((lut.twin(partial(math.pow, 2.0), np.exp2), 0.0, 1.0),),
                     lambda q, x: exp_via(q, x)),
    FunctionId.LOG: (((lut.twin(math.log, np.log), 1.0, 2.0),),
                     lambda q, x: log_via(q, x)),
    FunctionId.SQRT: (((lut.array_formula(np.sqrt), 0.5, 2.0),),
                      lambda q, x: sqrt_via(q, x)),
}


def _table_cell(function: FunctionId, cfg: EvaluatorConfig):
    hosts, step = _TABLE_CELLS[function]
    tables, queries = zip(*(table_kernel(f, lo, hi, cfg)
                            for f, lo, hi in hosts))
    return tables, partial(step, *queries)


# ---------------------------------------------------------------------------
# D- and DL-LUT cells
# ---------------------------------------------------------------------------

def _as_is(x):  # sin(x) ~= tanh(x) ~= x below table resolution
    return x.astype(np.float32)


def _d_sin(query, lo, x):
    def kernel(a):
        r = reduce_2pi(a)
        return piecewise(r < lo, r, _as_is, query)
    return reflect_odd(x, kernel)


def _d_tanh(query, lo, x):
    return piecewise(np.abs(x) < lo, x, _as_is,
                     lambda v: reflect_odd(v, query))


def _d_gelu(query, lo, x):
    """gelu(x) = gelu(-x) + x for x < 0, and gelu(x) ~= x/2 near zero."""
    neg = ~(x >= 0)
    tally("float_add", int(np.count_nonzero(neg)))
    ax = np.where(neg, -x, x)
    v = piecewise(ax < lo, ax,
                  lambda a: ldexp32(a.astype(np.float32), -1), query)
    v[neg] += x[neg].astype(np.float32)
    return v


# function -> (host f, pipeline step(query, lo, x)); the D part covers
# 2**EXP_BITS octaves from its base exponent, and inputs below the
# table's own lower bound ``lo`` (0 for a DL-LUT) bypass it.  Every host
# is a twin: sin and tanh of numpy's ufuncs, GELU of ``erf_twin``, whose
# unsettled nodes reach the array formula ``gelu_exact`` once per chunk.
_D_CELLS = {
    FunctionId.SIN: (_SIN, _d_sin),
    FunctionId.TANH: (lut.twin(math.tanh, np.tanh), _d_tanh),
    FunctionId.GELU: (_GELU, _d_gelu),
}


def _d_cell(function: FunctionId, cfg: EvaluatorConfig):
    host, step = _D_CELLS[function]
    if cfg.method is MethodId.DLLUT_INTERP:
        table = lut.build_dllut(host, EXP_BITS, cfg.mant_bits, DL_BASE_EXPONENT)
        query = lut.dllut_query_interp
    else:
        table = lut.build_dlut(host, EXP_BITS, cfg.mant_bits, BASE_EXPONENT)
        query = lut.dlut_query_interp
    return (table,), partial(step, partial(query, table), table.spec.lo)


# ---------------------------------------------------------------------------
# CORDIC and CORDIC+LUT cells
# ---------------------------------------------------------------------------

_CIRC, _HYP = cordic.CordicMode.CIRCULAR, cordic.CordicMode.HYPERBOLIC


def _cordic_tan(rotate, x):
    return tan_extend(*cordic.sin_cos(rotate, x))


# function -> (mode, step, whether the step takes a rotator: plain
# CORDIC's or the CORDIC+LUT start table's).  log and sqrt vector on
# plain hyperbolic tables instead, so they have no CORDIC+LUT form.
_CORDIC_CELLS = {
    FunctionId.SIN: (_CIRC, lambda r, x: cordic.sin_cos(r, x)[0], True),
    FunctionId.COS: (_CIRC, lambda r, x: cordic.sin_cos(r, x)[1], True),
    FunctionId.TAN: (_CIRC, _cordic_tan, True),
    FunctionId.SINH: (_HYP, lambda r, x: cordic.sinh_cosh(r, x)[0], True),
    FunctionId.COSH: (_HYP, lambda r, x: cordic.sinh_cosh(r, x)[1], True),
    FunctionId.TANH: (_HYP, cordic.tanh_array, True),
    FunctionId.EXP: (_HYP, cordic.exp_array, True),
    FunctionId.LOG: (_HYP, cordic.log_array, False),
    FunctionId.SQRT: (_HYP, cordic.sqrt_array, False),
}


def _cordic_cell(function: FunctionId, cfg: EvaluatorConfig):
    """The function's step driven by the method's rotator, or for log and
    sqrt by plain hyperbolic tables."""
    mode, step, rotates = _CORDIC_CELLS[function]
    if cfg.method is MethodId.CORDIC_LUT:
        start = combined.build_cordic_lut(mode, LUT_ADDR_BITS, cfg.n_iter)
        return (start,), partial(step, combined.rotator(start))
    tables = cordic.generate_cordic_tables(mode, cfg.n_iter)
    kernel = partial(cordic.cordic_rotate, tables) if rotates else tables
    return (tables,), partial(step, kernel)


# (methods, functions they implement, cell builder) per method family.
_FAMILIES = (
    (_M_LUTS + _L_LUTS, frozenset(_TABLE_CELLS), _table_cell),
    ((MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP), frozenset(_D_CELLS),
     _d_cell),
    ((MethodId.CORDIC,), frozenset(_CORDIC_CELLS), _cordic_cell),
    ((MethodId.CORDIC_LUT,),
     frozenset(f for f, (*_, rotates) in _CORDIC_CELLS.items() if rotates),
     _cordic_cell),
)

# Which functions each method implements.
SUPPORT = {m: fs for methods, fs, _ in _FAMILIES for m in methods}
_BUILD_CELL = {m: build for methods, _, build in _FAMILIES for m in methods}


def supported(function: FunctionId, method: MethodId,
              number_format: NumberFormat = NumberFormat.FLOAT) -> bool:
    return function in SUPPORT[method] and (
        number_format is NumberFormat.FLOAT or method in _L_LUTS)


def _table_bytes(table) -> int:
    """Modelled device memory of one table an evaluator holds."""
    if isinstance(table, lut.FuzzyLut):
        return lut.lut_memory_bytes(table)
    if isinstance(table, combined.CordicLutTables):
        return combined.cordic_lut_memory_bytes(table)
    return (len(set(table.schedule)) + 1) * 4  # angles and the inverse gain


def build_evaluator(function: FunctionId, config: EvaluatorConfig) -> Evaluator:
    if not supported(function, config.method, config.number_format):
        raise UnsupportedCombinationError(
            f"{function.value} is not available via {config.method.value} "
            f"in {config.number_format.value} format")
    t0 = time.perf_counter()
    with counting() as c:
        tables, pipeline = _BUILD_CELL[config.method](function, config)
    setup = SetupReport(wall_seconds=time.perf_counter() - t0,
                        bytes=sum(map(_table_bytes, tables)),
                        table_entries=c.table_setup_entries)
    return Evaluator(function, config, pipeline, setup, tables)
