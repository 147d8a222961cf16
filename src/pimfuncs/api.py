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
import time
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import combined, cordic, lut
from .costmodel import OpCounts, SetupReport, counting, tally
from .errors import UnsupportedCombinationError
from .fixedpoint import ldexp32, to_fixed_array, to_float_array
from .rangeext import (TWO_PI, exp_via, log_via, piecewise, reduce_2pi_array,
                       sqrt_via, tan_extend)


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
def gelu_exact(x):
    """x * Phi(x) with the exact Gaussian CDF (host-side reference), of a
    float or elementwise over a float64 array."""
    return x * 0.5 * (1.0 + lut.mapped(math.erf, x / math.sqrt(2.0)))


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
        return self.pipeline(np.array([float(x)]))[0]

    def evaluate_batch(self, xs) -> tuple[np.ndarray, OpCounts]:
        arr = np.asarray(xs, dtype=np.float32)
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
        return table, lambda r: to_float_array(fq(table, to_fixed_array(r)))
    if cfg.method in _L_LUTS:
        table = lut.build_llut(f, lo, hi, cfg.lut_size, interp)
        query = lut.llut_query_interp if interp else lut.llut_query
    else:
        table = lut.build_mlut(f, lo, hi, cfg.lut_size, interp)
        query = lut.mlut_query_interp if interp else lut.mlut_query
    return table, partial(query, table)


def _tan(q_sin, q_cos, x):
    r = reduce_2pi_array(x)
    return tan_extend(q_sin(r), q_cos(r))


# function -> ((host f, lo, hi) per table, pipeline step); the step
# takes one query per table, then the input array.  Hosts are libm
# callables mapped per node (math.pow(2.0, r) is 2.0 ** r, bit for bit)
# or array formulas (np.sqrt is correctly rounded, as math.sqrt is).
_TABLE_CELLS = {
    FunctionId.SIN: (((math.sin, 0.0, TWO_PI),),
                     lambda q, x: q(reduce_2pi_array(x))),
    FunctionId.COS: (((math.cos, 0.0, TWO_PI),),
                     lambda q, x: q(reduce_2pi_array(x))),
    FunctionId.TAN: (((math.sin, 0.0, TWO_PI), (math.cos, 0.0, TWO_PI)),
                     _tan),
    FunctionId.EXP: (((partial(math.pow, 2.0), 0.0, 1.0),),
                     lambda q, x: exp_via(q, x)),
    FunctionId.LOG: (((math.log, 1.0, 2.0),), lambda q, x: log_via(q, x)),
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


def _d_sin(query, tiny, x):
    r = reduce_2pi_array(np.abs(x))
    v = piecewise(r < tiny, r, _as_is, query)
    return np.where(x < 0, -v, v)


def _d_tanh(query, tiny, x):
    def reflected(v):
        q = query(np.abs(v))
        return np.where(v < 0, -q, q)
    return piecewise(np.abs(x) < tiny, x, _as_is, reflected)


def _d_gelu(query, tiny, x):
    """gelu(x) = gelu(-x) + x for x < 0, and gelu(x) ~= x/2 near zero."""
    neg = ~(x >= 0)
    tally("float_add", int(np.count_nonzero(neg)))
    ax = np.where(neg, -x, x)
    v = piecewise(ax < tiny, ax,
                  lambda a: ldexp32(a.astype(np.float32), -1), query)
    v[neg] += x[neg].astype(np.float32)
    return v


# function -> (host f, pipeline step(query, tiny, x)); the D part covers
# 2**EXP_BITS octaves from its base exponent, and inputs below ``tiny``
# bypass the table.
_D_CELLS = {
    FunctionId.SIN: (math.sin, _d_sin),
    FunctionId.TANH: (math.tanh, _d_tanh),
    FunctionId.GELU: (gelu_exact, _d_gelu),
}


def _d_cell(function: FunctionId, cfg: EvaluatorConfig):
    host, step = _D_CELLS[function]
    if cfg.method is MethodId.DLLUT_INTERP:
        table = lut.build_dllut(host, EXP_BITS, cfg.mant_bits, DL_BASE_EXPONENT)
        query, tiny = lut.dllut_query_interp, 0.0  # L part reaches down to 0
    else:
        table = lut.build_dlut(host, EXP_BITS, cfg.mant_bits, BASE_EXPONENT)
        query, tiny = lut.dlut_query_interp, math.ldexp(1.0, BASE_EXPONENT)
    return (table,), partial(step, partial(query, table), tiny)


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
    return (len(table.angles) + 1) * 4  # angles and the inverse gain


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
