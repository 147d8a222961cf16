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
tables).  A ``_FAMILIES`` row adds each family's formats and sizing
field; ``supported``, ``config_for`` and the dispatch read the rows.
Builders and queries are looked up through their modules when a cell is
built, never at import.

``EvaluatorConfig`` holds what callers size; the constants fix the rest.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import combined, cordic, lut
from .costmodel import OpCounts, SetupReport, counting, tally
from .errors import DomainError, UnsupportedCombinationError, integral
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


@dataclass(frozen=True)
class EvaluatorConfig:
    method: MethodId
    number_format: NumberFormat = NumberFormat.FLOAT
    n_iter: int = 28  # CORDIC and CORDIC+LUT
    lut_size: int = 4096  # M- and L-LUT cells
    mant_bits: int = 8  # D-LUT / DL-LUT mantissa field


def cndf_exact(x):
    """The exact Gaussian CDF Phi, of a float or elementwise over an
    array, in float64: a float32 ``x / math.sqrt(2.0)`` would stay float32."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + lut.mapped(math.erf, x / math.sqrt(2.0)))


def gelu_exact(x):
    """x * Phi(x): the bits of x * 0.5 * (1 + erf(x / sqrt(2))), since
    either halving is exact or, at subnormal x, 1 + erf(...) is 1."""
    x = np.asarray(x, dtype=np.float64)
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
        x32 = _as_float32(x)
        if x32.ndim:
            raise DomainError(f"evaluate takes one value, not shape {x32.shape}")
        return self.pipeline(x32.reshape(1).astype(np.float64))[0]

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
    a query.  The fixed variant, which only the L-LUTs offer
    (``_FAMILIES``), converts at the query's boundary.
    """
    if not (cfg.method in _M_LUTS + _L_LUTS
            and cfg.number_format in _FAMILY[cfg.method].formats):
        raise UnsupportedCombinationError(
            f"no {_named(cfg.number_format)} M/L table for {_named(cfg.method)}")
    fixed = cfg.number_format is NumberFormat.FIXED
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
# lifted and twinned (lut.twin): numpy's ufunc gives each entry it
# settles, and libm, mapped over the nodes, the rest (math.pow(2.0, r) is
# 2.0 ** r, bit for bit).  sqrt's host is np.sqrt, correctly rounded, as
# math.sqrt is.  The polynomial baseline (``harness``) fits its exp, log
# and sqrt to the same rows.
_SIN = lut.twin(partial(lut.mapped, math.sin), np.sin)
_COS = lut.twin(partial(lut.mapped, math.cos), np.cos)
_EXP2 = lut.twin(partial(lut.mapped, partial(math.pow, 2.0)), np.exp2)
_LOG = lut.twin(partial(lut.mapped, math.log), np.log)
_TANH = lut.twin(partial(lut.mapped, math.tanh), np.tanh)
_TABLE_CELLS = {
    FunctionId.SIN: (((_SIN, 0.0, TWO_PI),), lambda q, x: q(reduce_2pi(x))),
    FunctionId.COS: (((_COS, 0.0, TWO_PI),), lambda q, x: q(reduce_2pi(x))),
    FunctionId.TAN: (((_SIN, 0.0, TWO_PI), (_COS, 0.0, TWO_PI)), _tan),
    FunctionId.EXP: (((_EXP2, 0.0, 1.0),), exp_via),
    FunctionId.LOG: (((_LOG, 1.0, 2.0),), log_via),
    FunctionId.SQRT: (((np.sqrt, 0.5, 2.0),), sqrt_via),
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


def _saturated(top, above, kernel, x):
    """float32 ``above(x)`` where |x| >= top, +-inf too; ``kernel`` else."""
    return piecewise(np.abs(x) >= top, x,
                     lambda v: above(v).astype(np.float32), kernel)


# function -> (host f, octaves [base, hi) of the D-LUT and of the DL-LUT's
# D octaves as exponents, f at |x| >= 2**hi or None if no input gets there,
# step(query, lo, x)).  Past 2**hi, float32 tanh is +-1 and GELU x (+0 at
# -x); sin reduces into [0, 2*pi).  Inputs below the table's ``lo`` (0 for
# DL) bypass it too, and no bypass tallies an op.  Hosts are twins.
_D_CELLS = {
    FunctionId.SIN: (_SIN, ((-16, 3), (0, 3)), None, _d_sin),
    FunctionId.TANH: (_TANH, ((-16, 4), (0, 4)), np.sign, _d_tanh),
    FunctionId.GELU: (_GELU, ((-16, 3), (0, 3)), partial(np.fmax, 0.0), _d_gelu),
}


def _d_cell(function: FunctionId, cfg: EvaluatorConfig):
    host, octaves, above, step = _D_CELLS[function]
    dl = cfg.method is MethodId.DLLUT_INTERP
    build, query = ((lut.build_dllut, lut.dllut_query_interp) if dl
                    else (lut.build_dlut, lut.dlut_query_interp))
    table = build(host, *octaves[dl], cfg.mant_bits)
    kernel = partial(step, partial(query, table), table.spec.lo)
    if above is not None:
        kernel = partial(_saturated, table.spec.hi, above, kernel)
    return (table,), kernel


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
_ROTATING = [f for f, (*_, rotates) in _CORDIC_CELLS.items() if rotates]


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


# A method family: its methods, the functions they offer (a cell table's
# keys), their number formats (FIXED needs shift-only addressing: L-LUTs
# only), the EvaluatorConfig field that sizes them, and the cell builder.
_Family = namedtuple("_Family", "methods functions formats sizing build")
_FLOAT = (NumberFormat.FLOAT,)
_FAMILIES = (
    _Family(_M_LUTS, _TABLE_CELLS, _FLOAT, "lut_size", _table_cell),
    _Family(_L_LUTS, _TABLE_CELLS, tuple(NumberFormat), "lut_size", _table_cell),
    _Family((MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP), _D_CELLS, _FLOAT,
            "mant_bits", _d_cell),
    _Family((MethodId.CORDIC,), _CORDIC_CELLS, _FLOAT, "n_iter", _cordic_cell),
    _Family((MethodId.CORDIC_LUT,), _ROTATING, _FLOAT, "n_iter", _cordic_cell),
)
_FAMILY = {m: family for family in _FAMILIES for m in family.methods}


def supported(function: FunctionId, method: MethodId,
              number_format: NumberFormat = NumberFormat.FLOAT) -> bool:
    """Whether the cell exists; False for any non-member of an enum."""
    return (isinstance(function, FunctionId) and isinstance(method, MethodId)
            and isinstance(number_format, NumberFormat)
            and function in _FAMILY[method].functions
            and number_format in _FAMILY[method].formats)


def config_for(method: MethodId, number_format: NumberFormat,
               size: int) -> EvaluatorConfig:
    """``method``'s config in ``number_format``, its sizing field ``size``."""
    if not isinstance(method, MethodId):
        raise UnsupportedCombinationError(f"no method {method!r}")
    return EvaluatorConfig(method=method, number_format=number_format,
                           **{_FAMILY[method].sizing: size})


def _named(v) -> str:
    """An enum member by its value, anything else (a caller's typo) by repr."""
    return v.value if isinstance(v, Enum) else repr(v)


def _table_bytes(table) -> int:
    """Modelled device memory of one table an evaluator holds."""
    if isinstance(table, lut.FuzzyLut):
        return lut.lut_memory_bytes(table)
    if isinstance(table, combined.CordicLutTables):
        return combined.cordic_lut_memory_bytes(table)
    return cordic._angle_bytes(table)


def build_evaluator(function: FunctionId, config: EvaluatorConfig) -> Evaluator:
    if not isinstance(config, EvaluatorConfig):
        raise UnsupportedCombinationError(
            f"config must be an EvaluatorConfig, got {config!r}")
    if not supported(function, config.method, config.number_format):
        raise UnsupportedCombinationError(
            f"{_named(function)} is not available via {_named(config.method)} "
            f"in {_named(config.number_format)} format")
    family = _FAMILY[config.method]
    integral(family.sizing, getattr(config, family.sizing))
    t0 = time.perf_counter()
    with counting() as c:
        tables, pipeline = family.build(function, config)
    setup = SetupReport(wall_seconds=time.perf_counter() - t0,
                        bytes=sum(map(_table_bytes, tables)),
                        table_entries=c.table_setup_entries)
    return Evaluator(function, config, pipeline, setup, tables)
