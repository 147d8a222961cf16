"""Public evaluator API: function x method x number-format dispatch.

``supported`` answers whether a combination exists; ``build_evaluator``
constructs the tables for one combination and returns an ``Evaluator``
holding one pipeline: a function from a float64 array to float32 results,
elementwise.  The LUT families run it as array steps (reduce -> address
-> lookup -> interpolate -> extend); CORDIC and CORDIC+LUT share the
array pipelines of ``cordic`` and differ only in the rotator they pass
in.  ``evaluate`` is a batch of one and ``evaluate_batch`` a batch of
many, so scalar and batch results are bit-identical and count the same
ops.
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


_TRIG_LUT = frozenset({FunctionId.SIN, FunctionId.COS, FunctionId.TAN,
                       FunctionId.EXP, FunctionId.LOG, FunctionId.SQRT})

# Which functions each method implements.
SUPPORT = {
    MethodId.CORDIC: frozenset(f for f in FunctionId if f is not FunctionId.GELU),
    MethodId.MLUT: _TRIG_LUT,
    MethodId.MLUT_INTERP: _TRIG_LUT,
    MethodId.LLUT: _TRIG_LUT,
    MethodId.LLUT_INTERP: _TRIG_LUT,
    MethodId.DLUT_INTERP: frozenset({FunctionId.SIN, FunctionId.TANH,
                                     FunctionId.GELU}),
    MethodId.DLLUT_INTERP: frozenset({FunctionId.SIN, FunctionId.TANH,
                                      FunctionId.GELU}),
    MethodId.CORDIC_LUT: frozenset({FunctionId.SIN, FunctionId.COS,
                                    FunctionId.TAN, FunctionId.SINH,
                                    FunctionId.COSH, FunctionId.TANH,
                                    FunctionId.EXP}),
}

# Fixed-point queries need shift-only addressing, so only the L-LUTs
# have a fixed variant.
_FIXED_METHODS = frozenset({MethodId.LLUT, MethodId.LLUT_INTERP})


def supported(function: FunctionId, method: MethodId,
              number_format: NumberFormat = NumberFormat.FLOAT) -> bool:
    if function not in SUPPORT[method]:
        return False
    if number_format is NumberFormat.FIXED:
        return method in _FIXED_METHODS
    return True


@dataclass(frozen=True)
class EvaluatorConfig:
    method: MethodId
    number_format: NumberFormat = NumberFormat.FLOAT
    n_iter: int = 28
    lut_size: int = 4096
    lut_addr_bits: int = 6  # CORDIC+LUT start-table address width
    exp_bits: int = 5  # D-LUT exponent field
    mant_bits: int = 8  # D-LUT / DL-LUT mantissa field
    base_exponent: int = -16  # D-LUT lower exponent bound
    dl_base_exponent: int = 0  # DL-LUT L/D boundary exponent
    hi_exponent: int | None = None


def gelu_exact(x: float) -> float:
    """x * Phi(x) with the exact Gaussian CDF (host-side reference)."""
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# Reduced-domain kernels the M/L LUT methods tabulate: (lo, hi, f).
_REDUCED_DOMAIN = {
    FunctionId.SIN: (0.0, TWO_PI, math.sin),
    FunctionId.COS: (0.0, TWO_PI, math.cos),
    FunctionId.EXP: (0.0, 1.0, lambda r: 2.0 ** r),
    FunctionId.LOG: (1.0, 2.0, math.log),
    FunctionId.SQRT: (0.5, 2.0, math.sqrt),
}


class Evaluator:
    """One built cell.  ``pipeline`` maps a float64 array to float32 results
    elementwise and tallies its ops into the active counting context.
    """

    def __init__(self, function: FunctionId, config: EvaluatorConfig,
                 pipeline, setup: SetupReport):
        self.function = function
        self.config = config
        self.pipeline = pipeline
        self.setup = setup

    def evaluate(self, x) -> np.float32:
        return self.pipeline(np.array([float(x)]))[0]

    def evaluate_batch(self, xs) -> tuple[np.ndarray, OpCounts]:
        arr = np.asarray(xs, dtype=np.float32)
        with counting() as c:
            out = self.pipeline(arr.ravel().astype(np.float64))
        return out.reshape(arr.shape), c


# ---------------------------------------------------------------------------
# Per-method kernel construction
# ---------------------------------------------------------------------------

def _lut_tables_for(function: FunctionId, cfg: EvaluatorConfig):
    """Build the reduced-domain table(s) for an M/L LUT method."""
    interp = cfg.method in (MethodId.MLUT_INTERP, MethodId.LLUT_INTERP)
    fixed = cfg.number_format is NumberFormat.FIXED
    family_l = cfg.method in (MethodId.LLUT, MethodId.LLUT_INTERP)

    def build(lo, hi, f, fid):
        if fixed:
            return lut.build_fixed_llut(f, lo, hi, cfg.lut_size, interp, fid)
        if family_l:
            return lut.build_llut(f, lo, hi, cfg.lut_size, interp, fid)
        return lut.build_mlut(f, lo, hi, cfg.lut_size, interp, fid)

    if function is FunctionId.TAN:
        lo, hi, _ = _REDUCED_DOMAIN[FunctionId.SIN]
        return {"sin": build(lo, hi, math.sin, "sin"),
                "cos": build(lo, hi, math.cos, "cos")}
    lo, hi, f = _REDUCED_DOMAIN[function]
    return {"main": build(lo, hi, f, function.value)}


def _lut_query_fn(cfg: EvaluatorConfig):
    interp = cfg.method in (MethodId.MLUT_INTERP, MethodId.LLUT_INTERP)
    if cfg.number_format is NumberFormat.FIXED:
        fq = lut.fixed_llut_query_interp if interp else lut.fixed_llut_query

        def query(t, r):
            return to_float_array(fq(t, to_fixed_array(r)))
        return query
    if cfg.method in (MethodId.LLUT, MethodId.LLUT_INTERP):
        return lut.llut_query_interp if interp else lut.llut_query
    return lut.mlut_query_interp if interp else lut.mlut_query


def _ml_lut_pipeline(function: FunctionId, cfg: EvaluatorConfig):
    tables = _lut_tables_for(function, cfg)
    query = _lut_query_fn(cfg)
    mem = sum(lut.lut_memory_bytes(t) for t in tables.values())

    if function in (FunctionId.SIN, FunctionId.COS):
        t = tables["main"]

        def pipeline(x):
            return query(t, reduce_2pi_array(x))
    elif function is FunctionId.TAN:
        ts, tc = tables["sin"], tables["cos"]

        def pipeline(x):
            r = reduce_2pi_array(x)
            return tan_extend(query(ts, r), query(tc, r))
    elif function in (FunctionId.EXP, FunctionId.LOG, FunctionId.SQRT):
        t = tables["main"]
        via = {FunctionId.EXP: exp_via, FunctionId.LOG: log_via,
               FunctionId.SQRT: sqrt_via}[function]

        def pipeline(x):
            return via(lambda r: query(t, r), x)
    else:  # pragma: no cover - guarded by supported()
        raise UnsupportedCombinationError(function.value)
    return pipeline, mem


def _d_family_pipeline(function: FunctionId, cfg: EvaluatorConfig):
    dl = cfg.method is MethodId.DLLUT_INTERP
    if function is FunctionId.SIN:
        host = math.sin
    elif function is FunctionId.TANH:
        host = math.tanh
    else:
        host = gelu_exact

    if dl:
        table = lut.build_dllut(host, cfg.exp_bits, cfg.mant_bits,
                                cfg.dl_base_exponent, cfg.hi_exponent,
                                function.value)
        query = lambda x: lut.dllut_query_interp(table, x)
        tiny = 0.0  # covered down to zero by the L part
    else:
        table = lut.build_dlut(host, cfg.exp_bits, cfg.mant_bits,
                               cfg.base_exponent, cfg.hi_exponent, True,
                               function.value)
        query = lambda x: lut.dlut_query_interp(table, x)
        tiny = math.ldexp(1.0, cfg.base_exponent)
    mem = lut.lut_memory_bytes(table)

    def as_is(x):  # sin(x) ~= tanh(x) ~= x below table resolution
        return x.astype(np.float32)

    if function is FunctionId.SIN:
        def pipeline(x):
            r = reduce_2pi_array(np.abs(x))
            v = piecewise(r < tiny, r, as_is, query)
            return np.where(x < 0, -v, v)
    elif function is FunctionId.TANH:
        def reflected(x):
            v = query(np.abs(x))
            return np.where(x < 0, -v, v)

        def pipeline(x):
            return piecewise(np.abs(x) < tiny, x, as_is, reflected)
    else:  # GELU: gelu(x) = gelu(-x) + x for x < 0
        def halved(x):  # gelu(x) ~= x/2 near zero
            return ldexp32(x.astype(np.float32), -1)

        def pipeline(x):
            neg = ~(x >= 0)
            tally("float_add", int(np.count_nonzero(neg)))
            ax = np.where(neg, -x, x)
            v = piecewise(ax < tiny, ax, halved, query)
            v[neg] += x[neg].astype(np.float32)
            return v
    return pipeline, mem


def _cordic_pipeline(function: FunctionId, cfg: EvaluatorConfig):
    """A CORDIC or CORDIC+LUT cell: ``cordic.<function>_array`` driven by
    the method's rotator.  log and sqrt vector on plain hyperbolic tables
    instead; they have no CORDIC+LUT form.
    """
    pipeline = getattr(cordic, f"{function.value}_array")
    mode = (cordic.CordicMode.CIRCULAR
            if function in (FunctionId.SIN, FunctionId.COS, FunctionId.TAN)
            else cordic.CordicMode.HYPERBOLIC)
    if cfg.method is MethodId.CORDIC_LUT:
        start = combined.build_cordic_lut(mode, cfg.lut_addr_bits, cfg.n_iter)
        return (partial(pipeline, combined.rotator(start)),
                combined.cordic_lut_memory_bytes(start))
    tables = cordic.generate_cordic_tables(mode, cfg.n_iter)
    rotate = lambda theta: cordic.cordic_rotate(tables, theta)
    vectoring = function in (FunctionId.LOG, FunctionId.SQRT)
    return (partial(pipeline, tables if vectoring else rotate),
            (len(tables.angles) + 1) * 4)


def build_evaluator(function: FunctionId, config: EvaluatorConfig) -> Evaluator:
    if not supported(function, config.method, config.number_format):
        raise UnsupportedCombinationError(
            f"{function.value} is not available via {config.method.value} "
            f"in {config.number_format.value} format")
    t0 = time.perf_counter()
    with counting() as c:
        if config.method in (MethodId.MLUT, MethodId.MLUT_INTERP,
                             MethodId.LLUT, MethodId.LLUT_INTERP):
            pipeline, mem = _ml_lut_pipeline(function, config)
        elif config.method in (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP):
            pipeline, mem = _d_family_pipeline(function, config)
        else:
            pipeline, mem = _cordic_pipeline(function, config)
    setup = SetupReport(wall_seconds=time.perf_counter() - t0, bytes=mem,
                        table_entries=c.table_setup_entries)
    return Evaluator(function, config, pipeline, setup)
