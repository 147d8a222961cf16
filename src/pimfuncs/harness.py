"""Accuracy sweeps, workload benchmarks, and CSV reporting.

Everything here is deterministic for a fixed seed: inputs come from a
named seedable generator (numpy PCG64, identified in the CSV metadata),
references are computed in double precision on the exact float32 inputs
the kernels see, and wall-clock fields are excluded from CSV output
unless explicitly requested.

References are array arithmetic around libm: each transcendental step
maps the scalar ``math`` function over the array, element by element
(``lut.mapped``), and the arithmetic between steps is numpy's correctly
rounded ``+ - * /`` and ``sqrt`` on float64, in the scalar formula's
operation order, so every value is bit-identical to a loop over the
elements.  Float32 inputs are cast to float64 before any arithmetic.
No numpy twin enters a reference (a transcendental ufunc, or
``api.erf_twin``): a twin can differ from libm in the last bits, and a
reference's double is compared itself.  The CNDF and GELU tables are
built from twins of the same formulas (``api.CNDF_HOST`` and the GELU
host of ``api._D_CELLS``), which keep a twin value only where a rounding
test proves it has libm's entry and send every other node to
``api.cndf_exact`` or ``gelu_exact``.

``WORKLOADS`` maps the paper's three workloads to their runners and the
variants each accepts (others raise ``UnsupportedCombinationError``); one
driver, ``_measured``, times, counts and scores each runner's formula.
The workload kernels (``_kernel``: each variant's exp, log, sqrt and
CNDF) map a 1-d float64 array to results elementwise; 2-d inputs such
as the softmax rows are raveled first.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, fields
from functools import lru_cache, partial

import numpy as np

from . import lut
from .api import (CNDF_HOST, EvaluatorConfig, FunctionId, MethodId,
                  NumberFormat, _horner, _saturated, build_evaluator,
                  cndf_exact, config_for, gelu_exact, table_kernel)
from .costmodel import OP_FIELDS, SETUP_ENTRY_WEIGHT, OpCounts, counting, tally
from .errors import RangeError, UnsupportedCombinationError
from .rangeext import exp_via, log_via, sqrt_via

RNG_ID = "pcg64"

SWEEP_SAMPLES = 1 << 16

# Default sweep domain per function; tan avoids its poles.
DEFAULT_DOMAINS = {
    FunctionId.SIN: (0.0, 2.0 * math.pi),
    FunctionId.COS: (0.0, 2.0 * math.pi),
    FunctionId.TAN: (-1.5, 1.5),
    FunctionId.SINH: (-4.0, 4.0),
    FunctionId.COSH: (-4.0, 4.0),
    FunctionId.TANH: (-8.0, 8.0),
    FunctionId.EXP: (-8.0, 8.0),
    FunctionId.LOG: (2.0 ** -8, 100.0),
    FunctionId.SQRT: (2.0 ** -8, 1000.0),
    FunctionId.GELU: (-8.0, 8.0),
}

# Function -> its double reference, a function of a float64 array.
_REFERENCE = {
    FunctionId(f.__name__): partial(lut.mapped, f)
    for f in (math.sin, math.cos, math.tan, math.sinh, math.cosh, math.tanh,
              math.exp, math.log)
} | {FunctionId.SQRT: np.sqrt, FunctionId.GELU: gelu_exact}


@dataclass  # its fields in order are its CSV columns (``_rows``)
class AccuracyReport:
    function: str
    method: str
    number_format: str
    size_or_iters: int
    n_samples: int
    seed: int
    rmse: float
    max_abs_err: float
    ulp_err: float
    memory_bytes: int
    op_counts: OpCounts
    setup_seconds: float


@dataclass
class WorkloadResult:
    workload: str
    variant: str
    n_elements: int
    seed: int
    rmse: float
    max_sum_dev: float  # softmax only; 0 elsewhere
    op_counts: OpCounts
    wall_seconds: float


def reference_values(function: FunctionId, xs32: np.ndarray) -> np.ndarray:
    """Double-precision reference evaluated on the exact float32 inputs."""
    return _REFERENCE[function](xs32.astype(np.float64))


def rmse_sweep(function: FunctionId, method: MethodId, sizes_or_iters,
               seed: int = 0, number_format: NumberFormat = NumberFormat.FLOAT,
               n_samples: int = SWEEP_SAMPLES) -> list[AccuracyReport]:
    """Accuracy of one method at each table size or iteration count.

    Draws ``n_samples`` uniform inputs on the domain from ``seed`` and
    casts them to float32. As in the paper's methodology, the reference
    is evaluated in double precision on those same float32 inputs, so the
    errors are the kernel's own and exclude input quantization.
    """
    if n_samples < 1:
        raise RangeError(f"n_samples must be at least 1, got {n_samples}")
    lo, hi = DEFAULT_DOMAINS[function]
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n_samples).astype(np.float32)
    ref = reference_values(function, xs)
    reports = []
    for param in sorted(sizes_or_iters):
        ev = build_evaluator(function, config_for(method, number_format, param))
        out, counts = ev.evaluate_batch(xs)
        err = out.astype(np.float64) - ref
        rmse = float(np.sqrt(np.mean(err * err)))
        max_abs = float(np.max(np.abs(err)))
        spacing = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
        ulp = float(np.max(np.abs(err) / spacing))
        reports.append(AccuracyReport(
            function=function.value, method=method.value,
            number_format=number_format.value, size_or_iters=param,
            n_samples=n_samples, seed=seed, rmse=rmse, max_abs_err=max_abs,
            ulp_err=ulp, op_counts=counts, memory_bytes=ev.setup.bytes,
            setup_seconds=ev.setup.wall_seconds))
    return reports


# ---------------------------------------------------------------------------
# Polynomial baseline (comparison only)
# ---------------------------------------------------------------------------

def _polynomial(coeffs, x) -> np.ndarray:
    """Horner evaluation in float32 of ``coeffs``, highest degree first,
    with its multiplies and adds tallied."""
    ops = (len(coeffs) - 1) * x.size
    tally("float_mul", ops)
    tally("float_add", ops)
    return _horner(coeffs, x.astype(np.float32))


# Function -> (range split, reduced domain, degree, host fitted on it).
_POLY_FITS = {
    "exp": (exp_via, (0.0, 1.0), 6, np.exp2),
    "log": (log_via, (1.0, 2.0), 8, np.log),
    "sqrt": (sqrt_via, (0.5, 2.0), 8, np.sqrt),
}


@lru_cache(maxsize=None)
def _poly_kernel(function: str):
    """The baseline's array kernel of ``function``: a least-squares power
    series, fitted host-side on the reduced domain, inside the range split."""
    via, (lo, hi), degree, host = _POLY_FITS[function]
    xs = np.linspace(lo, hi, 512)
    fit = np.polynomial.Polynomial.fit(xs, host(xs), degree).convert()
    return partial(via, partial(_polynomial,
                                tuple(float(c) for c in fit.coef[::-1])))


# Abramowitz & Stegun 26.2.17 rational approximation of the Gaussian CDF.
_AS_P = 0.2316419
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _reflected(cndf):
    """The CNDF of every x from ``cndf``, a float32 CNDF of x >= 0, by
    CNDF(x) = 1 - CNDF(-x).  The float32 1 - q is exact for q in [0.5, 1]
    (Sterbenz); just below 0.5 it rounds once, as a double's cast does."""
    def reflected(x):
        neg = x < 0.0
        tally("float_add", int(np.count_nonzero(neg)))
        q = cndf(np.where(neg, -x, x))
        return np.where(neg, np.float32(1.0) - q, q)
    return reflected


@_reflected
def _poly_cndf(ax: np.ndarray) -> np.ndarray:
    """The Abramowitz-Stegun CNDF of ax >= 0, in float32."""
    tally("float_mul", 2 * ax.size)
    tally("float_add", ax.size)
    tally("float_div", ax.size)
    k = (1.0 / (1.0 + _AS_P * ax)).astype(np.float32)
    tally("float_mul", 2 * ax.size)
    pdf = (_INV_SQRT_2PI * _poly_kernel("exp")(-0.5 * ax * ax).astype(np.float64)
           ).astype(np.float32)
    # b1 k + ... + b5 k^5 evaluated as k * poly(k)
    poly = _polynomial(_AS_B[::-1] + (0.0,), k)
    tally("float_mul", ax.size)
    tally("float_add", ax.size)
    return np.float32(1.0) - pdf * poly


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# Documented option-parameter ranges (uniform draws).
BS_RANGES = {
    "spot": (5.0, 200.0),
    "strike": (5.0, 200.0),
    "rate": (0.01, 0.05),
    "vol": (0.05, 0.65),
    "expiry": (0.05, 2.0),
}

CNDF_LUT_SIZE = 8192
WORKLOAD_LUT_SIZE = 4096
SOFTMAX_VECTOR_LEN = 1024


def _make_cndf_lut(number_format: NumberFormat):
    """CNDF from an interpolated L-LUT over [0, 8), saturated to 0 or 1
    from the table's end on; float32 results."""
    cfg = config_for(MethodId.LLUT_INTERP, number_format, CNDF_LUT_SIZE)
    table, query = table_kernel(CNDF_HOST, 0.0, 8.0, cfg)
    return partial(_saturated, table.spec.hi, partial(np.less, 0.0),
                   _reflected(query))


# Workload variant -> the config of its kernels (M/L tables of
# WORKLOAD_LUT_SIZE entries); None is the polynomial baseline.  A
# variant's CNDF is an L-LUT in its number format.
_table_config = partial(config_for, size=WORKLOAD_LUT_SIZE)
_VARIANTS = {
    "PolynomialBaseline": None,
    "MLutInterp": _table_config(MethodId.MLUT_INTERP, NumberFormat.FLOAT),
    "LLutInterp": _table_config(MethodId.LLUT_INTERP, NumberFormat.FLOAT),
    "FixedLLutInterp": _table_config(MethodId.LLUT_INTERP, NumberFormat.FIXED),
    "CordicLut": EvaluatorConfig(MethodId.CORDIC_LUT),
}


def _kernel(function: str, variant: str):
    """Array kernel of "exp", "log", "sqrt" or "cndf" in a workload variant."""
    cfg = _VARIANTS[variant]
    if function == "cndf":
        return _poly_cndf if cfg is None else _make_cndf_lut(cfg.number_format)
    if cfg is None:
        return _poly_kernel(function)
    return build_evaluator(FunctionId(function), cfg).pipeline


def _kernels(workload: str, variant: str, n: int, *functions: str) -> tuple:
    """The kernels of ``functions`` in ``variant``, if ``workload`` runs it
    and the count ``n`` of its inputs is at least 1."""
    if n < 1:
        raise RangeError(f"n must be at least 1, got {n}")
    variants = WORKLOADS[workload][1]
    if variant not in variants:
        raise UnsupportedCombinationError(
            f"{workload} has no variant {variant!r}; choose from {variants}")
    return tuple(_kernel(f, variant) for f in functions)


def _measured(workload: str, variant: str, seed: int, formula,
              ref: np.ndarray, scale=1.0) -> WorkloadResult:
    """Time and count ``formula()``, then score its float32 result against
    ``ref``: the RMSE over ``scale``, and for softmax's 2-d result of rows,
    the largest deviation of a row sum from 1."""
    t0 = time.perf_counter()
    with counting() as c:
        out = formula()
    wall = time.perf_counter() - t0
    err = out.astype(np.float64) - ref
    rmse = float(np.sqrt(np.mean(err * err)) / scale)
    max_sum_dev = (float(np.max(np.abs(out.sum(axis=1, dtype=np.float64) - 1.0)))
                   if out.ndim == 2 else 0.0)
    return WorkloadResult(workload=workload.capitalize(), variant=variant,
                          n_elements=out.size, seed=seed, rmse=rmse,
                          max_sum_dev=max_sum_dev, op_counts=c,
                          wall_seconds=wall)


def _bs_reference(spot, strike, rate, vol, expiry) -> np.ndarray:
    """Double-precision closed-form European call prices, elementwise over
    arrays (or of floats)."""
    srt = vol * np.sqrt(expiry)  # IEEE sqrt, as math.sqrt
    d1 = (lut.mapped(math.log, spot / strike)
          + (rate + 0.5 * vol * vol) * expiry) / srt
    d2 = d1 - srt
    return (spot * cndf_exact(d1)
            - strike * lut.mapped(math.exp, -rate * expiry) * cndf_exact(d2))


def _bs_sample(n: int, seed: int) -> tuple:
    """Float32 spot, strike, rate, vol and expiry columns, in that order."""
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(lo, hi, n).astype(np.float32)
                 for lo, hi in BS_RANGES.values())


def run_blackscholes(n: int, method_variant: str, seed: int = 0) -> WorkloadResult:
    exp_f, log_f, sqrt_f, cndf_f = _kernels(
        "blackscholes", method_variant, n, "exp", "log", "sqrt", "cndf")
    s, k, r, v, t = (col.astype(np.float64) for col in _bs_sample(n, seed))

    def price():
        tally("float_div", n)
        ratio = (s / k).astype(np.float32)
        lnsk = log_f(ratio.astype(np.float64)).astype(np.float64)
        srt = sqrt_f(t).astype(np.float64)
        tally("float_mul", 4 * n)
        tally("float_add", 2 * n)
        tally("float_div", n)
        vsrt = (v * srt).astype(np.float32).astype(np.float64)
        d1 = ((lnsk + (r + 0.5 * v * v) * t) / vsrt).astype(np.float32)
        tally("float_add", n)
        d2 = (d1.astype(np.float64) - vsrt).astype(np.float32)
        tally("float_mul", n)
        disc = exp_f(-r * t).astype(np.float64)
        tally("float_mul", 3 * n)
        tally("float_add", n)
        c1 = cndf_f(d1.astype(np.float64)).astype(np.float64)
        c2 = cndf_f(d2.astype(np.float64)).astype(np.float64)
        return (s * c1 - k * disc * c2).astype(np.float32)
    ref = _bs_reference(s, k, r, v, t)
    # Normalized: RMSE of the price error relative to the RMS price level.
    return _measured("blackscholes", method_variant, seed, price, ref,
                     scale=np.sqrt(np.mean(ref * ref)))


def _sigmoid_reference(xs) -> np.ndarray:
    """Double-precision 1 / (1 + exp(-x)), elementwise."""
    return 1.0 / (1.0 + lut.mapped(math.exp, -np.asarray(xs, dtype=np.float64)))


def _softmax_reference(xs) -> np.ndarray:
    """Double-precision max-stabilized softmax of each row."""
    xd = np.asarray(xs, dtype=np.float64)
    ed = lut.mapped(math.exp, xd - xd.max(axis=1, keepdims=True))
    return ed / ed.sum(axis=1, keepdims=True)


def run_sigmoid(n: int, method_variant: str, seed: int = 0) -> WorkloadResult:
    exp_f, = _kernels("sigmoid", method_variant, n, "exp")
    xs = np.random.default_rng(seed).uniform(-8.0, 8.0, n).astype(np.float32)

    def sigmoid():
        e = exp_f(-xs.astype(np.float64))
        tally("float_add", n)
        tally("float_div", n)
        return (1.0 / (1.0 + e.astype(np.float64))).astype(np.float32)
    return _measured("sigmoid", method_variant, seed, sigmoid,
                     _sigmoid_reference(xs))


def run_softmax(n: int, method_variant: str, seed: int = 0) -> WorkloadResult:
    exp_f, = _kernels("softmax", method_variant, n, "exp")
    n_vec, k = max(1, n // SOFTMAX_VECTOR_LEN), SOFTMAX_VECTOR_LEN
    xs = np.random.default_rng(seed).uniform(-8.0, 8.0, (n_vec, k)
                                             ).astype(np.float32)

    def softmax():
        m = xs.max(axis=1, keepdims=True)
        tally("float_add", n_vec * k)  # max-subtraction stabilization
        e = exp_f((xs.astype(np.float64) - m).ravel()).reshape(xs.shape)
        tally("float_add", n_vec * (k - 1))
        tally("float_div", n_vec * k)
        return e / e.sum(axis=1, dtype=np.float32, keepdims=True)
    return _measured("softmax", method_variant, seed, softmax,
                     _softmax_reference(xs))  # of the same float32 inputs


# Workload -> (runner, variants): the paper's three full workloads.
_EXP_VARIANTS = ("PolynomialBaseline", "MLutInterp", "LLutInterp", "CordicLut")
WORKLOADS = {
    "blackscholes": (run_blackscholes, ("PolynomialBaseline", "MLutInterp",
                                        "LLutInterp", "FixedLLutInterp")),
    "sigmoid": (run_sigmoid, _EXP_VARIANTS),
    "softmax": (run_softmax, _EXP_VARIANTS),
}


# ---------------------------------------------------------------------------
# Amortization crossover
# ---------------------------------------------------------------------------

def amortization_crossover(setup_entries_a: int, per_call_cost_a: float,
                           setup_entries_b: int,
                           per_call_cost_b: float) -> float | None:
    """Smallest call count N at which variant B's total cost drops below A's.

    Setup is charged in deterministic setup-entry units
    (``SETUP_ENTRY_WEIGHT`` per generated table entry), not wall-clock.
    Returns None when B never overtakes A.
    """
    setup_gap = (setup_entries_b - setup_entries_a) * SETUP_ENTRY_WEIGHT
    rate_gap = per_call_cost_a - per_call_cost_b
    if rate_gap <= 0.0:
        return None if setup_gap >= 0.0 else 0.0
    return max(0.0, setup_gap / rate_gap)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

# A report field that is not one CSV column -> its columns.
_COLUMNS = {"seed": ("seed", "rng"), "op_counts": OP_FIELDS}


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _rows(reports, include_timing: bool):
    """The CSV columns and rows of reports of one dataclass (an empty list
    is of ``AccuracyReport``): its fields in order, ``rng`` after
    ``seed``, ``op_counts`` spread over OP_FIELDS, and the last field, the
    wall time, only with ``include_timing``."""
    names = [f.name for f in fields(type(reports[0]) if reports
                                    else AccuracyReport)]
    if not include_timing:
        names.pop()
    columns = [c for n in names for c in _COLUMNS.get(n, (n,))]
    values = (vars(r) | r.op_counts.as_dict() | {"rng": RNG_ID} for r in reports)
    return columns, [{c: _fmt(v[c]) for c in columns} for v in values]


def emit_csv(reports, path, include_timing: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(reports, include_timing))


def csv_text(reports, include_timing: bool = False) -> str:
    columns, rows = _rows(list(reports), include_timing)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
