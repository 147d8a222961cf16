"""Accuracy sweeps, workload benchmarks, and CSV reporting.

Everything here is deterministic for a fixed seed: inputs come from a
named seedable generator (numpy PCG64, identified in the CSV metadata),
references are computed in double precision on the exact float32 inputs
the kernels see, and wall-clock fields are excluded from CSV output
unless explicitly requested.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lut
from .api import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                  build_evaluator, gelu_exact)
from .costmodel import OP_FIELDS, SETUP_ENTRY_WEIGHT, OpCounts, counting, tally
from .fixedpoint import to_fixed_array, to_float_array
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

_REFERENCE = {
    FunctionId.SIN: math.sin,
    FunctionId.COS: math.cos,
    FunctionId.TAN: math.tan,
    FunctionId.SINH: math.sinh,
    FunctionId.COSH: math.cosh,
    FunctionId.TANH: math.tanh,
    FunctionId.EXP: math.exp,
    FunctionId.LOG: math.log,
    FunctionId.SQRT: math.sqrt,
    FunctionId.GELU: gelu_exact,
}

_ITER_METHODS = (MethodId.CORDIC, MethodId.CORDIC_LUT)


@dataclass
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
    op_counts: OpCounts
    memory_bytes: int
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
    f = _REFERENCE[function]
    return np.asarray([f(float(v)) for v in xs32], dtype=np.float64)


def _config_for(method: MethodId, number_format: NumberFormat,
                size_or_iters: int) -> EvaluatorConfig:
    if method in _ITER_METHODS:
        return EvaluatorConfig(method=method, number_format=number_format,
                               n_iter=size_or_iters)
    if method in (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP):
        # size maps onto the mantissa field width: 2**mant_bits cells/octave
        return EvaluatorConfig(method=method, number_format=number_format,
                               mant_bits=size_or_iters)
    return EvaluatorConfig(method=method, number_format=number_format,
                           lut_size=size_or_iters)


def rmse_sweep(function: FunctionId, method: MethodId, sizes_or_iters,
               seed: int = 0, number_format: NumberFormat = NumberFormat.FLOAT,
               n_samples: int = SWEEP_SAMPLES,
               domain: tuple | None = None) -> list[AccuracyReport]:
    lo, hi = domain if domain is not None else DEFAULT_DOMAINS[function]
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, n_samples).astype(np.float32)
    ref = reference_values(function, xs)
    reports = []
    for param in sorted(sizes_or_iters):
        ev = build_evaluator(function, _config_for(method, number_format, param))
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

def _on_floats(kernel):
    """Let a kernel over 1-d float64 arrays take a float or any array."""
    def run(x):
        x = np.asarray(x, dtype=np.float64)
        return kernel(x.ravel()).reshape(x.shape)[()]
    return run


def _horner(coeffs, x) -> np.ndarray:
    """Power-series Horner evaluation in float32, every multiply tallied."""
    x32 = x.astype(np.float32)
    acc = np.full(x32.shape, coeffs[-1], dtype=np.float32)
    for c in reversed(coeffs[:-1]):
        tally("float_mul", x32.size)
        tally("float_add", x32.size)
        acc = acc * x32 + np.float32(c)
    return acc


@lru_cache(maxsize=None)
def _fit_poly(name: str) -> tuple:
    """Least-squares polynomial fits on the reduced domains (host-side)."""
    if name == "exp2":
        xs = np.linspace(0.0, 1.0, 512)
        deg, ys = 6, np.exp2(np.linspace(0.0, 1.0, 512))
    elif name == "log":
        xs = np.linspace(1.0, 2.0, 512)
        deg, ys = 8, np.log(np.linspace(1.0, 2.0, 512))
    elif name == "sqrt":
        xs = np.linspace(0.5, 2.0, 512)
        deg, ys = 8, np.sqrt(np.linspace(0.5, 2.0, 512))
    else:
        raise ValueError(name)
    fit = np.polynomial.Polynomial.fit(xs, ys, deg)
    return tuple(float(c) for c in fit.convert().coef)


# Abramowitz & Stegun 26.2.17 rational approximation of the Gaussian CDF.
_AS_P = 0.2316419
_AS_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _poly_exp(x: np.ndarray) -> np.ndarray:
    return exp_via(lambda r: _horner(_fit_poly("exp2"), r), x)


def _poly_cndf(x: np.ndarray) -> np.ndarray:
    """CNDF(x) = 1 - CNDF(-x) for x < 0."""
    neg = x < 0.0
    tally("float_add", int(np.count_nonzero(neg)))
    ax = np.where(neg, -x, x)
    tally("float_mul", 2 * x.size)
    tally("float_add", x.size)
    tally("float_div", x.size)
    k = (1.0 / (1.0 + _AS_P * ax)).astype(np.float32)
    tally("float_mul", 2 * x.size)
    pdf = (_INV_SQRT_2PI * _poly_exp(-0.5 * ax * ax).astype(np.float64)
           ).astype(np.float32)
    # b1 k + ... + b5 k^5 evaluated as k * poly(k)
    poly = _horner((0.0,) + _AS_B, k)
    tally("float_mul", x.size)
    tally("float_add", x.size)
    p = np.float32(1.0) - pdf * poly
    return np.where(neg, (1.0 - p.astype(np.float64)).astype(np.float32), p)


def _poly_log(x: np.ndarray) -> np.ndarray:
    return log_via(lambda m: _horner(_fit_poly("log"), m), x)


def _poly_sqrt(x: np.ndarray) -> np.ndarray:
    return sqrt_via(lambda m: _horner(_fit_poly("sqrt"), m), x)


def polynomial_baseline(function: str, x):
    """Baseline evaluators used only for cost comparison: exp and CNDF."""
    if function == "exp":
        return _on_floats(_poly_exp)(x)
    if function == "cndf":
        return _on_floats(_poly_cndf)(x)
    raise ValueError(f"polynomial baseline covers exp and cndf, not {function}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

BLACKSCHOLES_VARIANTS = ("PolynomialBaseline", "MLutInterp", "LLutInterp",
                         "FixedLLutInterp")
SIGMOID_VARIANTS = ("PolynomialBaseline", "MLutInterp", "LLutInterp",
                    "CordicLut")
SOFTMAX_VARIANTS = SIGMOID_VARIANTS

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


def _cndf_exact(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _make_cndf_lut(fixed: bool):
    """CNDF from an interpolated L-LUT over [0, 8); float64 results."""
    if fixed:
        table = lut.build_fixed_llut(_cndf_exact, 0.0, 8.0, CNDF_LUT_SIZE,
                                     interpolated=True, function_id="cndf")

        def query(x):
            return to_float_array(lut.fixed_llut_query_interp(
                table, to_fixed_array(x)))
    else:
        table = lut.build_llut(_cndf_exact, 0.0, 8.0, CNDF_LUT_SIZE,
                               interpolated=True, function_id="cndf")

        def query(x):
            return lut.llut_query_interp(table, x)

    def cndf(x):
        out = np.where(x >= 8.0, 1.0, 0.0)
        inside = ~((x >= 8.0) | (x <= -8.0))
        xs = x[inside]
        neg = xs < 0.0
        tally("float_add", int(np.count_nonzero(neg)))
        q = query(np.where(neg, -xs, xs)).astype(np.float64)
        out[inside] = np.where(neg, 1.0 - q, q)
        return out
    return _on_floats(cndf)


def _bs_kernels(variant: str):
    """(exp, log, sqrt, cndf) array kernels for a Blackscholes variant."""
    if variant == "PolynomialBaseline":
        return _poly_exp, _poly_log, _poly_sqrt, _poly_cndf
    method = {"MLutInterp": MethodId.MLUT_INTERP,
              "LLutInterp": MethodId.LLUT_INTERP,
              "FixedLLutInterp": MethodId.LLUT_INTERP}[variant]
    fmt = (NumberFormat.FIXED if variant == "FixedLLutInterp"
           else NumberFormat.FLOAT)
    cfg = EvaluatorConfig(method=method, number_format=fmt,
                          lut_size=WORKLOAD_LUT_SIZE)
    ev_exp = build_evaluator(FunctionId.EXP, cfg)
    ev_log = build_evaluator(FunctionId.LOG, cfg)
    ev_sqrt = build_evaluator(FunctionId.SQRT, cfg)
    cndf = _make_cndf_lut(fixed=(fmt is NumberFormat.FIXED))
    return ev_exp.pipeline, ev_log.pipeline, ev_sqrt.pipeline, cndf


def _bs_reference(spot, strike, rate, vol, expiry) -> float:
    """Double-precision closed-form European call price."""
    srt = vol * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) / srt
    d2 = d1 - srt
    return (spot * _cndf_exact(d1)
            - strike * math.exp(-rate * expiry) * _cndf_exact(d2))


def _bs_sample(n: int, seed: int):
    rng = np.random.default_rng(seed)
    cols = {}
    for name in ("spot", "strike", "rate", "vol", "expiry"):
        lo, hi = BS_RANGES[name]
        cols[name] = rng.uniform(lo, hi, n).astype(np.float32)
    return cols


def run_blackscholes(n: int, method_variant: str, seed: int = 0) -> WorkloadResult:
    if method_variant not in BLACKSCHOLES_VARIANTS:
        raise ValueError(f"unknown Blackscholes variant {method_variant}")
    cols = _bs_sample(n, seed)
    exp_f, log_f, sqrt_f, cndf_f = _bs_kernels(method_variant)
    ref = np.asarray([_bs_reference(*(float(cols[k][i]) for k in
                                      ("spot", "strike", "rate", "vol",
                                       "expiry")))
                      for i in range(n)])
    t0 = time.perf_counter()
    with counting() as c:
        s, k, r, v, t = (cols[name].astype(np.float64) for name in
                         ("spot", "strike", "rate", "vol", "expiry"))
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
        out = (s * c1 - k * disc * c2).astype(np.float32)
    wall = time.perf_counter() - t0
    err = out.astype(np.float64) - ref
    # Normalized: RMSE of the price error relative to the RMS price level.
    rmse = float(np.sqrt(np.mean(err * err)) / np.sqrt(np.mean(ref * ref)))
    return WorkloadResult(workload="Blackscholes", variant=method_variant,
                          n_elements=n, seed=seed, rmse=rmse, max_sum_dev=0.0,
                          op_counts=c, wall_seconds=wall)


def _exp_kernel(variant: str):
    if variant == "PolynomialBaseline":
        return _on_floats(_poly_exp)
    method = {"MLutInterp": MethodId.MLUT_INTERP,
              "LLutInterp": MethodId.LLUT_INTERP,
              "CordicLut": MethodId.CORDIC_LUT}[variant]
    cfg = EvaluatorConfig(method=method, lut_size=WORKLOAD_LUT_SIZE)
    return _on_floats(build_evaluator(FunctionId.EXP, cfg).pipeline)


def run_sigmoid(n: int, method_variant: str, seed: int = 0) -> WorkloadResult:
    if method_variant not in SIGMOID_VARIANTS:
        raise ValueError(f"unknown Sigmoid variant {method_variant}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-8.0, 8.0, n).astype(np.float32)
    exp_f = _exp_kernel(method_variant)
    ref = np.asarray([1.0 / (1.0 + math.exp(-float(v))) for v in xs])
    t0 = time.perf_counter()
    with counting() as c:
        e = exp_f(-xs.astype(np.float64))
        tally("float_add", n)
        tally("float_div", n)
        out = (1.0 / (1.0 + e.astype(np.float64))).astype(np.float32)
    wall = time.perf_counter() - t0
    err = out.astype(np.float64) - ref
    rmse = float(np.sqrt(np.mean(err * err)))
    return WorkloadResult(workload="Sigmoid", variant=method_variant,
                          n_elements=n, seed=seed, rmse=rmse, max_sum_dev=0.0,
                          op_counts=c, wall_seconds=wall)


def run_softmax(n: int, method_variant: str, seed: int = 0) -> WorkloadResult:
    if method_variant not in SOFTMAX_VARIANTS:
        raise ValueError(f"unknown Softmax variant {method_variant}")
    k = SOFTMAX_VECTOR_LEN
    n_vec = max(1, n // k)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-8.0, 8.0, (n_vec, k)).astype(np.float32)
    exp_f = _exp_kernel(method_variant)
    # Reference: double softmax of the same float32 inputs.
    xd = xs.astype(np.float64)
    ed = np.exp(xd - xd.max(axis=1, keepdims=True))
    ref = ed / ed.sum(axis=1, keepdims=True)
    out = np.empty_like(xs)
    max_sum_dev = 0.0
    t0 = time.perf_counter()
    with counting() as c:
        m = xs.max(axis=1, keepdims=True)
        tally("float_add", n_vec * k)  # max-subtraction stabilization
        e = exp_f(xs.astype(np.float64) - m)
        tally("float_add", n_vec * (k - 1))
        tally("float_div", n_vec * k)
        for row in range(n_vec):
            out[row] = e[row] / np.sum(e[row], dtype=np.float32)
            max_sum_dev = max(max_sum_dev,
                              abs(float(np.sum(out[row], dtype=np.float64)) - 1.0))
    wall = time.perf_counter() - t0
    err = out.astype(np.float64) - ref
    rmse = float(np.sqrt(np.mean(err * err)))
    return WorkloadResult(workload="Softmax", variant=method_variant,
                          n_elements=n_vec * k, seed=seed, rmse=rmse,
                          max_sum_dev=max_sum_dev, op_counts=c,
                          wall_seconds=wall)


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

_ACC_FIELDS = ("function", "method", "number_format", "size_or_iters",
               "n_samples", "seed", "rng", "rmse", "max_abs_err", "ulp_err",
               "memory_bytes") + OP_FIELDS
_WL_FIELDS = ("workload", "variant", "n_elements", "seed", "rng", "rmse",
              "max_sum_dev") + OP_FIELDS


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _rows(reports, include_timing: bool):
    first = reports[0] if reports else None
    if first is None or isinstance(first, AccuracyReport):
        fields = _ACC_FIELDS + (("setup_seconds",) if include_timing else ())
    else:
        fields = _WL_FIELDS + (("wall_seconds",) if include_timing else ())
    rows = []
    for r in reports:
        row = {}
        for f in fields:
            if f == "rng":
                row[f] = RNG_ID
            elif f in OP_FIELDS:
                row[f] = _fmt(getattr(r.op_counts, f))
            else:
                row[f] = _fmt(getattr(r, f))
        rows.append(row)
    return fields, rows


def emit_csv(reports, path, include_timing: bool = False) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(reports, include_timing))


def csv_text(reports, include_timing: bool = False) -> str:
    fields, rows = _rows(list(reports), include_timing)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
