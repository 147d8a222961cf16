"""Statistics, references and outcome classification used by the benchmark.

Nothing here times anything or touches the library's internals; the
functions are pure so the unit tests can pin them down.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from pimfuncs import FunctionId, PimFuncsError

# A reported percentile must leave at least this many samples above it.
MIN_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank ``q``-quantile; returns ``(value, samples_beyond)``.

    Raises ValueError when fewer than ``min_beyond`` samples lie above the
    rank, so a tail figure is never read off a handful of points.
    """
    xs = sorted(samples)
    n = len(xs)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    rank = max(1, math.ceil(q * n - 1e-9))  # 1-based
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise ValueError(f"p{q * 100:g} of {n} samples leaves {beyond} beyond it; "
                         f"need {min_beyond}")
    return xs[rank - 1], beyond


def geomean(values) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def median(values) -> float:
    return statistics.median(values)


def lower_decile(values) -> float:
    """10th percentile (inclusive method); a single value is its own."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=10, method="inclusive")[0]


def windows(groups, min_size: int) -> list[list]:
    """Merge consecutive groups into windows of at least ``min_size`` items.

    A short remainder joins the last window; too few items make none.
    """
    out, current = [], []
    for group in groups:
        current.extend(group)
        if len(current) >= min_size:
            out.append(current)
            current = []
    if current and out:
        out[-1].extend(current)
    return out


# ---------------------------------------------------------------------------
# Double-precision reference
# ---------------------------------------------------------------------------

_NP_REFERENCE = {
    FunctionId.SIN: np.sin,
    FunctionId.COS: np.cos,
    FunctionId.TAN: np.tan,
    FunctionId.SINH: np.sinh,
    FunctionId.COSH: np.cosh,
    FunctionId.TANH: np.tanh,
    FunctionId.EXP: np.exp,
    FunctionId.LOG: np.log,
    FunctionId.SQRT: np.sqrt,
}


def _gelu(x: float) -> float:
    if x == -math.inf:
        return -0.0  # x * Phi(x) -> 0 from below
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def reference(function: FunctionId, xs) -> np.ndarray:
    """f(xs) in double precision over the whole float line.

    Overflow gives +-inf, log(0) gives -inf, and inputs outside the
    mathematical domain (sin(inf), log(-1), NaN) give NaN.
    """
    x = np.asarray(xs, dtype=np.float64)
    if function is FunctionId.GELU:
        return np.array([_gelu(v) for v in x.ravel().tolist()]).reshape(x.shape)
    with np.errstate(all="ignore"):
        return _NP_REFERENCE[function](x)


def to_f32(v: float) -> float:
    """Round a double to float32, overflowing to +-inf."""
    with np.errstate(over="ignore"):
        return float(np.float32(v))


def mixed_errors(ys, ref64) -> np.ndarray:
    """Error against the reference rounded to float32: absolute below
    magnitude 1, relative above; NaN or inf where either side is not finite.
    """
    with np.errstate(all="ignore"):
        ref = np.asarray(ref64, dtype=np.float64).astype(np.float32).astype(np.float64)
        y = np.asarray(ys, dtype=np.float64)
        return np.abs(y - ref) / np.maximum(1.0, np.abs(ref))


def classify(outcome, ref64: float, tol: float) -> str | None:
    """Return None when an evaluation passes, else the kind of failure.

    ``outcome`` is the library's result or the exception it raised;
    ``ref64`` is the double reference, compared after rounding to float32.
    - any exception that is not a PimFuncsError fails;
    - out of domain (reference NaN): a PimFuncsError or a NaN passes;
    - in domain: any exception, a finite/non-finite mismatch, or a mixed
      error above ``tol`` fails.
    """
    if isinstance(outcome, BaseException):
        name = type(outcome).__name__
        if not isinstance(outcome, PimFuncsError):
            return f"foreign-exception:{name}"
        return None if math.isnan(ref64) else f"exception:{name}"
    y = float(outcome)
    if math.isnan(ref64):
        return None if math.isnan(y) else "expected-nan"
    ref = to_f32(ref64)
    if math.isnan(y):
        return "nan"
    if math.isinf(ref) or math.isinf(y):
        return None if y == ref else "nonfinite-mismatch"
    return "inaccurate" if mixed_errors(y, ref64) > tol else None
