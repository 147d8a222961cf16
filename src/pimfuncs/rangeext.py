"""Input-range reduction and result extension around the core kernels.

Each step maps float64 (or raw Q3.28 int64) arrays elementwise, for LUT
and CORDIC pipelines alike.  Reductions run in double precision, and each
op is tallied once per element that takes it, at single-precision-op
weight; comparisons are not tallied.  A kernel runs between a reduction
and the extension that undoes it: ``reduce_2pi`` then
``quadrant_reduce``/``quadrant_adjust`` for sin/cos/tan,
``exp_split``/``exp_extend``, ``split_float``/``log_extend``,
``sqrt_reduce``/``sqrt_extend``, and ``reflect_odd`` for odd functions.
"""

from __future__ import annotations

import math

import numpy as np

from .costmodel import tally
from .errors import DomainError, refuse
from .fixedpoint import ldexp32, split_float, to_fixed

TWO_PI = 2.0 * math.pi
HALF_PI_RAW = int(to_fixed(math.pi / 2.0))
LOG2_E = math.log2(math.e)
LN_2 = math.log(2.0)


def piecewise(mask: np.ndarray, x: np.ndarray, on_true, on_false) -> np.ndarray:
    """float32 ``on_true(x)`` where ``mask`` holds, ``on_false(x)`` elsewhere.

    Each branch sees only its own elements, and runs only if it has any,
    so its checks and tallies cover exactly those elements.  Branches
    return a fresh float32 array of one result per element.
    """
    taken = np.count_nonzero(mask)
    if taken == mask.size:
        return on_true(x)
    if taken == 0:
        return on_false(x)
    out = np.empty(x.shape, dtype=np.float32)
    out[mask] = on_true(x[mask])
    out[~mask] = on_false(x[~mask])
    return out


def reduce_2pi(x: np.ndarray) -> np.ndarray:
    """Map finite inputs into [0, 2*pi) in double precision; only
    |x| >= 2*pi takes, and tallies, the remainder, as fmod is exact and
    returns a smaller x as is.  Negative results fold up by one add each.
    Accuracy degrades for |x| beyond ~2**40 (no Payne-Hanek machinery).
    """
    far = x[~(np.abs(x) < TWO_PI)]  # NaN and +-inf included
    r = x
    if far.size:
        refuse(~np.isfinite(far), far, DomainError,
               "reduce_2pi requires finite input, got {}")
        tally("float_mul", far.size)
        tally("float_add", far.size)
        r = np.fmod(x, TWO_PI)  # exact, so |r| < 2*pi, and x where |x| < 2*pi
    neg = r < 0.0
    folds = int(np.count_nonzero(neg))
    tally("float_add", folds)
    if folds:
        r = np.where(neg, r + TWO_PI, r)
        r = np.where(r >= TWO_PI, r - TWO_PI, r)  # the fold can round to 2*pi
    return r


def quadrant_reduce(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold raw Q3.28 angles in [0, 2*pi) into [0, pi/2]: (r, q) with
    raw = r + q * pi/2 and the quadrant q in 0..3."""
    q = np.minimum(raw // HALF_PI_RAW, 3)
    tally("int_add", int(q.sum()))  # one fixed subtract per quadrant folded
    return raw - q * HALF_PI_RAW, q


def quadrant_adjust(cos_r: np.ndarray, sin_r: np.ndarray,
                    q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undo :func:`quadrant_reduce`: (sin, cos) of r + q * pi/2."""
    # sin(r + k*pi/2) for k = 0..3; cos(r + q*pi/2) = sin(r + (q+1)*pi/2)
    turns = (sin_r, cos_r, -sin_r, -cos_r)
    return np.choose(q, turns), np.choose((q + 1) % 4, turns)


def tan_extend(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tan = sin / cos as an IEEE float32 quotient: +-inf with the sign of
    s / c where the cosine is +-0."""
    tally("float_div", s.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return s / c


def reflect_odd(x: np.ndarray, kernel) -> np.ndarray:
    """An odd function from its kernel on x >= 0: ``kernel(|x|)``,
    negated where x < 0."""
    v = kernel(np.abs(x))
    return np.where(x < 0, -v, v)


def exp_split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, r) with x * log2(e) = i + r and r in [0, 1), i as float64."""
    tally("float_mul", x.size)
    tally("float_add", x.size)
    t = x * LOG2_E
    i = np.floor(t)
    refuse(~np.isfinite(i), x, DomainError, "exp requires finite input, got {}")
    return i, t - i


def exp_extend(frac_result, int_pow2) -> np.ndarray:
    """2**r * 2**i from the kernel's 2**r and the split's i."""
    return ldexp32(frac_result, int_pow2)


def exp_via(kernel, x: np.ndarray) -> np.ndarray:
    """exp(x) = 2**r * 2**i, where ``kernel`` gives 2**r on [0, 1) for
    the split of :func:`exp_split`."""
    i, r = exp_split(x)
    return exp_extend(kernel(r), i)


def log_extend(e: np.ndarray, log_m: np.ndarray) -> np.ndarray:
    """log(x) = ln(2) * e + log(m) for x = m * 2**e, fused in double."""
    tally("float_mul", e.size)
    tally("float_add", e.size)
    return (LN_2 * e + log_m.astype(np.float64)).astype(np.float32)


def log_via(kernel, x: np.ndarray) -> np.ndarray:
    """log(x) for x = m * 2**e, where ``kernel`` gives log(m) on [1, 2)."""
    e, m = split_float(x)
    return log_extend(e, kernel(m))


def sqrt_reduce(e: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold odd exponents by halving the mantissa: (m, even_e) with m in
    [0.5, 2), so the kernel result extends by an exact shift."""
    odd = (e & 1).astype(bool)
    tally("int_shift", int(np.count_nonzero(odd)))
    return np.where(odd, m * 0.5, m), e + odd


def sqrt_extend(k: np.ndarray, even_e: np.ndarray) -> np.ndarray:
    """sqrt(m) * 2**(e/2) from the kernel's sqrt(m) and an even e."""
    return ldexp32(k, even_e // 2)


def sqrt_via(kernel, x: np.ndarray) -> np.ndarray:
    """sqrt(x) = sqrt(m) * 2**(e/2) with e even, where ``kernel`` gives
    sqrt(m) on [0.5, 2).  sqrt(+-0) is +0.
    """
    def nonzero(v):
        m, even_e = sqrt_reduce(*split_float(v))
        return sqrt_extend(kernel(m), even_e)

    return piecewise(x == 0.0, x, lambda v: np.zeros(v.shape, dtype=np.float32),
                     nonzero)
