"""Input-range reduction and result extension around the core kernels.

Reductions run in double precision at the call boundary; their operation
cost is still tallied at single-precision-op weight.  The array forms at
the end apply the same steps elementwise to float64 arrays for every
pipeline, LUT and CORDIC alike, tallying each op once per element.  The
scalar forms state each step for one value; the library itself no longer
calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmodel import tally
from .errors import DomainError
from .fixedpoint import (FixedQ3_28, FloatParts, fixed_sub, ldexp32,
                         split_float_array, to_fixed)

TWO_PI = 2.0 * math.pi
HALF_PI_FIXED = to_fixed(math.pi / 2.0)
LOG2_E = math.log2(math.e)
LN_2 = math.log(2.0)


def reduce_2pi(x: float) -> float:
    """Map a finite input into [0, 2*pi) in double precision.

    Accuracy degrades for |x| beyond ~2**40 (no Payne-Hanek machinery).
    """
    if not math.isfinite(x):
        raise DomainError(f"reduce_2pi requires finite input, got {x}")
    tally("float_mul")
    tally("float_add")
    r = math.fmod(x, TWO_PI)
    if r < 0.0:
        r += TWO_PI
        tally("float_add")
    if r >= TWO_PI:  # fmod can return 2*pi after the negative fold
        r -= TWO_PI
    return r


@dataclass(frozen=True)
class ReducedAngle:
    angle: FixedQ3_28  # in [0, pi/2] up to rounding of the fold constants
    quadrant: int  # 0..3


def quadrant_reduce(theta: FixedQ3_28) -> ReducedAngle:
    """Fold an angle in [0, 2*pi) into [0, pi/2], saving the quadrant."""
    q = 0
    r = theta
    while q < 3 and r.raw >= HALF_PI_FIXED.raw:
        r = fixed_sub(r, HALF_PI_FIXED)
        q += 1
    return ReducedAngle(angle=r, quadrant=q)


def quadrant_adjust(cos_r: np.float32, sin_r: np.float32, reduced: ReducedAngle,
                    which: str) -> np.float32:
    """Undo the quadrant fold for sin or cos of the original angle."""
    q = reduced.quadrant
    if which == "sin":
        value = (sin_r, cos_r, -sin_r, -cos_r)[q]
    elif which == "cos":
        value = (cos_r, -sin_r, -cos_r, sin_r)[q]
    else:
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    return np.float32(value)


def log_extend(parts: FloatParts, log_mantissa) -> np.float32:
    """log(x) = log(2) * exponent + log(mantissa), fused in double."""
    tally("float_mul")
    tally("float_add")
    return np.float32(LN_2 * parts.exponent + float(log_mantissa))


def exp_split(x: float) -> tuple[int, float]:
    """Split x * log2(e) = i + r with r in [0, 1)."""
    tally("float_mul")
    tally("float_add")
    t = float(x) * LOG2_E
    if not math.isfinite(t):
        raise DomainError(f"exp requires finite input, got {x}")
    i = math.floor(t)
    return int(i), t - i


def exp_extend(frac_result, int_pow2: int) -> np.float32:
    return ldexp32(frac_result, int_pow2)


def sqrt_reduce(parts: FloatParts) -> tuple[float, int]:
    """Fold an odd exponent by halving the mantissa; returns (m, even_exp).

    m lands in [0.5, 2) and even_exp is always even, so the kernel result
    extends by an exact power-of-two shift.
    """
    m, e = parts.mantissa, parts.exponent
    if e & 1:
        m *= 0.5  # exact
        e += 1
        tally("int_shift")
    return m, e


def sqrt_extend(sqrt_mantissa, even_exp: int) -> np.float32:
    if even_exp & 1:
        raise ValueError("sqrt_extend requires an even exponent")
    return ldexp32(sqrt_mantissa, even_exp // 2)


def reflect_odd(x: float, kernel, gelu: bool = False) -> np.float32:
    """Evaluate a kernel defined for x >= 0 on the full line.

    Odd functions use f(-x) = -f(x); GELU uses gelu(x) = gelu(-x) + x
    for negative inputs (since gelu(x) - gelu(-x) = x).
    """
    if x >= 0:
        return np.float32(kernel(x))
    tally("float_add")
    if gelu:
        return np.float32(np.float32(kernel(-x)) + np.float32(x))
    return np.float32(-np.float32(kernel(-x)))


# ---------------------------------------------------------------------------
# Array forms
# ---------------------------------------------------------------------------

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


def reduce_2pi_array(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`reduce_2pi`."""
    bad = ~np.isfinite(x)
    if np.count_nonzero(bad):
        raise DomainError("reduce_2pi requires finite input, "
                          f"got {float(x[bad][0])}")
    tally("float_mul", x.size)
    tally("float_add", x.size)
    r = np.fmod(x, TWO_PI)  # exact, so |r| < 2*pi
    neg = r < 0.0
    folds = int(np.count_nonzero(neg))
    tally("float_add", folds)
    if folds:
        r = np.where(neg, r + TWO_PI, r)
        r = np.where(r >= TWO_PI, r - TWO_PI, r)  # the fold can round to 2*pi
    return r


def tan_extend(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """tan = sin / cos as an IEEE float32 quotient: +-inf with the sign of
    s / c where the cosine is +-0."""
    tally("float_div", s.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return s / c


def exp_split_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`exp_split`: (i, r) with x * log2(e) = i + r and
    r in [0, 1), i as float64."""
    tally("float_mul", x.size)
    tally("float_add", x.size)
    t = x * LOG2_E
    i = np.floor(t)
    bad = ~np.isfinite(i)
    if np.count_nonzero(bad):
        raise DomainError(f"exp requires finite input, got {float(x[bad][0])}")
    return i, t - i


def exp_via(kernel, x: np.ndarray) -> np.ndarray:
    """exp(x) = 2**r * 2**i, where ``kernel`` gives 2**r on [0, 1) for
    the split of :func:`exp_split_array`; :func:`exp_extend` scales it."""
    i, r = exp_split_array(x)
    return exp_extend(kernel(r), i)


def log_via(kernel, x: np.ndarray) -> np.ndarray:
    """log(x) = ln(2) * e + log(m) for x = m * 2**e, where ``kernel`` gives
    log(m) on [1, 2); the elementwise :func:`log_extend`.
    """
    e, m = split_float_array(x)
    tally("float_mul", x.size)
    tally("float_add", x.size)
    return (LN_2 * e + kernel(m).astype(np.float64)).astype(np.float32)


def sqrt_via(kernel, x: np.ndarray) -> np.ndarray:
    """sqrt(x) = sqrt(m) * 2**(e/2) with e even, where ``kernel`` gives
    sqrt(m) on [0.5, 2); the elementwise :func:`sqrt_reduce` and
    :func:`sqrt_extend`.  sqrt(+-0) is +0.
    """
    def nonzero(v):
        e, m = split_float_array(v)
        odd = (e & 1).astype(bool)
        tally("int_shift", int(np.count_nonzero(odd)))
        return ldexp32(kernel(np.where(odd, m * 0.5, m)), (e + odd) // 2)

    return piecewise(x == 0.0, x, lambda v: np.zeros(v.shape, dtype=np.float32),
                     nonzero)
