"""CORDIC rotation/vectoring kernels in Q3.28 and per-function pipelines.

One iteration loop over int64 arrays of raw Q3.28 values uses only
shifts, adds, and angle-table lookups.  Gain is pre-compensated by
starting from (inv_gain, 0) in rotation mode; in vectoring mode a single
fixed multiply outside the loop compensates it.

The pipelines map float64 arrays to float32 results elementwise.  Most
take a rotator, ``rotate(raw_angles) -> (x_raw, y_raw)``: plain CORDIC
(:func:`cordic_rotate` on its tables) or the CORDIC+LUT start table
(``combined.rotator``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial, wraps

import numpy as np

from .costmodel import suppressed, tally
from .errors import DomainError, RangeError
from .fixedpoint import (FRAC_BITS, SCALE, FixedQ3_28, check_raw_array,
                         ldexp32, to_fixed, to_fixed_array, to_float_array)
from .rangeext import (HALF_PI_FIXED, LN_2, exp_via, log_via, piecewise,
                       reduce_2pi_array, sqrt_via, tan_extend)


class CordicMode(Enum):
    CIRCULAR = "circular"
    HYPERBOLIC = "hyperbolic"


# Iteration indices repeated for hyperbolic convergence (standard schedule
# for up to 30 performed iterations).
HYPERBOLIC_REPEATS = (4, 13)

# Largest |x| routed to the direct hyperbolic rotation; beyond this the
# exp-based identities take over.
HYP_DIRECT_MAX = 1.1


@dataclass(frozen=True)
class CordicTables:
    mode: CordicMode
    n_iter: int
    angles: tuple  # FixedQ3_28 per distinct iteration index, decreasing
    gain: float  # product of the performed iterations' scale factors
    inv_gain: FixedQ3_28
    repeat_schedule: tuple  # iteration indices performed twice
    schedule: tuple  # performed iteration indices, in order
    phi_raw: tuple  # raw Q3.28 angle per performed iteration
    first_index: int  # iteration index of schedule[0]
    max_angle: float  # convergence bound: sum of performed angles


def _angle(mode: CordicMode, i: int) -> float:
    if mode is CordicMode.CIRCULAR:
        return math.atan(2.0 ** -i)
    return math.atanh(2.0 ** -i)


def _build_schedule(mode: CordicMode, n_iter: int, first_index: int) -> tuple[list, list]:
    schedule: list[int] = []
    repeats: list[int] = []
    i = first_index
    while len(schedule) < n_iter:
        schedule.append(i)
        if mode is CordicMode.HYPERBOLIC and i in HYPERBOLIC_REPEATS and len(schedule) < n_iter:
            schedule.append(i)
            repeats.append(i)
        i += 1
    return schedule, repeats


def generate_cordic_tables(mode: CordicMode, n_iter: int,
                           first_index: int | None = None) -> CordicTables:
    """Precompute the angle table and combined inverse gain.

    ``first_index`` supports the CORDIC+LUT hybrid, which starts at a later
    iteration; plain callers leave it at the mode default.
    """
    if mode is CordicMode.CIRCULAR:
        if not (1 <= n_iter <= 32):
            raise RangeError(f"circular n_iter {n_iter} outside [1, 32]")
        start = 0 if first_index is None else first_index
    else:
        if not (1 <= n_iter <= 30):
            raise RangeError(f"hyperbolic n_iter {n_iter} outside [1, 30]")
        start = 1 if first_index is None else max(1, first_index)

    schedule, repeats = _build_schedule(mode, n_iter, start)
    distinct = sorted(set(schedule))
    angles = tuple(to_fixed(_angle(mode, i)) for i in distinct)

    gain = 1.0
    max_angle = 0.0
    for i in schedule:
        max_angle += _angle(mode, i)
        if mode is CordicMode.CIRCULAR:
            gain *= math.sqrt(1.0 + 2.0 ** (-2 * i))
        else:
            gain *= math.sqrt(1.0 - 2.0 ** (-2 * i))
    inv_gain = to_fixed(1.0 / gain)
    tally("table_setup_entries", len(distinct) + 1)
    by_index = {i: a.raw for i, a in zip(distinct, angles)}
    phi_raw = tuple(by_index[i] for i in schedule)
    return CordicTables(mode=mode, n_iter=len(schedule), angles=angles,
                        gain=gain, inv_gain=inv_gain,
                        repeat_schedule=tuple(repeats),
                        schedule=tuple(schedule), phi_raw=phi_raw,
                        first_index=start, max_angle=max_angle)


@lru_cache(maxsize=None)
def _tables(mode: CordicMode, n_iter: int) -> CordicTables:
    # Cache refills must not perturb whatever op-counting context is
    # active around an evaluation call.
    with suppressed():
        return generate_cordic_tables(mode, n_iter)


def _iterate(tables: CordicTables, x: np.ndarray, y: np.ndarray, t: np.ndarray,
             vectoring: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The iteration loop over int64 arrays; multiplication-free by
    construction (``d * v`` with d = +-1 stands for an add or a subtract).

    Rotation steers by the sign of the residual angle t, vectoring by the
    sign of y, which it drives to 0 while t accumulates the angle.
    """
    hyper = tables.mode is CordicMode.HYPERBOLIC
    tally("int_shift", 2 * x.size * len(tables.schedule))
    tally("int_add", 3 * x.size * len(tables.schedule))
    for i, phi in zip(tables.schedule, tables.phi_raw):
        d = np.where(y < 0, 1, -1) if vectoring else np.where(t >= 0, 1, -1)
        ys = d * (y >> i)
        x, y, t = (x + ys if hyper else x - ys), y + d * (x >> i), t - d * phi
    return x, y, t


def _raw_or_fixed(kernel):
    """Let a kernel over int64 arrays of raw Q3.28 values take FixedQ3_28
    values too, returning results of the kind it was given."""
    @wraps(kernel)
    def call(tables, *args):
        if isinstance(args[0], FixedQ3_28):
            out = kernel(tables, *(np.array([a.raw]) for a in args))
            return tuple(FixedQ3_28(int(v[0])) for v in out)
        raws = (np.asarray(a, dtype=np.int64) for a in args)
        return tuple(check_raw_array(v) for v in kernel(tables, *raws))
    return call


@_raw_or_fixed
def cordic_rotate(tables: CordicTables, theta):
    """Rotation mode: circular yields (cos theta, sin theta).

    ``theta`` is a FixedQ3_28 or an int64 array of raw Q3.28 angles; the
    results come back in the same kind.
    """
    bad = np.abs(theta) / SCALE > tables.max_angle * 1.0005
    if np.count_nonzero(bad):
        raise RangeError(f"theta {theta[bad][0] / SCALE:.6f} outside "
                         f"convergence range +-{tables.max_angle:.4f}")
    x, y, _ = _iterate(tables, np.full(theta.shape, tables.inv_gain.raw),
                       np.zeros_like(theta), theta)
    return x, y


@_raw_or_fixed
def cordic_vector(tables: CordicTables, x0, y0):
    """Vectoring mode: drives y to 0, accumulating the rotation angle.

    Hyperbolic mode returns (gain * sqrt(x0^2 - y0^2), atanh(y0/x0)).
    Takes FixedQ3_28 values or int64 raw arrays, as :func:`cordic_rotate`.
    """
    if np.count_nonzero(x0 <= 0):
        raise DomainError("vectoring requires x0 > 0")
    ratio = np.abs(y0) / x0
    limit = math.tanh(tables.max_angle) if tables.mode is CordicMode.HYPERBOLIC \
        else math.tan(min(tables.max_angle, 1.55))
    bad = ratio > limit * 1.0005
    if np.count_nonzero(bad):
        raise RangeError(f"atanh/atan({ratio[bad][0]:.4f}) outside convergence range")
    x, _, t = _iterate(tables, x0, y0, np.zeros_like(x0), vectoring=True)
    return x, t


# ---------------------------------------------------------------------------
# Function pipelines
# ---------------------------------------------------------------------------

def _sin_cos(rotate, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce |x| to [0, 2*pi), fold into [0, pi/2], rotate, unfold;
    returns (sin x, cos x)."""
    raw = to_fixed_array(reduce_2pi_array(np.abs(x)))
    q = np.minimum(raw // HALF_PI_FIXED.raw, 3)
    tally("int_add", int(q.sum()))  # one fixed subtract per quadrant folded
    xc, yc = rotate(raw - q * HALF_PI_FIXED.raw)
    cos_r, sin_r = to_float_array(xc), to_float_array(yc)
    # sin(r + k*pi/2) for k = 0..3; cos(r + q*pi/2) = sin(r + (q+1)*pi/2)
    turns = (sin_r, cos_r, -sin_r, -cos_r)
    s = np.choose(q, turns)
    return np.where(x < 0, -s, s), np.choose((q + 1) % 4, turns)


def sin_array(rotate, x: np.ndarray) -> np.ndarray:
    return _sin_cos(rotate, x)[0]


def cos_array(rotate, x: np.ndarray) -> np.ndarray:
    return _sin_cos(rotate, x)[1]


def tan_array(rotate, x: np.ndarray) -> np.ndarray:
    return tan_extend(*_sin_cos(rotate, x))


def exp_array(rotate, x: np.ndarray) -> np.ndarray:
    """exp via exponent splitting and a hyperbolic rotation on [0, ln 2)."""
    def pow2(r):  # 2**r = cosh(r ln 2) + sinh(r ln 2)
        tally("float_mul", r.size)
        xc, yc = rotate(to_fixed_array(r * LN_2))
        tally("int_add", r.size)
        return to_float_array(check_raw_array(xc + yc))
    return exp_via(pow2, x)


def _sinh_cosh(rotate, x: np.ndarray) -> np.ndarray:
    """Stacked (sinh, cosh): a direct hyperbolic rotation for
    |x| <= HYP_DIRECT_MAX; beyond it (and for NaN) exp(|x|) and exp(-|x|).
    """
    def direct(v):
        xc, yc = rotate(to_fixed_array(v))
        return to_float_array(np.stack([yc, xc]))

    def via_exp(v):
        ax = np.abs(v)
        ep, em = exp_array(rotate, ax), exp_array(rotate, -ax)
        tally("float_add", 2 * v.size)
        s = ldexp32(ep - em, -1)
        return np.stack([np.where(v < 0, -s, s), ldexp32(ep + em, -1)])
    return piecewise(np.abs(x) <= HYP_DIRECT_MAX, x, direct, via_exp)


def sinh_array(rotate, x: np.ndarray) -> np.ndarray:
    return _sinh_cosh(rotate, x)[0]


def cosh_array(rotate, x: np.ndarray) -> np.ndarray:
    return _sinh_cosh(rotate, x)[1]


def tanh_array(rotate, x: np.ndarray) -> np.ndarray:
    """sinh / cosh; +-1 where exp overflowed and both are infinite."""
    s, c = _sinh_cosh(rotate, x)
    tally("float_div", x.size)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(c), np.sign(s), s / c)


def log_array(tables: CordicTables, x: np.ndarray) -> np.ndarray:
    """ln(m) = 2 * atanh((m - 1) / (m + 1)) on the mantissa, then extend."""
    def ln_mantissa(m):
        _, theta = cordic_vector(tables, to_fixed_array(m + 1.0),
                                 to_fixed_array(m - 1.0))
        return ldexp32(to_float_array(theta), 1)
    return log_via(ln_mantissa, x)


def sqrt_array(tables: CordicTables, x: np.ndarray) -> np.ndarray:
    """sqrt(m) = sqrt((m + 1/4)^2 - (m - 1/4)^2) via hyperbolic vectoring."""
    def sqrt_mantissa(m):
        xr, _ = cordic_vector(tables, to_fixed_array(m + 0.25),
                              to_fixed_array(m - 0.25))
        tally("int_mul", m.size)  # gain compensation
        return to_float_array(check_raw_array(
            (xr * tables.inv_gain.raw) >> FRAC_BITS))
    return sqrt_via(sqrt_mantissa, x)


# ---------------------------------------------------------------------------
# One-element forms at n_iter plain CORDIC iterations
# ---------------------------------------------------------------------------

def _one_element(pipeline, mode: CordicMode, vectoring: bool = False):
    def evaluate(x: float, n_iter: int = 28) -> np.float32:
        tables = _tables(mode, n_iter)
        arg = tables if vectoring else partial(cordic_rotate, tables)
        return pipeline(arg, np.array([float(x)]))[0]
    return evaluate


cordic_sin = _one_element(sin_array, CordicMode.CIRCULAR)
cordic_cos = _one_element(cos_array, CordicMode.CIRCULAR)
cordic_tan = _one_element(tan_array, CordicMode.CIRCULAR)
cordic_sinh = _one_element(sinh_array, CordicMode.HYPERBOLIC)
cordic_cosh = _one_element(cosh_array, CordicMode.HYPERBOLIC)
cordic_tanh = _one_element(tanh_array, CordicMode.HYPERBOLIC)
cordic_exp = _one_element(exp_array, CordicMode.HYPERBOLIC)
cordic_log = _one_element(log_array, CordicMode.HYPERBOLIC, vectoring=True)
cordic_sqrt = _one_element(sqrt_array, CordicMode.HYPERBOLIC, vectoring=True)
