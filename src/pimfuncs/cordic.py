"""CORDIC rotation/vectoring kernels in Q3.28 and per-function pipelines.

One iteration loop over int64 arrays of raw Q3.28 values uses only
shifts, adds, and angle-table lookups.  Gain is pre-compensated by
starting from (inv_gain, 0) in rotation mode; in vectoring mode a single
fixed multiply outside the loop compensates it.  The kernels take and
return such arrays; a result outside Q3.28 raises FixedOverflowError.

The pipelines map float64 arrays to float32 results elementwise;
:func:`sin_cos` (a pair) and :func:`sinh_cosh` (stacked) give two
results per element, for callers to pick from or divide (tan).  Most
take a rotator, ``rotate(raw_angles) -> (x_raw, y_raw)``: plain CORDIC
(:func:`cordic_rotate` on its tables) or the CORDIC+LUT start table
(``combined.cordic_lut_rotate`` on its tables), and each call it once
per array, on non-negative angles: an odd result takes x's sign after.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .costmodel import tally
from .errors import (DomainError, RangeError, UnsupportedCombinationError,
                     integral, refuse)
from .fixedpoint import (SCALE, check_raw, fixed_add, fixed_mul, fixed_sub,
                         ldexp32, to_fixed, to_float)
from .rangeext import (LN_2, exp_extend, exp_split, exp_via, log_via,
                       quadrant_adjust, quadrant_reduce, reduce_2pi, sqrt_via)


class CordicMode(Enum):
    CIRCULAR = "circular"
    HYPERBOLIC = "hyperbolic"


HYPERBOLIC_REPEATS = (4, 13)  # the standard schedule, up to 30 iterations

# One row per mode, as in Walther's unified CORDIC: the angle of iteration
# i as a function of 2**-i; the m of its scale factor sqrt(1 + m 2**-2i);
# the largest n_iter and the first index; the indices performed twice for
# convergence; and the libm (x, y) of a rotation of (1, 0) by an angle,
# which the CORDIC+LUT start table tabulates.
_Mode = namedtuple("_Mode", "angle m max_iter first repeats rotation")
MODES = {
    CordicMode.CIRCULAR: _Mode(math.atan, 1.0, 32, 0, (), (math.cos, math.sin)),
    CordicMode.HYPERBOLIC: _Mode(math.atanh, -1.0, 30, 1, HYPERBOLIC_REPEATS,
                                 (math.cosh, math.sinh)),
}


def mode_row(mode: CordicMode) -> _Mode:
    """``mode``'s MODES row; UnsupportedCombinationError for a non-member."""
    if not isinstance(mode, CordicMode):
        raise UnsupportedCombinationError(f"no CORDIC mode {mode!r}")
    return MODES[mode]


# Largest |x| routed to the direct hyperbolic rotation; beyond this the
# exp-based identities take over.
HYP_DIRECT_MAX = 1.1


@dataclass(frozen=True)
class CordicTables:
    mode: CordicMode
    n_iter: int
    gain: float  # product of the performed iterations' scale factors
    inv_gain: int  # raw Q3.28 1 / gain
    schedule: tuple  # performed iteration indices in order, repeats included
    phi_raw: tuple  # raw Q3.28 angle per performed iteration
    max_angle: float  # convergence bound: sum of performed angles


def generate_cordic_tables(mode: CordicMode, n_iter: int,
                           first_index: int | None = None) -> CordicTables:
    """Precompute the angle table and combined inverse gain.

    ``first_index`` supports the CORDIC+LUT hybrid, which starts at a later
    iteration; plain callers leave it at the mode default, and an index
    below that clamps to it.  An index above 63 is refused: an int64 raw
    shifted by 63 or more is 0 or -1, whatever its value.
    """
    row = mode_row(mode)
    integral("n_iter", n_iter)
    if not (1 <= n_iter <= row.max_iter):
        raise RangeError(f"{mode.value} n_iter {n_iter} outside "
                         f"[1, {row.max_iter}]")
    start = row.first
    if first_index is not None:
        start = max(start, integral("first_index", first_index))
        if start > 63:
            raise RangeError("first_index must be at most 63")
    # Each index once, or twice if it repeats, up to n_iter iterations.
    schedule = [i for i in range(start, start + n_iter)
                for _ in range(1 + (i in row.repeats))][:n_iter]
    angles = {i: row.angle(2.0 ** -i) for i in schedule}

    gain = 1.0
    max_angle = 0.0
    for i in schedule:
        max_angle += angles[i]
        gain *= math.sqrt(1.0 + row.m * 2.0 ** (-2 * i))
    tally("table_setup_entries", len(angles) + 1)
    # One conversion for the whole table; tolist() gives Python ints.
    *raws, inv_gain = to_fixed([*angles.values(), 1.0 / gain]).tolist()
    by_index = dict(zip(angles, raws))
    return CordicTables(mode=mode, n_iter=len(schedule), gain=gain,
                        inv_gain=inv_gain, schedule=tuple(schedule),
                        phi_raw=tuple(by_index[i] for i in schedule),
                        max_angle=max_angle)


def _angle_bytes(tables: CordicTables) -> int:
    """Modelled device memory of the angle table: one word per distinct
    angle, and one for the inverse gain."""
    return (len(set(tables.schedule)) + 1) * 4


def _iterate(tables: CordicTables, x: np.ndarray, y: np.ndarray, t: np.ndarray,
             vectoring: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The iteration loop over int64 arrays; multiplication-free by
    construction (``d * v`` with d = +-1 stands for an add or a subtract).

    Rotation steers by the sign of the residual angle t (+1 at t = 0),
    vectoring by the sign of y (-1 at y = 0), which it drives to 0 while
    t accumulates the angle.  ``v >> 63 | 1`` is -1 for v < 0, else +1.
    """
    hyper = tables.mode is CordicMode.HYPERBOLIC
    tally("int_shift", 2 * x.size * len(tables.schedule))
    tally("int_add", 3 * x.size * len(tables.schedule))
    for i, phi in zip(tables.schedule, tables.phi_raw):
        d = ~(y >> 63) | 1 if vectoring else (t >> 63) | 1
        ys = d * (y >> i)
        x, y, t = (x + ys if hyper else x - ys), y + d * (x >> i), t - d * phi
    return x, y, t


def cordic_rotate(tables: CordicTables, theta: np.ndarray):
    """Rotation mode: circular yields (cos theta, sin theta).

    ``theta`` is an int64 array of raw Q3.28 angles; so are the results,
    which must stay inside Q3.28.
    """
    angle = theta / SCALE
    refuse(np.abs(angle) > tables.max_angle * 1.0005, angle, RangeError,
           "theta {:.6f} outside convergence range +-{:.4f}", tables.max_angle)
    x, y, _ = _iterate(tables, np.full(theta.shape, tables.inv_gain),
                       np.zeros_like(theta), theta)
    return check_raw(x), check_raw(y)


def cordic_vector(tables: CordicTables, x0: np.ndarray, y0: np.ndarray):
    """Vectoring mode: drives y to 0, accumulating the rotation angle.

    Hyperbolic mode returns (gain * sqrt(x0^2 - y0^2), atanh(y0/x0)).
    Takes and returns int64 raw arrays, as :func:`cordic_rotate`.
    """
    refuse(x0 <= 0, x0, DomainError, "vectoring requires x0 > 0, got raw {}")
    ratio = np.abs(y0) / x0
    limit = math.tanh(tables.max_angle) if tables.mode is CordicMode.HYPERBOLIC \
        else math.tan(min(tables.max_angle, 1.55))
    refuse(ratio > limit * 1.0005, ratio, RangeError,
           "atanh/atan({:.4f}) outside convergence range")
    x, _, t = _iterate(tables, x0, y0, np.zeros_like(x0), vectoring=True)
    return check_raw(x), check_raw(t)


# ---------------------------------------------------------------------------
# Function pipelines
# ---------------------------------------------------------------------------

def sin_cos(rotate, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce |x| to [0, 2*pi), fold into [0, pi/2], rotate, unfold;
    returns (sin x, cos x)."""
    r, q = quadrant_reduce(to_fixed(reduce_2pi(np.abs(x))))
    xc, yc = rotate(r)
    s, c = quadrant_adjust(to_float(xc), to_float(yc), q)
    return np.where(x < 0, -s, s), c


def _pow2_angles(r: np.ndarray) -> np.ndarray:
    """Raw angles r ln 2 of 2**r = cosh(r ln 2) + sinh(r ln 2)."""
    tally("float_mul", r.size)
    return to_fixed(r * LN_2)


def exp_array(rotate, x: np.ndarray) -> np.ndarray:
    """exp via exponent splitting and a hyperbolic rotation on [0, ln 2)."""
    return exp_via(lambda r: to_float(fixed_add(*rotate(_pow2_angles(r)))), x)


def sinh_cosh(rotate, x: np.ndarray) -> np.ndarray:
    """Stacked (sinh, cosh) from one hyperbolic rotation per element of
    |x|: of |x| itself where |x| <= HYP_DIRECT_MAX, and elsewhere (NaN
    too) of the angle r ln 2 of the split |x| log2(e) = i + r.  That
    rotation's cosh + sinh is 2**r and its cosh - sinh is 2**-r, which
    extend to exp(|x|)/2 and exp(-|x|)/2, whose difference and sum give
    sinh and cosh.  Every batch rotates once, an empty one too; sinh is
    negated where x < 0, as in :func:`sin_cos`."""
    a = np.abs(x)
    near = a <= HYP_DIRECT_MAX
    k = int(np.count_nonzero(near))
    i, r = exp_split(a[~near])
    xc, yc = rotate(np.concatenate([to_fixed(a[near]), _pow2_angles(r)]))
    xf, yf = xc[k:], yc[k:]
    pm = np.stack([fixed_add(xf, yf), fixed_sub(xf, yf)])  # 2**r, 2**-r
    # Halving before the extension by 2**i and 2**-i keeps exp(|x|)/2
    # finite up to |x| ~ 89.4, where exp(|x|) itself overflows float32.
    hp, hm = exp_extend(ldexp32(to_float(pm), -1), np.stack([i, -i]))
    tally("float_add", 2 * i.size)
    out = np.empty((2,) + x.shape, dtype=np.float32)
    out[:, near] = to_float(np.stack([yc[:k], xc[:k]]))
    out[:, ~near] = np.stack([hp - hm, hp + hm])
    out[0] = np.where(x < 0, -out[0], out[0])
    return out


def tanh_array(rotate, x: np.ndarray) -> np.ndarray:
    """sinh / cosh; +-1 where exp overflowed and both are infinite."""
    s, c = sinh_cosh(rotate, x)
    tally("float_div", x.size)
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(c), np.sign(s), s / c)


def log_array(tables: CordicTables, x: np.ndarray) -> np.ndarray:
    """ln(m) = 2 * atanh((m - 1) / (m + 1)) on the mantissa, then extend."""
    def ln_mantissa(m):
        _, theta = cordic_vector(tables, to_fixed(m + 1.0), to_fixed(m - 1.0))
        tally("ldexp_op", theta.size)  # |theta| < 8, so 2 * theta is finite
        return np.ldexp(to_float(theta), 1)
    return log_via(ln_mantissa, x)


def sqrt_array(tables: CordicTables, x: np.ndarray) -> np.ndarray:
    """sqrt(m) = sqrt((m + 1/4)^2 - (m - 1/4)^2) via hyperbolic vectoring."""
    def sqrt_mantissa(m):
        xr, _ = cordic_vector(tables, to_fixed(m + 0.25), to_fixed(m - 0.25))
        return to_float(fixed_mul(xr, tables.inv_gain))  # gain compensation
    return sqrt_via(sqrt_mantissa, x)

