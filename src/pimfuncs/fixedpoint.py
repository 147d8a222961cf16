"""Q3.28 fixed-point arithmetic and bit-level float helpers.

The fixed format is a signed 32-bit integer interpreted as raw / 2**28,
covering [-8, 8 - 2**-28].  It has one form: int64 numpy arrays of raws
(plain ints for constants).  :func:`to_fixed` and :func:`to_float`
convert elementwise, and each op works elementwise and tallies once per
element.  Overflow raises instead of saturating: the CORDIC kernels
rely on exact shift/add arithmetic, and silent saturation would corrupt
convergence invisibly.
"""

from __future__ import annotations

import numpy as np

from .costmodel import tally
from .errors import DomainError, FixedOverflowError, RangeError, refuse

FRAC_BITS = 28
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1


def to_fixed(x) -> np.ndarray:
    """Round-to-nearest-even raws, int64, of a float or an array cast to
    float64; every element must satisfy |x| < 8.  A float gives a 0-d
    result."""
    x = np.asarray(x, dtype=np.float64)
    refuse(~(np.abs(x) < 8.0), x, RangeError, "{} outside Q3.28 range (-8, 8)")
    # x * 2**28 is exact for doubles in range, so rint is a true RNE.
    raw = np.rint(x * SCALE).astype(np.int64)
    refuse(raw > RAW_MAX, x, RangeError, "{} rounds outside Q3.28 range")
    return raw


def to_float(raw) -> np.ndarray:
    """Exact raw / 2**28, rounded to the nearest single-precision float."""
    return (np.asarray(raw) / SCALE).astype(np.float32)


def check_raw(raw: np.ndarray) -> np.ndarray:
    """``raw`` itself, once every element is inside signed 32 bits."""
    refuse((raw < RAW_MIN) | (raw > RAW_MAX), raw, FixedOverflowError,
           "fixed-point overflow: raw {}")
    return raw


def fixed_add(a, b) -> np.ndarray:
    c = np.add(a, b)
    tally("int_add", np.size(c))
    return check_raw(c)


def fixed_sub(a, b) -> np.ndarray:
    c = np.subtract(a, b)
    tally("int_add", np.size(c))
    return check_raw(c)


def fixed_shift(a, i: int) -> np.ndarray:
    """Arithmetic right shift: a * 2**-i truncated toward -inf."""
    if not (0 <= i <= 31):
        raise RangeError(f"shift amount {i} outside [0, 31]")
    tally("int_shift", np.size(a))
    return np.right_shift(a, i)


def fixed_mul(a, b) -> np.ndarray:
    """(raw_a * raw_b) / 2**28 through a 64-bit intermediate, truncated."""
    c = np.multiply(a, b) >> FRAC_BITS
    tally("int_mul", np.size(c))
    return check_raw(c)


def split_float(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, mantissas in [1, 2)) with x = mantissa * 2**exponent,
    elementwise over positive finite values."""
    refuse(~((x > 0.0) & np.isfinite(x)), x, DomainError,
           "split_float requires positive finite input, got {}")
    m, e = np.frexp(x)
    return e - 1, 2.0 * m


# Any finite non-zero float32 over- or underflows when scaled by 2**400,
# so clipping the exponent there changes no result.
_LDEXP_CLIP = 400


def ldexp32(arg, exp):
    """Float32 ``arg * 2**exp``, elementwise over an array or a numpy scalar.

    Rounds to nearest even, overflows to +-inf without a warning and
    underflows gradually through the subnormals; IEEE special values
    propagate unchanged.  ``exp`` may be any integer-valued scalar or
    array, however large.  A scalar ``arg`` gives a ``np.float32``.
    """
    x = np.asarray(arg, dtype=np.float32)
    tally("ldexp_op", x.size)
    if isinstance(exp, int):
        if exp <= 0:  # cannot overflow, so skip errstate's microseconds
            return np.ldexp(x, max(exp, -_LDEXP_CLIP))
        exp = min(exp, _LDEXP_CLIP)
    else:  # an int64 exponent takes np.ldexp's slow non-SIMD loop
        exp = np.minimum(np.maximum(exp, -_LDEXP_CLIP),
                         _LDEXP_CLIP).astype(np.int32)
    with np.errstate(over="ignore"):
        return np.ldexp(x, exp)
