"""Q3.28 fixed-point arithmetic and bit-level float helpers.

The fixed format is a signed 32-bit integer interpreted as raw / 2**28,
covering [-8, 8 - 2**-28].  Overflow raises instead of saturating: the
CORDIC kernels rely on exact shift/add arithmetic, and silent saturation
would corrupt convergence invisibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costmodel import tally
from .errors import DomainError, FixedOverflowError, RangeError

FRAC_BITS = 28
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class FixedQ3_28:
    raw: int

    def __post_init__(self):
        if not (RAW_MIN <= self.raw <= RAW_MAX):
            raise FixedOverflowError(f"raw value {self.raw} outside signed 32-bit range")

    def __float__(self) -> float:
        return self.raw / SCALE


def to_fixed(x) -> FixedQ3_28:
    """Round-to-nearest-even conversion; |x| must be < 8."""
    x = float(x)
    if not math.isfinite(x) or abs(x) >= 8.0:
        raise RangeError(f"{x} outside Q3.28 range (-8, 8)")
    # x * 2**28 is exact for doubles in range, so round() is a true RNE.
    raw = round(x * SCALE)
    if raw > RAW_MAX:
        raise RangeError(f"{x} rounds outside Q3.28 range")
    return FixedQ3_28(raw)


def to_float(f: FixedQ3_28) -> np.float32:
    """Exact raw / 2**28, rounded to the nearest single-precision float."""
    return np.float32(f.raw / SCALE)


def _check_raw(raw: int) -> FixedQ3_28:
    if not (RAW_MIN <= raw <= RAW_MAX):
        raise FixedOverflowError(f"fixed-point overflow: raw {raw}")
    return FixedQ3_28(raw)


def fixed_add(a: FixedQ3_28, b: FixedQ3_28) -> FixedQ3_28:
    tally("int_add")
    return _check_raw(a.raw + b.raw)


def fixed_sub(a: FixedQ3_28, b: FixedQ3_28) -> FixedQ3_28:
    tally("int_add")
    return _check_raw(a.raw - b.raw)


def fixed_shift(a: FixedQ3_28, i: int) -> FixedQ3_28:
    """Arithmetic right shift: a * 2**-i truncated toward -inf."""
    if not (0 <= i <= 31):
        raise RangeError(f"shift amount {i} outside [0, 31]")
    tally("int_shift")
    return FixedQ3_28(a.raw >> i)


def fixed_mul(a: FixedQ3_28, b: FixedQ3_28) -> FixedQ3_28:
    """(raw_a * raw_b) / 2**28 through a 64-bit intermediate, truncated."""
    tally("int_mul")
    return _check_raw((a.raw * b.raw) >> FRAC_BITS)


def split_float(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, mantissas in [1, 2)) with x = mantissa * 2**exponent,
    elementwise over positive finite values."""
    bad = ~((x > 0.0) & np.isfinite(x))
    if np.count_nonzero(bad):
        raise DomainError("split_float requires positive finite input, "
                          f"got {float(x[bad][0])}")
    m, e = np.frexp(x)
    return e - 1, 2.0 * m


def to_fixed_array(x: np.ndarray) -> np.ndarray:
    """Array form of :func:`to_fixed`: raw Q3.28 values as int64."""
    bad = ~(np.abs(x) < 8.0)
    if np.count_nonzero(bad):
        raise RangeError(f"{float(x[bad][0])} outside Q3.28 range (-8, 8)")
    raw = np.rint(x * SCALE).astype(np.int64)
    if np.count_nonzero(raw > RAW_MAX):
        raise RangeError(f"{float(x[raw > RAW_MAX][0])} rounds outside "
                         "Q3.28 range")
    return raw


def to_float_array(raw: np.ndarray) -> np.ndarray:
    """Array form of :func:`to_float`."""
    return (raw / SCALE).astype(np.float32)


def check_raw_array(raw: np.ndarray) -> np.ndarray:
    bad = (raw < RAW_MIN) | (raw > RAW_MAX)
    if np.count_nonzero(bad):
        raise FixedOverflowError(f"fixed-point overflow: raw {int(raw[bad][0])}")
    return raw


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
    exp = np.minimum(np.maximum(exp, -_LDEXP_CLIP), _LDEXP_CLIP)
    with np.errstate(over="ignore"):
        return np.ldexp(x, exp.astype(np.int64))
