"""Fuzzy lookup tables: M-LUT, L-LUT, D-LUT, DL-LUT.

Table construction is host-side and runs in double precision; queries are
the device-side kernels and stay in float32 (or Q3.28 for the fixed
variants).  Address generation per kind:

  M:  a(x) = round((x - p) * k)          one float multiply
  L:  a(x) = round(ldexp(x - p, n))      no multiply, density 2**n
  D:  exponent/mantissa bit extraction   no multiply
  DL: L-LUT below 2**base_exponent, D-LUT above

Non-interpolated tables center cells on their nodes (p = lo + spacing/2);
interpolated tables put the first node at lo and carry one guard entry so
entries[a + 1] never branches.

Every query takes one value (a float, or a FixedQ3_28 for the fixed
variants) or an array of them (float64, or raw Q3.28 int64), and runs the
same elementwise steps on either.  Range checks apply to every element,
and each op is tallied once per element.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .costmodel import tally
from .errors import RangeError
from .fixedpoint import (FRAC_BITS, FixedQ3_28, check_raw_array, ldexp32,
                         to_fixed)
from .rangeext import piecewise

PARAM_BLOCK_BYTES = 48  # serialized header + parameter fields


@dataclass(frozen=True)
class SpacingSpec:
    kind: str  # 'M', 'L', 'D', 'DL'
    p: float = 0.0
    k: float = 0.0  # density (M); 2**n for L
    n: int = 0  # power-of-two density exponent (L)
    exp_bits: int = 0
    mant_bits: int = 0
    base_exponent: int = 0
    hi_exponent: int = 0
    lo: float = 0.0
    hi: float = 0.0  # covered upper bound


@dataclass
class FuzzyLut:
    spec: SpacingSpec
    entries: np.ndarray | None
    interpolated: bool
    fixed: bool = False
    function_id: str = "f"
    # DL-LUT composite parts
    sub_low: "FuzzyLut | None" = None
    sub_high: "FuzzyLut | None" = None
    # fixed-variant addressing constants
    p_raw: int = 0


def address_of(lut: FuzzyLut, x: float) -> int:
    """Uncounted address computation (used by tests and rebuild checks)."""
    s = lut.spec
    if s.kind == "M":
        t = (x - s.p) * s.k
        return int(np.floor(t)) if lut.interpolated else int(round(t))
    if s.kind == "L":
        t = math.ldexp(x - s.p, s.n)
        return int(np.floor(t)) if lut.interpolated else int(round(t))
    if s.kind == "D":
        return int(_dlut_address(s, np.array([x], dtype=np.float32))[0][0])
    raise ValueError(f"address_of undefined for kind {s.kind}")


def node_of(lut: FuzzyLut, addr: int) -> float:
    """Pseudo-inverse a^-1: the exact preimage stored at an address."""
    s = lut.spec
    if s.kind in ("M", "L"):
        return addr / s.k + s.p
    if s.kind == "D":
        step, frac = divmod(addr, 1 << s.mant_bits)
        return math.ldexp(1.0 + frac / (1 << s.mant_bits), s.base_exponent + step)
    raise ValueError(f"node_of undefined for kind {s.kind}")


# ---------------------------------------------------------------------------
# M-LUT
# ---------------------------------------------------------------------------

def build_mlut(f, lo: float, hi: float, size: int, interpolated: bool = False,
               function_id: str = "f") -> FuzzyLut:
    if not (lo < hi) or size < 2:
        raise ValueError("need lo < hi and size >= 2")
    k = size / (hi - lo)
    if interpolated:
        p = lo
        count = size + 1  # guard entry
    else:
        p = lo + (hi - lo) / (2 * size)
        count = size
    nodes = p + np.arange(count) / k
    entries = np.asarray([f(float(v)) for v in nodes], dtype=np.float32)
    tally("table_setup_entries", count)
    spec = SpacingSpec(kind="M", p=p, k=k, lo=lo, hi=hi)
    return FuzzyLut(spec=spec, entries=entries, interpolated=interpolated,
                    function_id=function_id)


def _check_range(lut: FuzzyLut, x: np.ndarray) -> None:
    s = lut.spec
    bad = ~((s.lo <= x) & (x <= s.hi))
    if np.count_nonzero(bad):
        raise RangeError(f"{float(x[bad][0])} outside covered range "
                         f"[{s.lo}, {s.hi}]")


def _size(lut: FuzzyLut) -> int:
    return len(lut.entries) - 1 if lut.interpolated else len(lut.entries)


def _elementwise(query):
    """Let a query written for arrays take a single value too."""
    @functools.wraps(query)
    def one_or_many(lut: FuzzyLut, x):
        if isinstance(x, FixedQ3_28):
            return FixedQ3_28(int(query(lut, np.array([x.raw]))[0]))
        if np.ndim(x) == 0:
            return query(lut, np.array([float(x)]))[0]
        return query(lut, np.asarray(x, dtype=np.int64 if lut.fixed
                                     else np.float64))
    return one_or_many


def _clamp(a: np.ndarray, hi: int) -> np.ndarray:
    """``a`` clamped to [0, hi]; np.clip costs several times more."""
    return np.minimum(np.maximum(a, 0), hi)


def _lerp(lut: FuzzyLut, a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """entries[a] + (entries[a + 1] - entries[a]) * delta, in float32."""
    tally("lut_lookup", 2 * a.size)
    l0 = lut.entries[a]
    l1 = lut.entries[a + 1]
    tally("float_add", 2 * a.size)
    tally("float_mul", a.size)
    return l0 + (l1 - l0) * delta


def _nearest(lut: FuzzyLut, t: np.ndarray) -> np.ndarray:
    """Entry of the node nearest each table position ``t``."""
    a = _clamp(np.rint(t).astype(np.int64), _size(lut) - 1)
    tally("lut_lookup", a.size)
    return lut.entries[a]


def _interpolate(lut: FuzzyLut, t: np.ndarray) -> np.ndarray:
    """Linear interpolation between the nodes either side of ``t``."""
    a = _clamp(np.floor(t).astype(np.int64), _size(lut) - 1)
    tally("float_add", a.size)
    return _lerp(lut, a, t - a.astype(np.float32))


def _m_position(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    """Table position (x - p) * k in float32: one multiply."""
    _check_range(lut, x)
    s = lut.spec
    tally("float_add", x.size)
    tally("float_mul", x.size)
    return (x.astype(np.float32) - np.float32(s.p)) * np.float32(s.k)


@_elementwise
def mlut_query(lut: FuzzyLut, x):
    return _nearest(lut, _m_position(lut, x))


@_elementwise
def mlut_query_interp(lut: FuzzyLut, x):
    return _interpolate(lut, _m_position(lut, x))


# ---------------------------------------------------------------------------
# L-LUT (float and fixed entries)
# ---------------------------------------------------------------------------

def _llut_layout(lo: float, hi: float, size: int, interpolated: bool):
    n = int(math.floor(math.log2(size / (hi - lo))))
    k = 2.0 ** n
    hi_cov = lo + size / k  # density rounded down expands the range
    p = lo if interpolated else lo + 1.0 / (2 * k)
    count = size + 1 if interpolated else size
    return n, k, p, hi_cov, count


def build_llut(f, lo: float, hi: float, size: int, interpolated: bool = False,
               function_id: str = "f") -> FuzzyLut:
    if not (lo < hi) or size < 2:
        raise ValueError("need lo < hi and size >= 2")
    n, k, p, hi_cov, count = _llut_layout(lo, hi, size, interpolated)
    nodes = p + np.arange(count) / k
    entries = np.asarray([f(float(v)) for v in nodes], dtype=np.float32)
    tally("table_setup_entries", count)
    spec = SpacingSpec(kind="L", p=p, k=k, n=n, lo=lo, hi=hi_cov)
    return FuzzyLut(spec=spec, entries=entries, interpolated=interpolated,
                    function_id=function_id)


def _l_position(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    """Table position ldexp(x - p, n) in float32: no multiply."""
    _check_range(lut, x)
    s = lut.spec
    tally("float_add", x.size)
    return ldexp32(x.astype(np.float32) - np.float32(s.p), s.n)


@_elementwise
def llut_query(lut: FuzzyLut, x):
    return _nearest(lut, _l_position(lut, x))


@_elementwise
def llut_query_interp(lut: FuzzyLut, x):
    return _interpolate(lut, _l_position(lut, x))


def build_fixed_llut(f, lo: float, hi: float, size: int,
                     interpolated: bool = False,
                     function_id: str = "f") -> FuzzyLut:
    """L-LUT with Q3.28 entries and shift-based raw addressing."""
    if not (lo < hi) or size < 2:
        raise ValueError("need lo < hi and size >= 2")
    n, k, p, hi_cov, count = _llut_layout(lo, hi, size, interpolated)
    if n > FRAC_BITS or n < 0:
        raise RangeError(f"L-LUT density exponent {n} outside [0, {FRAC_BITS}]")
    # Queries arrive as Q3.28, so any covered range within [-8, 8] works;
    # node inputs to f stay double so the 8.0 guard node is fine.
    if not (-8.0 < lo and hi_cov <= 8.0):
        raise RangeError("fixed L-LUT inputs must lie inside the Q3.28 range")
    nodes = p + np.arange(count) / k
    entries = np.asarray([to_fixed(f(float(v))).raw for v in nodes],
                         dtype=np.int64)
    tally("table_setup_entries", count)
    spec = SpacingSpec(kind="L", p=p, k=k, n=n, lo=lo, hi=hi_cov)
    return FuzzyLut(spec=spec, entries=entries, interpolated=interpolated,
                    fixed=True, function_id=function_id,
                    p_raw=to_fixed(p).raw)


@_elementwise
def fixed_llut_query(lut: FuzzyLut, raw):
    """Raw Q3.28 input; the address is a rounding shift of x - p."""
    shift = FRAC_BITS - lut.spec.n
    tally("int_add", 2 * raw.size)
    tally("int_shift", raw.size)
    a = (raw - lut.p_raw + (1 << (shift - 1))) >> shift  # round to nearest
    tally("lut_lookup", raw.size)
    return lut.entries[_clamp(a, _size(lut) - 1)]


@_elementwise
def fixed_llut_query_interp(lut: FuzzyLut, raw):
    """Raw Q3.28 input; the bits below the address are the Q3.28 delta."""
    s = lut.spec
    shift = FRAC_BITS - s.n
    size = _size(lut)
    tally("int_add", raw.size)
    diff = _clamp(raw - lut.p_raw, size << shift)
    tally("int_shift", 2 * raw.size)
    a = diff >> shift
    delta_raw = (diff & ((1 << shift) - 1)) << s.n  # fraction in Q3.28
    tally("lut_lookup", 2 * raw.size)
    l0 = lut.entries[a]
    l1 = lut.entries[np.minimum(a + 1, size)]
    tally("int_add", 2 * raw.size)
    tally("int_mul", raw.size)
    return check_raw_array(l0 + (((l1 - l0) * delta_raw) >> FRAC_BITS))


# ---------------------------------------------------------------------------
# D-LUT
# ---------------------------------------------------------------------------

def _dlut_address(s: SpacingSpec, x32: np.ndarray):
    """Addresses from the exponent and top mantissa bits; also the bits."""
    bits = x32.view(np.uint32).astype(np.int64)
    e = ((bits >> 23) & 0xFF) - 127
    bad = (x32 <= 0.0) | (e < s.base_exponent) | (e >= s.hi_exponent)
    if np.count_nonzero(bad):
        raise RangeError(f"{float(x32[bad][0])} outside D-LUT range "
                         f"[2^{s.base_exponent}, 2^{s.hi_exponent})")
    tally("int_add", x32.size)
    tally("int_shift", 2 * x32.size)
    top = (bits & 0x7FFFFF) >> (23 - s.mant_bits)
    return ((e - s.base_exponent) << s.mant_bits) | top, bits


def build_dlut(f, exp_bits: int, mant_bits: int, base_exponent: int,
               hi_exponent: int | None = None, interpolated: bool = True,
               function_id: str = "f") -> FuzzyLut:
    if exp_bits < 1 or mant_bits < 1 or mant_bits > 23:
        raise ValueError("need exp_bits >= 1 and 1 <= mant_bits <= 23")
    if hi_exponent is None:
        hi_exponent = base_exponent + (1 << exp_bits)
    steps = hi_exponent - base_exponent
    if not (1 <= steps <= (1 << exp_bits)):
        raise ValueError(f"{steps} exponent steps do not fit in {exp_bits} bits")
    count = steps << mant_bits
    total = count + 1 if interpolated else count
    spec = SpacingSpec(kind="D", exp_bits=exp_bits, mant_bits=mant_bits,
                       base_exponent=base_exponent, hi_exponent=hi_exponent,
                       lo=math.ldexp(1.0, base_exponent),
                       hi=math.ldexp(1.0, hi_exponent))
    entries = np.empty(total, dtype=np.float32)
    for addr in range(count):
        step, frac = divmod(addr, 1 << mant_bits)
        entries[addr] = f(math.ldexp(1.0 + frac / (1 << mant_bits),
                                     base_exponent + step))
    if interpolated:
        entries[count] = f(math.ldexp(1.0, hi_exponent))  # guard at 2**hi
    tally("table_setup_entries", total)
    return FuzzyLut(spec=spec, entries=entries, interpolated=interpolated,
                    function_id=function_id)


@_elementwise
def dlut_query_interp(lut: FuzzyLut, x):
    s = lut.spec
    addr, bits = _dlut_address(s, x.astype(np.float32))
    low_bits = 23 - s.mant_bits
    # Delta comes straight from the mantissa bits below the address field.
    rem = bits & ((1 << low_bits) - 1)
    return _lerp(lut, addr, ldexp32(rem.astype(np.float32), -low_bits))


# ---------------------------------------------------------------------------
# DL-LUT
# ---------------------------------------------------------------------------

def build_dllut(f, exp_bits: int, mant_bits: int, base_exponent: int,
                hi_exponent: int | None = None,
                function_id: str = "f") -> FuzzyLut:
    """L-LUT below 2**base_exponent, D-LUT above; both interpolated."""
    low = build_llut(f, 0.0, math.ldexp(1.0, base_exponent), 1 << mant_bits,
                     interpolated=True, function_id=function_id)
    high = build_dlut(f, exp_bits, mant_bits, base_exponent, hi_exponent,
                      interpolated=True, function_id=function_id)
    spec = SpacingSpec(kind="DL", exp_bits=exp_bits, mant_bits=mant_bits,
                       base_exponent=base_exponent,
                       hi_exponent=high.spec.hi_exponent,
                       lo=0.0, hi=high.spec.hi)
    return FuzzyLut(spec=spec, entries=None, interpolated=True,
                    function_id=function_id, sub_low=low, sub_high=high)


@_elementwise
def dllut_query_interp(lut: FuzzyLut, x):
    if np.count_nonzero(x < 0.0):
        raise RangeError("DL-LUT query requires x >= 0; negative inputs are "
                         "the symmetry wrapper's job")
    low = (x < lut.sub_low.spec.hi) & (x < math.ldexp(1.0, lut.spec.base_exponent))
    return piecewise(low, x, lambda v: llut_query_interp(lut.sub_low, v),
                     lambda v: dlut_query_interp(lut.sub_high, v))


# ---------------------------------------------------------------------------
# Memory accounting and serialization
# ---------------------------------------------------------------------------

def lut_memory_bytes(lut: FuzzyLut) -> int:
    if lut.spec.kind == "DL":
        return lut_memory_bytes(lut.sub_low) + lut_memory_bytes(lut.sub_high)
    return len(lut.entries) * 4 + PARAM_BLOCK_BYTES


_KIND_TAG = {"M": 0, "L": 1, "D": 2, "DL": 3}
_TAG_KIND = {v: k for k, v in _KIND_TAG.items()}
_MAGIC = b"TPLT"
_HEADER = struct.Struct("<4sBBxx")
_PARAMS = struct.Struct("<ddqqq")  # p, k_or_n, exp_bits, mant_bits, base_exponent
_COUNT = struct.Struct("<I")


def dump_table(lut: FuzzyLut) -> bytes:
    flags = (1 if lut.interpolated else 0) | (2 if lut.fixed else 0)
    head = _HEADER.pack(_MAGIC, _KIND_TAG[lut.spec.kind], flags)
    s = lut.spec
    if s.kind == "DL":
        body = _PARAMS.pack(0.0, 0.0, s.exp_bits, s.mant_bits, s.base_exponent)
        body += _COUNT.pack(0)
        return head + body + dump_table(lut.sub_low) + dump_table(lut.sub_high)
    k_or_n = float(s.n) if s.kind == "L" else s.k
    body = _PARAMS.pack(s.p, k_or_n, s.exp_bits, s.mant_bits, s.base_exponent)
    body += _COUNT.pack(len(lut.entries))
    if lut.fixed:
        body += np.asarray(lut.entries, dtype="<i4").tobytes()
    else:
        body += np.asarray(lut.entries, dtype="<f4").tobytes()
    return head + body


def _load_one(buf: bytes, off: int) -> tuple[FuzzyLut, int]:
    magic, tag, flags = _HEADER.unpack_from(buf, off)
    if magic != _MAGIC:
        raise ValueError("bad table magic")
    off += _HEADER.size
    p, k_or_n, exp_bits, mant_bits, base_exponent = _PARAMS.unpack_from(buf, off)
    off += _PARAMS.size
    (count,) = _COUNT.unpack_from(buf, off)
    off += _COUNT.size
    kind = _TAG_KIND[tag]
    interpolated = bool(flags & 1)
    fixed = bool(flags & 2)

    if kind == "DL":
        low, off = _load_one(buf, off)
        high, off = _load_one(buf, off)
        spec = SpacingSpec(kind="DL", exp_bits=int(exp_bits),
                           mant_bits=int(mant_bits),
                           base_exponent=int(base_exponent),
                           hi_exponent=high.spec.hi_exponent,
                           lo=0.0, hi=high.spec.hi)
        return FuzzyLut(spec=spec, entries=None, interpolated=True,
                        function_id="unknown", sub_low=low, sub_high=high), off

    if fixed:
        entries = np.frombuffer(buf, dtype="<i4", count=count,
                                offset=off).astype(np.int64)
    else:
        entries = np.frombuffer(buf, dtype="<f4", count=count, offset=off).copy()
    off += count * 4

    size = count - 1 if interpolated else count
    if kind == "D":
        hi_exponent = int(base_exponent) + (size >> int(mant_bits))
        spec = SpacingSpec(kind="D", exp_bits=int(exp_bits),
                           mant_bits=int(mant_bits),
                           base_exponent=int(base_exponent),
                           hi_exponent=hi_exponent,
                           lo=math.ldexp(1.0, int(base_exponent)),
                           hi=math.ldexp(1.0, hi_exponent))
        return FuzzyLut(spec=spec, entries=entries, interpolated=interpolated,
                        function_id="unknown"), off

    if kind == "L":
        n = int(k_or_n)
        k = 2.0 ** n
        lo = p if interpolated else p - 1.0 / (2 * k)
        spec = SpacingSpec(kind="L", p=p, k=k, n=n, lo=lo, hi=lo + size / k)
    else:
        k = k_or_n
        lo = p if interpolated else p - 1.0 / (2 * k)
        spec = SpacingSpec(kind="M", p=p, k=k, lo=lo, hi=lo + size / k)
    lut = FuzzyLut(spec=spec, entries=entries, interpolated=interpolated,
                   fixed=fixed, function_id="unknown")
    if fixed:
        lut.p_raw = to_fixed(p).raw
    return lut, off


def load_table(buf: bytes) -> FuzzyLut:
    lut, off = _load_one(buf, 0)
    if off != len(buf):
        raise ValueError("trailing bytes after table record")
    return lut


def save_table(lut: FuzzyLut, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_table(lut))


def load_table_file(path) -> FuzzyLut:
    with open(path, "rb") as fh:
        return load_table(fh.read())
