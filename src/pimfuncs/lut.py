"""Fuzzy lookup tables: M-LUT, L-LUT, D-LUT, DL-LUT.

Table construction is host-side and runs in double precision; queries are
the device-side kernels and stay in float32 (or Q3.28 for the fixed
variants).  Address generation per kind:

  M:  a(x) = round((x - lo) * k)         one float multiply
  L:  a(x) = round(ldexp(x - lo, n))     no multiply, density 2**n
  D:  exponent/mantissa bit extraction   no multiply
  DL: L cells on [0, 2**base_exponent), then D octaves, in one table

Every table puts its first node at lo and carries one guard entry past
its last cell, so one M or L table answers both queries: the nearest
one rounds to a node, the interpolated one's entries[a + 1] never
branches.

Each kind has one layout, which holds all of its argument, size and
range checks: M from (lo, hi, size), L from (lo, n, size), D and DL from
(base_exponent, hi_exponent, mant_bits), any count of octaves of
2**mant_bits cells.  Each takes a bound as a double and an integer field
(a numpy one too) as an int, and refuses with RangeError any other
argument, what float32 queries cannot address, and more than MAX_CELLS
cells, before any entry is allocated.  The builders and
:func:`load_table` both make their specs through it, and a table record
(magic ``TPL4``) stores those inputs and the entries, so a loaded
table's spec equals the built table's.

Every builder takes its entries from :func:`tabulate`: the nodes come
from one vectorized formula per kind (``lo + a / k`` for M and L, an
``ldexp`` of the address's mantissa and exponent fields for D, each on
its own addresses for DL), and the host function is called on them a
chunk of TABULATE_CHUNK nodes at a time.  Each chunk is rounded to its
entries before the next is computed, so the temporaries alive at once,
beyond the entries, are bounded by the chunk size.

A host is a function of a float64 array that returns libm's doubles,
elementwise.  A libm function is lifted to one where it is named, as
``functools.partial(mapped, math.sin)``, which calls it once per node in
address order, exactly as a per-node loop would.  A formula host
(``api.cndf_exact``) maps its libm steps with :func:`mapped` too and
does the arithmetic between them in numpy, with only the operations
IEEE 754 rounds correctly (``+ - * /`` and ``np.sqrt``, itself the sqrt
host), which give the same bits in numpy as on Python floats.  It casts
its input to float64 first: under numpy's weak-scalar rule a float32
array would keep ``x / math.sqrt(2.0)`` in float32.

A :func:`twin` is a host that carries a numpy twin, such as
``twin(partial(mapped, math.sin), np.sin)`` or the CNDF formula with a
numpy erf (``api.CNDF_HOST``).  numpy's transcendental ufuncs, and that
erf, can differ from libm in the last bits (by up to 3 ulps), so
:func:`tabulate` keeps a twin value ``v`` only where Ziv's rounding test
settles it: ``v`` is nonzero, and ``v - m`` and ``v + m``, with
``m = SETTLE_ULPS`` ulps of ``v``, are finite and round to the same
stored entry (float32, or the Q3.28 raw of a fixed table), which is the
entry: libm's value lies between them.  Every other node goes to the
host, in address order and in one call per chunk, so each entry, and
each exception a per-node loop would raise, is libm's.

Every query takes a 1-d array, float64 or (fixed variants) raw Q3.28
int64, and returns one float32 or raw Q3.28 result per element; one
value is a one-element array.  Range checks apply to every element, and
each op is tallied once per element.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .costmodel import tally
from .errors import (RangeError, TableFormatError, integral, opened, real,
                     refuse)
from .fixedpoint import (FRAC_BITS, RAW_MAX, SCALE, check_raw, ldexp32,
                         to_fixed)
from .rangeext import piecewise

PARAM_BLOCK_BYTES = 48  # serialized header + parameter fields
TABULATE_CHUNK = 4096  # nodes per host call
SETTLE_ULPS = 2 ** 10  # a twin's margin, far above its few ulps from libm
MAX_CELLS = 1 << 24  # 64 MiB of 4-byte entries: one UPMEM DPU's MRAM bank
_F32_MAX = float(np.finfo(np.float32).max)


def mapped(f, x) -> np.ndarray:
    """``f`` of each element of ``x``, in order, as float64 shaped as
    ``x``: a scalar libm function ``f`` lifted to an array host."""
    x = np.asarray(x, dtype=np.float64)
    if not x.size:  # a chunk whose every node the twin settled
        return np.empty(x.shape)
    return np.fromiter(map(f, x.ravel().tolist()), np.float64,
                       x.size).reshape(x.shape)


def twin(host, ufunc):
    """The host ``host``, carrying ``ufunc``, a numpy function of a
    float64 array (a ufunc or a formula of them), as its twin.

    It is called as ``host`` is; :func:`tabulate` evaluates the twin over
    each chunk and sends only the nodes it cannot settle to ``host``.
    """
    twinned = functools.partial(host)
    twinned.twin = ufunc
    return twinned


def _settled(v: np.ndarray, fixed: bool):
    """Where float64 ``v`` is nonzero and every double within m =
    SETTLE_ULPS ulps of it is finite and has its stored entry (float32, or
    a Q3.28 raw inside (-RAW_MAX, RAW_MAX)), and the entry of ``v - m``,
    ``v``'s own where it settles.  The ulp, 2**-52 times v's exponent
    field floored at 2**-1074, is np.spacing's for finite nonzero ``v``."""
    field = (v.view(np.int64) & 0x7FF << 52).view(np.float64)
    m = field * (SETTLE_ULPS * 2.0 ** -52)  # scaling by 2**10 is exact
    np.maximum(m, SETTLE_ULPS * 2.0 ** -1074, out=m)
    lo, hi = v - m, np.add(v, m, out=m)
    if fixed:  # |lo| < RAW_MAX refuses a NaN or an infinity
        lo, hi = np.rint(lo * SCALE), np.rint(hi * SCALE)
        return (lo == hi) & (np.abs(lo) < RAW_MAX) & (v != 0), lo
    lo32 = lo.astype(np.float32)  # compared in bits, so ±0 never settle
    same = lo32.view(np.uint32) == hi.astype(np.float32).view(np.uint32)
    return same & np.isfinite(hi - lo), lo32


def tabulate(f, nodes, count: int, fixed: bool = False) -> np.ndarray:
    """The stored entries of ``f(nodes(a))`` for each address ``a`` in
    [0, count): float32, or int64 Q3.28 raws if ``fixed``.

    ``nodes`` maps an int64 address array to the double nodes at those
    addresses, and ``f``, a host (see the module docstring), is called
    once per chunk on float64 nodes.  The last chunk takes in a remainder
    shorter than TABULATE_CHUNK, so no chunk is a lone guard node.  A
    settled :func:`twin` value's entry is the settle test's rounding, and
    the host's values are rounded to entries in the chunk that computed
    them.  So a failing build raises at its first failing chunk, in
    address order: that chunk's host exception if there is one, else its
    entry refusal (RangeError outside Q3.28, or numpy's float32 overflow
    warning).
    """
    twin_of = getattr(f, "twin", None)
    out = np.empty(count, dtype=np.int64 if fixed else np.float32)
    chunks = max(1, count // TABULATE_CHUNK)
    for i in range(chunks):
        start = i * TABULATE_CHUNK
        stop = count if i == chunks - 1 else start + TABULATE_CHUNK
        a = np.arange(start, stop)
        x = np.asarray(nodes(a), dtype=np.float64)
        if twin_of is not None:
            with np.errstate(all="ignore"):
                settled, out[start:stop] = _settled(twin_of(x), fixed)
            if not fixed:  # an overflow goes to the host, whose cast warns
                settled &= np.isfinite(out[start:stop])
            a, x = a[~settled], x[~settled]
        values = f(x)
        out[a] = to_fixed(values) if fixed else values.astype(np.float32)
    return out


@dataclass(frozen=True)
class SpacingSpec:
    kind: str  # 'M', 'L', 'D', 'DL'
    k: float = 0.0  # density (M); 2**n for L and DL's L cells
    n: int = 0  # power-of-two density exponent (L, DL)
    mant_bits: int = 0
    base_exponent: int = 0
    hi_exponent: int = 0
    lo: float = 0.0
    hi: float = 0.0  # covered upper bound: closed for M/L, open for D/DL
    size: int = 0  # cells; the table has one more entry, its guard
    lo_raw: int = 0  # Q3.28 raw lo of a fixed L-LUT


@dataclass
class FuzzyLut:
    """A table of any kind: its spec and one flat array of entries."""
    spec: SpacingSpec
    entries: np.ndarray
    fixed: bool = False


# ---------------------------------------------------------------------------
# Layouts: the one place each kind's sizes and ranges are checked
# ---------------------------------------------------------------------------

def _m_layout(lo: float, hi: float, size: int) -> SpacingSpec:
    """M spec of ``size`` cells on exactly [lo, hi]; float32 queries need
    |lo|, |hi| <= FLT_MAX / 2, so x - lo is finite, and a finite density."""
    lo, hi, size = real("lo", lo), real("hi", hi), integral("size", size)
    if not (lo < hi and 2 <= size <= MAX_CELLS):
        raise RangeError(f"need lo < hi and 2 <= size <= {MAX_CELLS}, "
                         f"got [{lo}, {hi}] and {size}")
    k = size / (hi - lo)
    if not (max(-lo, hi) <= _F32_MAX / 2 and k <= _F32_MAX):
        raise RangeError(f"[{lo}, {hi}] of density {k} is beyond float32")
    return SpacingSpec(kind="M", k=k, lo=lo, hi=hi, size=size)


def _l_layout(lo: float, n: int, size: int, fixed: bool) -> SpacingSpec:
    """L spec of ``size`` cells of width 2**-n from lo; a fixed table's
    raw addressing needs n in [0, FRAC_BITS] and a range inside Q3.28."""
    lo, n, size = real("lo", lo), integral("n", n), integral("size", size)
    if not (2 <= size <= MAX_CELLS and -1074 <= n <= 1023):
        raise RangeError(f"need 2 <= size <= {MAX_CELLS} and "
                         f"-1074 <= n <= 1023, got {size} and {n}")
    k = 2.0 ** n
    hi = lo + size / k
    if not max(-lo, hi) <= _F32_MAX / 2:
        raise RangeError(f"L-LUT range [{lo}, {hi}] is beyond float32")
    # Queries arrive as Q3.28, so any covered range within [-8, 8] works;
    # node inputs to f stay double so the 8.0 guard node is fine.
    if fixed and not (0 <= n <= FRAC_BITS and -8.0 < lo and hi <= 8.0):
        raise RangeError(f"a fixed L-LUT needs 0 <= n <= {FRAC_BITS} and "
                         f"its range inside Q3.28, got {n} and [{lo}, {hi}]")
    return SpacingSpec(kind="L", k=k, n=n, lo=lo, hi=hi, size=size,
                       lo_raw=int(to_fixed(lo)) if fixed else 0)


def _d_layout(base_exponent: int, hi_exponent: int,
              mant_bits: int) -> SpacingSpec:
    """D spec of the octaves [2**base_exponent, 2**hi_exponent), each of
    2**mant_bits cells.  Queries read float32 exponent fields, so the
    octaves must lie in float32's normal range [2^-126, 2^128)."""
    base_exponent, hi_exponent, mant_bits = (
        integral("base_exponent", base_exponent),
        integral("hi_exponent", hi_exponent), integral("mant_bits", mant_bits))
    if not 1 <= mant_bits <= 23:
        raise RangeError("need 1 <= mant_bits <= 23")
    if not -126 <= base_exponent < hi_exponent <= 128:
        raise RangeError(f"D-LUT range [2^{base_exponent}, 2^{hi_exponent}) "
                         "is empty or not in float32's [2^-126, 2^128)")
    size = (hi_exponent - base_exponent) << mant_bits
    if size > MAX_CELLS:
        raise RangeError(f"D-LUT of {size} cells is over {MAX_CELLS}")
    return SpacingSpec(kind="D", mant_bits=mant_bits,
                       base_exponent=base_exponent, hi_exponent=hi_exponent,
                       lo=math.ldexp(1.0, base_exponent),
                       hi=math.ldexp(1.0, hi_exponent), size=size)


def _dl_layout(base_exponent: int, hi_exponent: int,
               mant_bits: int) -> SpacingSpec:
    """DL spec: 2**mant_bits L cells on [0, 2**base_exponent), then octaves."""
    d = _d_layout(base_exponent, hi_exponent, mant_bits)
    n, size = d.mant_bits - d.base_exponent, d.size + (1 << d.mant_bits)
    if size > MAX_CELLS:
        raise RangeError(f"DL-LUT of {size} cells is over {MAX_CELLS}")
    return replace(d, kind="DL", n=n, k=2.0 ** n, lo=0.0, size=size)


def _nodes(s: SpacingSpec):
    """The node formula of a spec: int64 addresses to doubles."""
    if s.kind in ("M", "L"):
        return lambda a: s.lo + a / s.k
    m = s.mant_bits
    if s.kind == "DL":  # the L cells' formula, then the D octaves'
        cells, octaves = (_nodes(replace(s, kind=kind)) for kind in "LD")

        def dl(a):
            x, low = np.empty(a.shape), a < 1 << m
            x[low], x[~low] = cells(a[low]), octaves(a[~low] - (1 << m))
            return x
        return dl
    # address = step:frac; node (1 + frac/2**m) * 2**(base+step).
    # An int32 exponent takes np.ldexp's fast loop; int64 does not.
    return lambda a: np.ldexp(1.0 + (a & ((1 << m) - 1)) / (1 << m),
                              (s.base_exponent + (a >> m)).astype(np.int32))


def _tabulated(f, spec: SpacingSpec, fixed: bool = False) -> FuzzyLut:
    """The table of ``f`` at the nodes of ``spec``, guard entry included."""
    count = spec.size + 1
    entries = tabulate(f, _nodes(spec), count, fixed)
    tally("table_setup_entries", count)
    return FuzzyLut(spec=spec, entries=entries, fixed=fixed)


# ---------------------------------------------------------------------------
# M-LUT
# ---------------------------------------------------------------------------

def build_mlut(f, lo: float, hi: float, size: int) -> FuzzyLut:
    return _tabulated(f, _m_layout(lo, hi, size))


def _check_range(lut: FuzzyLut, x: np.ndarray) -> None:
    s = lut.spec
    refuse(~((s.lo <= x) & (x <= s.hi)), x, RangeError,
           "{} outside covered range [{}, {}]", s.lo, s.hi)


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
    a = _clamp(np.rint(t).astype(np.int64), lut.spec.size)
    tally("lut_lookup", a.size)
    return lut.entries[a]


def _interpolate(lut: FuzzyLut, t: np.ndarray, last: int) -> np.ndarray:
    """Linear interpolation between the nodes either side of ``t``, in
    the cell floor(t) clamped to [0, last]."""
    a = _clamp(np.floor(t).astype(np.int64), last)
    tally("float_add", a.size)
    return _lerp(lut, a, t - a.astype(np.float32))


def _m_position(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    """Table position (x - lo) * k in float32: one multiply."""
    _check_range(lut, x)
    s = lut.spec
    tally("float_add", x.size)
    tally("float_mul", x.size)
    return (x.astype(np.float32) - np.float32(s.lo)) * np.float32(s.k)


def mlut_query(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    return _nearest(lut, _m_position(lut, x))


def mlut_query_interp(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    return _interpolate(lut, _m_position(lut, x), lut.spec.size - 1)


# ---------------------------------------------------------------------------
# L-LUT (float and fixed entries)
# ---------------------------------------------------------------------------

def _l_table(f, lo: float, hi: float, size: int, fixed: bool) -> FuzzyLut:
    """The L-LUT of ``size`` cells from lo: rounding the M density of
    [lo, hi] down to 2**n expands the covered range."""
    n = math.floor(math.log2(_m_layout(lo, hi, size).k))
    return _tabulated(f, _l_layout(lo, n, size, fixed), fixed)


def build_llut(f, lo: float, hi: float, size: int) -> FuzzyLut:
    return _l_table(f, lo, hi, size, fixed=False)


def _l_position(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    """Table position ldexp(x - lo, n) in float32: no multiply, and in
    range no overflow to guard against, as |x - lo| * 2**n <= size."""
    _check_range(lut, x)
    s = lut.spec
    tally("float_add", x.size)
    tally("ldexp_op", x.size)
    return np.ldexp(x.astype(np.float32) - np.float32(s.lo), s.n)


def llut_query(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    return _nearest(lut, _l_position(lut, x))


def llut_query_interp(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    return _interpolate(lut, _l_position(lut, x), lut.spec.size - 1)


def build_fixed_llut(f, lo: float, hi: float, size: int) -> FuzzyLut:
    """L-LUT with Q3.28 entries and shift-based raw addressing."""
    return _l_table(f, lo, hi, size, fixed=True)


def fixed_llut_query(lut: FuzzyLut, raw: np.ndarray) -> np.ndarray:
    """Raw Q3.28 input; the address is a rounding shift of x - lo."""
    _check_range(lut, raw / SCALE)
    s = lut.spec
    shift = FRAC_BITS - s.n
    tally("int_add", 2 * raw.size)
    tally("int_shift", raw.size)
    a = (raw - s.lo_raw + ((1 << shift) >> 1)) >> shift  # round to nearest
    tally("lut_lookup", raw.size)
    return lut.entries[_clamp(a, s.size)]


def fixed_llut_query_interp(lut: FuzzyLut, raw: np.ndarray) -> np.ndarray:
    """Raw Q3.28 input; the bits below the address are the Q3.28 delta."""
    _check_range(lut, raw / SCALE)
    s = lut.spec
    shift = FRAC_BITS - s.n
    size = s.size
    tally("int_add", raw.size)
    diff = _clamp(raw - s.lo_raw, size << shift)
    tally("int_shift", 2 * raw.size)
    a = diff >> shift
    delta_raw = (diff & ((1 << shift) - 1)) << s.n  # fraction in Q3.28
    tally("lut_lookup", 2 * raw.size)
    l0 = lut.entries[a]
    l1 = lut.entries[np.minimum(a + 1, size)]
    tally("int_add", 2 * raw.size)
    tally("int_mul", raw.size)
    return check_raw(l0 + (((l1 - l0) * delta_raw) >> FRAC_BITS))


# ---------------------------------------------------------------------------
# D-LUT
# ---------------------------------------------------------------------------

def _dlut_address(s: SpacingSpec, x32: np.ndarray):
    """Addresses from the exponent and top mantissa bits; also the bits."""
    bits = x32.view(np.uint32).astype(np.int64)
    e = ((bits >> 23) & 0xFF) - 127
    refuse((x32 <= 0.0) | (e < s.base_exponent) | (e >= s.hi_exponent), x32,
           RangeError, "{} outside D-LUT range [2^{}, 2^{})",
           s.base_exponent, s.hi_exponent)
    tally("int_add", x32.size)
    tally("int_shift", 2 * x32.size)
    top = (bits & 0x7FFFFF) >> (23 - s.mant_bits)
    first = s.base_exponent - (s.kind == "DL")  # DL: its L cells come first
    return ((e - first) << s.mant_bits) | top, bits


def build_dlut(f, base_exponent: int, hi_exponent: int,
               mant_bits: int) -> FuzzyLut:
    """Interpolated D-LUT over [2**base_exponent, 2**hi_exponent); the
    guard entry is the node 2**hi_exponent."""
    return _tabulated(f, _d_layout(base_exponent, hi_exponent, mant_bits))


def dlut_query_interp(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    s = lut.spec
    with np.errstate(over="ignore"):  # +-inf beyond float32: refused below
        x32 = x.astype(np.float32)
    addr, bits = _dlut_address(s, x32)
    low_bits = 23 - s.mant_bits
    # Delta comes straight from the mantissa bits below the address field.
    rem = bits & ((1 << low_bits) - 1)
    return _lerp(lut, addr, ldexp32(rem.astype(np.float32), -low_bits))


# ---------------------------------------------------------------------------
# DL-LUT
# ---------------------------------------------------------------------------

def build_dllut(f, base_exponent: int, hi_exponent: int,
                mant_bits: int) -> FuzzyLut:
    """Interpolated DL-LUT: 2**mant_bits L cells below 2**base_exponent,
    then the D octaves to 2**hi_exponent and their guard entry."""
    return _tabulated(f, _dl_layout(base_exponent, hi_exponent, mant_bits))


def dllut_query_interp(lut: FuzzyLut, x: np.ndarray) -> np.ndarray:
    refuse(x < 0.0, x, RangeError, "DL-LUT query requires x >= 0, got {}; "
           "negative inputs are the symmetry wrapper's job")
    s = lut.spec
    return piecewise(x < math.ldexp(1.0, s.base_exponent), x,
                     lambda v: _interpolate(lut, _l_position(lut, v),
                                            (1 << s.mant_bits) - 1),
                     lambda v: dlut_query_interp(lut, v))


# ---------------------------------------------------------------------------
# Memory accounting and serialization
# ---------------------------------------------------------------------------

def lut_memory_bytes(lut: FuzzyLut) -> int:
    return len(lut.entries) * 4 + PARAM_BLOCK_BYTES


_KIND_TAG = {"M": 0, "L": 1, "D": 2, "DL": 3}
_TAG_KIND = {v: k for k, v in _KIND_TAG.items()}
_MAGIC = b"TPL4"
_HEADER = struct.Struct("<4sBBxx")
# (lo, hi) of M or (lo, n) of L; base_exponent, hi_exponent, mant_bits of D, DL
_PARAMS = struct.Struct("<ddqqq")
_COUNT = struct.Struct("<I")


def dump_table(lut: FuzzyLut) -> bytes:
    head = _HEADER.pack(_MAGIC, _KIND_TAG[lut.spec.kind], 2 * lut.fixed)
    s = lut.spec
    pair = {"M": (s.lo, s.hi), "L": (s.lo, float(s.n))}.get(s.kind, (0.0, 0.0))
    body = (_PARAMS.pack(*pair, s.base_exponent, s.hi_exponent, s.mant_bits)
            + _COUNT.pack(len(lut.entries)))
    return head + body + np.asarray(
        lut.entries, dtype="<i4" if lut.fixed else "<f4").tobytes()


def _unpack(st: struct.Struct, buf: bytes, off: int):
    if len(buf) - off < st.size:
        raise TableFormatError("truncated table record")
    return st.unpack_from(buf, off), off + st.size


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise TableFormatError(f"malformed table record: {what}")


def load_table(buf: bytes) -> FuzzyLut:
    """Parse one serialized table; raises TableFormatError on bad input."""
    (magic, tag, flags), off = _unpack(_HEADER, buf, 0)
    if magic != _MAGIC:
        raise TableFormatError(f"bad table magic {magic!r}, not {_MAGIC!r}")
    _require(tag in _TAG_KIND, f"unknown kind tag {tag}")
    _require(flags in (0, 2), f"unknown flags {flags:#x}")  # bit 1: fixed
    (first, second, *d_fields), off = _unpack(_PARAMS, buf, off)
    (count,), off = _unpack(_COUNT, buf, off)
    kind, fixed = _TAG_KIND[tag], flags == 2

    _require(count <= (len(buf) - off) // 4,
             f"{count} entries run past the end of the buffer")
    _require(not fixed or kind == "L", "only L-LUTs have fixed entries")
    entries = np.frombuffer(buf, dtype="<i4" if fixed else "<f4",
                            count=count, offset=off)
    entries = entries.astype(np.int64) if fixed else entries.copy()
    off += count * 4

    size = count - 1  # the guard entry
    try:
        if kind in ("D", "DL"):
            spec = (_d_layout if kind == "D" else _dl_layout)(*d_fields)
            _require(size == spec.size,
                     "entries do not fill its octaves and guard entry")
        elif kind == "L":
            _require(second.is_integer(), "L-LUT density exponent")
            spec = _l_layout(first, int(second), size, fixed)
        else:
            spec = _m_layout(first, second, size)
    except RangeError as exc:
        raise TableFormatError(f"malformed table record: {exc}") from None
    if off != len(buf):
        raise TableFormatError("trailing bytes after table record")
    return FuzzyLut(spec=spec, entries=entries, fixed=fixed)


def save_table(lut: FuzzyLut, path) -> int:
    """Write ``dump_table(lut)`` to ``path``; returns the bytes written."""
    with opened(path, "wb") as fh:
        return fh.write(dump_table(lut))


def load_table_file(path) -> FuzzyLut:
    with opened(path, "rb") as fh:
        return load_table(fh.read())
