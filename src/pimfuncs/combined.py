"""Combined CORDIC + LUT evaluation.

A coarse start table replaces the first ``lut_addr_bits`` CORDIC
iterations: the rotation target's top bits address a cell holding the
exactly pre-rotated vector (scaled by the inverse gain of the iterations
that remain) together with the angle already consumed.  Each coordinate
is libm's, of the mode's rotation (``cordic.MODES``), times that gain,
rounded once to Q3.28.  Evaluation then runs only the remaining fine
iterations, so per-call cost drops while the angle resolution of the
skipped iterations is preserved exactly.  The fine iterations are the
plain CORDIC loop, over int64 arrays of raw Q3.28 values, which
:func:`cordic_lut_rotate` takes and returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .cordic import (MODES, CordicMode, CordicTables, _angle_bytes, _iterate,
                     generate_cordic_tables)
from .costmodel import tally
from .errors import RangeError
from .fixedpoint import FRAC_BITS, check_raw, fixed_shift, fixed_sub, to_fixed
from .lut import mapped, tabulate

# Start-table angles cover [0, 2], enough for any quadrant-reduced circular
# angle and for the hyperbolic residuals the pipelines produce.
TABLE_SPAN = 2.0
TABLE_SPAN_RAW = int(to_fixed(TABLE_SPAN))


@dataclass(frozen=True)
class CordicLutTables:
    cells: np.ndarray  # int64 (x_raw, y_raw, theta_raw) per cell, one row each
    rem_tables: CordicTables  # fine iterations from index b = lut_addr_bits
    density_n: int  # b - 1: 2**b + 1 cells at density 2**(b-1)

    @property
    def n_iter(self) -> int:
        return self.rem_tables.n_iter


def _scaled(host, scale: float, x: np.ndarray) -> np.ndarray:
    """``host(x) * scale``, the host of a start-table column."""
    return host(x) * scale


def build_cordic_lut(mode: CordicMode, lut_addr_bits: int,
                     n_iter: int = 28) -> CordicLutTables:
    """Build the start table plus the remaining-iteration angle table.

    ``n_iter`` is the total effective precision; the loop at evaluation
    time performs ``n_iter - lut_addr_bits`` iterations, at least one and
    at most the plain mode's largest ``n_iter``.
    """
    b = lut_addr_bits
    if not (2 <= b <= 20):
        raise RangeError(f"lut_addr_bits {b} outside [2, 20]")
    top = b + MODES[mode].max_iter
    if not (b < n_iter <= top):
        raise RangeError(f"{mode.value} n_iter {n_iter} outside "
                         f"[{b + 1}, {top}] with lut_addr_bits {b}")

    rem = generate_cordic_tables(mode, n_iter - b, first_index=b)
    inv_g_rem = 1.0 / rem.gain
    count = (1 << b) + 1  # guard cell at theta = TABLE_SPAN
    step = TABLE_SPAN / (1 << b)
    theta = lambda a: a * step  # exact: step is a power of two
    cells = np.stack([
        *(tabulate(partial(_scaled, partial(mapped, f), inv_g_rem), theta,
                   count, fixed=True) for f in MODES[mode].rotation),
        to_fixed(theta(np.arange(count)))], axis=1)
    tally("table_setup_entries", count * 3)
    return CordicLutTables(cells=cells, rem_tables=rem, density_n=b - 1)


def cordic_lut_rotate(tables: CordicLutTables, theta: np.ndarray):
    """Rotation via start-table lookup plus the remaining fine iterations.

    ``theta`` is an int64 array of raw Q3.28 angles in [0, TABLE_SPAN];
    the results are int64 raw arrays that must stay inside Q3.28.
    """
    bad = (theta < 0) | (theta > TABLE_SPAN_RAW)
    if np.count_nonzero(bad):
        raise RangeError(f"theta {theta[bad][0] / (1 << FRAC_BITS):.6f} "
                         f"outside start-table span [0, {TABLE_SPAN}]")
    shift = FRAC_BITS - tables.density_n
    tally("int_add", theta.size)
    a = fixed_shift(theta + (1 << (shift - 1)), shift)  # nearest cell
    tally("lut_lookup", theta.size)
    x, y, consumed = tables.cells[a].T
    x, y, _ = _iterate(tables.rem_tables, x, y, fixed_sub(theta, consumed))
    return check_raw(x), check_raw(y)


def rotator(tables: CordicLutTables):
    """Rotator over the start table, which covers only [0, TABLE_SPAN]:
    angles t < 0 rotate by |t| and negate y (cosh is even, sinh odd)."""
    def rotate(theta):
        x, y = cordic_lut_rotate(tables, np.abs(theta))
        return x, np.where(theta < 0, -y, y)
    return rotate


def cordic_lut_memory_bytes(tables: CordicLutTables) -> int:
    return len(tables.cells) * 3 * 4 + _angle_bytes(tables.rem_tables)
