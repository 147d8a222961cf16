import math

import numpy as np
import pytest

from pimfuncs.combined import (build_cordic_lut, cordic_lut_memory_bytes,
                               cordic_lut_rotate)
from pimfuncs.cordic import CordicMode, cordic_rotate, generate_cordic_tables
from pimfuncs.costmodel import with_counting
from pimfuncs.errors import RangeError
from pimfuncs.fixedpoint import to_fixed, to_float


def fx(*values) -> np.ndarray:
    """Raw Q3.28 int64 array of ``values``."""
    return to_fixed(values)


def fl(raw: np.ndarray) -> np.ndarray:
    """float64 values of a raw Q3.28 array."""
    return to_float(raw).astype(np.float64)


class TestBuild:
    def test_cell_count(self):
        t = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        assert len(t.cells) == 65  # 2**6 + guard

    def test_remaining_iterations_start_after_skip(self):
        t = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        assert t.rem_tables.schedule[0] == 6
        assert t.rem_tables.n_iter == 22

    def test_parameter_validation(self):
        with pytest.raises(RangeError):
            build_cordic_lut(CordicMode.CIRCULAR, 1, 28)
        with pytest.raises(RangeError):
            build_cordic_lut(CordicMode.CIRCULAR, 8, 8)

    def test_setup_entries_tallied(self):
        _, c = with_counting(lambda: build_cordic_lut(CordicMode.CIRCULAR, 4, 20))
        # 17 cells of 3 values, plus the remaining angle table
        assert c.table_setup_entries >= 17 * 3


class TestRotation:
    def test_circular_accuracy(self):
        t = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        theta = np.linspace(0.0, math.pi / 2, 173)
        x, y = map(fl, cordic_lut_rotate(t, fx(*theta)))
        np.testing.assert_allclose(y, np.sin(theta), rtol=0, atol=2e-7)
        np.testing.assert_allclose(x, np.cos(theta), rtol=0, atol=2e-7)

    def test_hyperbolic_accuracy(self):
        t = build_cordic_lut(CordicMode.HYPERBOLIC, 6, 28)
        theta = np.linspace(0.0, math.log(2.0), 87)
        x, y = map(fl, cordic_lut_rotate(t, fx(*theta)))
        np.testing.assert_allclose(x, np.cosh(theta), rtol=0, atol=3e-7)
        np.testing.assert_allclose(y, np.sinh(theta), rtol=0, atol=3e-7)

    def test_matches_full_cordic(self):
        hybrid = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        full = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        theta = fx(0.1, 0.77, 1.5)
        hx, hy = cordic_lut_rotate(hybrid, theta)
        cx, cy = cordic_rotate(full, theta)
        assert np.max(np.abs(hx - cx)) <= 64
        assert np.max(np.abs(hy - cy)) <= 64

    def test_out_of_span_raises(self):
        t = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        with pytest.raises(RangeError):
            cordic_lut_rotate(t, fx(-0.1))
        with pytest.raises(RangeError):
            cordic_lut_rotate(t, fx(2.1))


class TestCost:
    def test_no_multiplies(self):
        t = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        _, c = with_counting(lambda: cordic_lut_rotate(t, fx(1.0)))
        assert c.int_mul == 0
        assert c.float_mul == 0

    def test_cheaper_than_full_cordic(self):
        hybrid = build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
        full = generate_cordic_tables(CordicMode.CIRCULAR, 28)
        _, ch = with_counting(lambda: cordic_lut_rotate(hybrid, fx(1.0)))
        _, cf = with_counting(lambda: cordic_rotate(full, fx(1.0)))
        assert ch.int_shift < cf.int_shift
        assert ch.int_add < cf.int_add
        assert ch.lut_lookup == 1

    def test_memory_grows_with_address_bits(self):
        small = build_cordic_lut(CordicMode.CIRCULAR, 4, 28)
        large = build_cordic_lut(CordicMode.CIRCULAR, 8, 28)
        assert cordic_lut_memory_bytes(large) > cordic_lut_memory_bytes(small)
