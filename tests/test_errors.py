"""The one refusal rule for arrays: every array check raises a library
error for the whole array, and its message names the first bad element.
And the one way the library opens a file: a path that is not one, or
that cannot be opened, read or written, raises PathError."""

import math
import os
from functools import partial

import numpy as np
import pytest

from pimfuncs import combined, cordic, fixedpoint, harness, lut, rangeext
from pimfuncs.cordic import CordicMode
from pimfuncs.costmodel import load_weights
from pimfuncs.errors import PathError, PimFuncsError

SIN = partial(lut.mapped, math.sin)
_CIRC = cordic.generate_cordic_tables(CordicMode.CIRCULAR, 28)
_HYP = cordic.generate_cordic_tables(CordicMode.HYPERBOLIC, 28)
_M = lut.build_mlut(SIN, 0.0, 5.0, 64)
_D = lut.build_dlut(SIN, -8, 8, 6)
_DL = lut.build_dllut(SIN, 0, 3, 6)
_START = combined.build_cordic_lut(CordicMode.CIRCULAR, 6, 28)
_ONE = 1 << fixedpoint.FRAC_BITS


# Site -> (check taking one array, a good element, a bad element, the text
# naming the bad element in the message).
_SITES = {
    "to_fixed-range": (fixedpoint.to_fixed, 0.5, 9.0, "9.0"),
    "to_fixed-rounding": (fixedpoint.to_fixed, 0.5, 8.0 - 2.0 ** -30,
                          repr(8.0 - 2.0 ** -30)),
    "check_raw": (fixedpoint.check_raw, 5, 1 << 31, str(1 << 31)),
    "split_float": (fixedpoint.split_float, 1.5, -2.0, "-2.0"),
    "lut-check_range": (lambda x: lut._check_range(_M, x), 1.0, 7.5, "7.5"),
    "dlut_address": (lambda x: lut._dlut_address(
        _D.spec, x.astype(np.float32)), 1.0, 300.0, "300.0"),
    "dllut_query_interp": (lambda x: lut.dllut_query_interp(_DL, x),
                           1.0, -0.5, "-0.5"),
    "reduce_2pi": (rangeext.reduce_2pi, 1.0, -math.inf, "-inf"),
    "exp_split": (rangeext.exp_split, 1.0, math.nan, "nan"),
    "cordic_rotate": (lambda t: cordic.cordic_rotate(_CIRC, t),
                      _ONE // 2, 3 * _ONE, "theta 3.000000"),
    "cordic_vector-x0": (lambda x0: cordic.cordic_vector(
        _HYP, x0, np.zeros_like(x0)), _ONE, -_ONE, str(-_ONE)),
    "cordic_vector-ratio": (lambda y0: cordic.cordic_vector(
        _HYP, np.full_like(y0, _ONE), y0), _ONE // 2, 9 * _ONE // 10,
        "atanh/atan(0.9000)"),
    "cordic_lut_rotate": (lambda t: combined.cordic_lut_rotate(_START, t),
                          _ONE, 5 * _ONE // 2, str(5 * _ONE // 2)),
}


@pytest.mark.parametrize("site", sorted(_SITES))
def test_refusal_names_the_bad_element(site):
    check, good, bad, named = _SITES[site]
    dtype = np.int64 if isinstance(good, int) else np.float64
    check(np.array([good], dtype=dtype))
    with pytest.raises(PimFuncsError) as info:
        check(np.array([good, bad], dtype=dtype))
    assert named in str(info.value)


# Every library function that takes a file path, called on ``path``.
_PATH_CALLS = {
    "load_weights": load_weights,
    "load_table_file": lut.load_table_file,
    "save_table": partial(lut.save_table, _M),
    "emit_csv": partial(harness.emit_csv, []),
}


def _closed_descriptor(tmp_path) -> int:
    """A descriptor number this test opened and closed, never 0-2."""
    fd = os.open(tmp_path / "closed", os.O_WRONLY | os.O_CREAT)
    os.close(fd)
    assert fd > 2
    return fd


# A path that is not one, or names no file that can be opened as asked.
_BAD_PATHS = {
    "missing": lambda tmp_path: tmp_path / "missing" / "file",
    "directory": lambda tmp_path: tmp_path,
    "none": lambda tmp_path: None,
    "closed-descriptor": _closed_descriptor,
}


@pytest.mark.parametrize("path", sorted(_BAD_PATHS))
@pytest.mark.parametrize("call", sorted(_PATH_CALLS))
def test_bad_path_raises_path_error(tmp_path, call, path):
    """A PathError is an OSError too, so callers that catch OSError (the
    CLI among them) keep working; an int is never taken as a descriptor."""
    bad = _BAD_PATHS[path](tmp_path)
    with pytest.raises(PathError) as info:
        _PATH_CALLS[call](bad)
    assert isinstance(info.value, OSError)
    if isinstance(bad, os.PathLike):
        assert str(bad) in str(info.value)
