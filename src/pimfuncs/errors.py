"""Exception types shared across the library, and its refusal rules."""

import numbers
import os
from contextlib import contextmanager

import numpy as np


class PimFuncsError(Exception):
    """Base class for all library errors."""


class RangeError(PimFuncsError):
    """Input falls outside the covered range of a method or format."""


class DomainError(PimFuncsError):
    """Input is outside the mathematical domain of the function."""


class FixedOverflowError(PimFuncsError):
    """A fixed-point operation produced a value outside the representable range."""


class UnsupportedCombinationError(PimFuncsError):
    """The requested (function, method) pair is not in the support matrix."""


class TableFormatError(PimFuncsError, ValueError):
    """A serialized table is truncated, malformed or inconsistent."""


class WeightError(PimFuncsError, ValueError):
    """A weight profile names an unknown op, holds a weight that is not a
    finite number >= 0, or does not parse."""


class PathError(PimFuncsError, OSError):
    """A file path is not a path, or opening, reading or writing it failed."""


def refuse(bad, values, error, message: str, *args) -> None:
    """Raise ``error`` for the whole array if ``bad`` holds anywhere, with
    ``message`` formatted with the first offending element of the array
    ``values`` (as a Python number), then ``args``."""
    if np.count_nonzero(bad):
        raise error(message.format(values[bad][0].item(), *args))


def integral(name: str, value) -> int:
    """``value`` as an int; RangeError unless it is an integer (a numpy
    integer included), and a bool is not one.  An exact int skips the
    slower ABC check."""
    if type(value) is not int and (isinstance(value, bool) or not
                                   isinstance(value, numbers.Integral)):
        raise RangeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """``value`` as a double; RangeError unless it is a real number (a
    numpy scalar included, not an array or a bool) that converts to one;
    an exact float skips the ABC check, as in :func:`integral`."""
    if type(value) is not float and (isinstance(value, bool) or not
                                     isinstance(value, numbers.Real)):
        raise RangeError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise RangeError(f"{name} is beyond the doubles") from None


@contextmanager
def opened(path, mode: str, **kwargs):
    """``open(path, mode, **kwargs)`` of a str, bytes or os.PathLike path
    (an int, a file descriptor to ``open``, is refused), with any OSError
    of opening it or inside the block re-raised as PathError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise PathError(f"not a file path: {path!r}")
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise PathError(f"{os.fsdecode(path)}: {exc.strerror or exc}") from exc
