"""Abstract operation accounting.

Kernels call :func:`tally` explicitly, so instrumented runs produce results
that are bit-identical to uninstrumented ones.  When no counting context is
active, tallying is a no-op.
"""

from __future__ import annotations

import numbers
import sys
from collections.abc import Mapping
from contextvars import ContextVar
from dataclasses import dataclass, fields
from types import MappingProxyType

from .errors import UnsupportedCombinationError, WeightError, opened

# Relative op weights approximating hardware where a float multiply is far
# more expensive than an add.  Configurable, never presented as cycle truth;
# read-only, so a caller's profile is a copy.
DEFAULT_WEIGHTS = MappingProxyType({
    "int_shift": 1.0,
    "int_add": 1.0,
    "int_mul": 8.0,
    "float_add": 4.0,
    "float_mul": 16.0,
    "float_div": 48.0,
    "ldexp_op": 2.0,
    "lut_lookup": 2.0,
    "table_setup_entries": 0.0,
})


@dataclass
class OpCounts:
    int_add: int = 0
    int_shift: int = 0
    int_mul: int = 0
    float_add: int = 0
    float_mul: int = 0
    float_div: int = 0
    ldexp_op: int = 0
    lut_lookup: int = 0
    table_setup_entries: int = 0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(**{f: getattr(self, f) + getattr(other, f) for f in OP_FIELDS})

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        for f in OP_FIELDS:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in OP_FIELDS}


OP_FIELDS = tuple(f.name for f in fields(OpCounts))


@dataclass
class SetupReport:
    wall_seconds: float = 0.0
    bytes: int = 0
    table_entries: int = 0


# Stack of active accumulators, one per thread or task; tallies always go
# to the innermost one and are folded into the parent when the context
# exits.
_stack: ContextVar[tuple] = ContextVar("pimfuncs_counting", default=())


def tally(name: str, n: int = 1) -> None:
    stack = _stack.get()
    if stack:
        c = stack[-1]
        setattr(c, name, getattr(c, name) + n)


class counting:
    """``with counting() as c``: a fresh OpCounts ``c`` takes every tally
    made inside, and on exit, exception or not, is folded into the
    enclosing one."""

    __slots__ = ("counts", "token")

    def __enter__(self) -> OpCounts:
        self.counts = OpCounts()
        self.token = _stack.set(_stack.get() + (self.counts,))
        return self.counts

    def __exit__(self, *exc_info) -> None:
        _stack.reset(self.token)
        stack = _stack.get()
        if stack:
            parent = stack[-1]
            parent += self.counts  # OpCounts.__iadd__ adds in place


def _check_weights(weights) -> dict:
    if not isinstance(weights, Mapping):
        raise WeightError(f"weights must be a mapping, got {weights!r}")
    for key, w in weights.items():
        if key not in OP_FIELDS:
            raise WeightError(f"unknown op field in weights: {key!r}")
        # NaN fails the bound too, and so does an int beyond the doubles
        if not (isinstance(w, numbers.Real) and 0 <= w <= sys.float_info.max):
            raise WeightError(f"weight {w!r} for {key} is not finite and >= 0")
    return weights


def weighted_cost(counts: OpCounts, weights: Mapping | None = None) -> float:
    if not isinstance(counts, OpCounts):
        raise UnsupportedCombinationError(
            f"counts must be an OpCounts, got {counts!r}")
    weights = _check_weights(DEFAULT_WEIGHTS if weights is None else weights)
    return sum(weights.get(f, 0.0) * getattr(counts, f) for f in OP_FIELDS)


def load_weights(path) -> dict:
    """Parse a key=value weight profile file; '#' starts a comment."""
    weights = dict(DEFAULT_WEIGHTS)
    # Bytes that are not UTF-8 read as U+FFFD, which no key or float has.
    with opened(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            try:
                weights[key.strip()] = float(value)
            except ValueError:
                raise WeightError(f"malformed weight line {line!r}") from None
    return _check_weights(weights)
