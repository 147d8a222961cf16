"""Abstract operation accounting.

Kernels call :func:`tally` explicitly, so instrumented runs produce results
that are bit-identical to uninstrumented ones.  When no counting context is
active, tallying is a no-op.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, fields

# Relative op weights approximating hardware where a float multiply is far
# more expensive than an add.  Configurable, never presented as cycle truth.
DEFAULT_WEIGHTS = {
    "int_shift": 1.0,
    "int_add": 1.0,
    "int_mul": 8.0,
    "float_add": 4.0,
    "float_mul": 16.0,
    "float_div": 48.0,
    "ldexp_op": 2.0,
    "lut_lookup": 2.0,
    "table_setup_entries": 0.0,
}

# Cost charged per generated table entry when amortizing setup against
# per-call cost (see harness.amortization_crossover).
SETUP_ENTRY_WEIGHT = 4.0


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

    def total(self) -> int:
        return sum(getattr(self, f) for f in OP_FIELDS)

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


def with_counting(thunk):
    """Run ``thunk()`` under a fresh accumulator; return (result, OpCounts)."""
    with counting() as c:
        result = thunk()
    return result, c


def _check_weights(weights: dict) -> dict:
    for key, w in weights.items():
        if key not in OP_FIELDS:
            raise ValueError(f"unknown op field in weights: {key}")
        if not 0 <= w < float("inf"):  # NaN fails this too
            raise ValueError(f"weight {w} for {key} is not finite and >= 0")
    return weights


def weighted_cost(counts: OpCounts, weights: dict | None = None) -> float:
    weights = _check_weights(DEFAULT_WEIGHTS if weights is None else weights)
    return sum(weights.get(f, 0.0) * getattr(counts, f) for f in OP_FIELDS)


def load_weights(path) -> dict:
    """Parse a key=value weight profile file; '#' starts a comment."""
    weights = dict(DEFAULT_WEIGHTS)
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            weights[key.strip()] = float(value)
    return _check_weights(weights)
