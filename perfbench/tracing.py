"""Timing and tracing from outside the library, by wrapping public functions.

The library is never edited: wrappers replace a function object in every
``pimfuncs`` module namespace that refers to it, so names imported with
``from .x import f`` are covered too.  Evaluator closures capture their
query functions when they are built, so wrappers must be installed before
the evaluators they should see are built.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from pimfuncs import (api, combined, cordic, costmodel, fixedpoint, harness,
                      lut, rangeext)
from pimfuncs.costmodel import OpCounts, counting


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pimfuncs" or name.startswith("pimfuncs."))]


class Patches:
    """Replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement) -> None:
        """Rebind every package-level name that refers to ``original``."""
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# Set-up timing (always on)
# ---------------------------------------------------------------------------

BUILD_ENTRIES = ((api, "build_evaluator"), (lut, "build_mlut"),
                 (lut, "build_llut"), (lut, "build_fixed_llut"),
                 (lut, "build_dlut"), (lut, "build_dllut"),
                 (combined, "build_cordic_lut"))


def modelled_bytes(built) -> int:
    """Modelled device table memory of whatever a build entry returned."""
    if isinstance(built, api.Evaluator):
        return built.setup.bytes
    if isinstance(built, lut.FuzzyLut):
        return lut.lut_memory_bytes(built)
    return combined.cordic_lut_memory_bytes(built)


class BuildTimer:
    """Wall time and modelled bytes of table/evaluator builds.

    Fires once per table: a build nested in another build (an L-LUT inside
    ``build_evaluator``) is part of the outer one.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._depth = 0
        self.seconds = 0.0
        self.bytes = 0

    def install(self, patches: Patches) -> None:
        for mod, name in BUILD_ENTRIES:
            original = getattr(mod, name)
            patches.replace(original, self._wrap(original))

    def _wrap(self, fn):
        def timed_build(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            start = self._clock()
            try:
                built = fn(*args, **kwargs)
            finally:
                self._depth = 0
                self.seconds += self._clock() - start
            self.bytes += modelled_bytes(built)
            return built
        return timed_build

    def take(self) -> tuple[float, int]:
        """Return and reset (seconds, bytes) accumulated since the last take."""
        out = (self.seconds, self.bytes)
        self.seconds, self.bytes = 0.0, 0
        return out


# ---------------------------------------------------------------------------
# Layer tracing (``--trace 1`` only)
# ---------------------------------------------------------------------------

@dataclass
class LayerStat:
    calls: int = 0
    seconds: float = 0.0  # inclusive span time
    self_seconds: float = 0.0  # span time not covered by child spans
    errors: int = 0  # exceptions that left the span
    units: int = 0  # elements (batch) or iterations (CORDIC)
    counts: OpCounts = field(default_factory=OpCounts)  # inclusive op counts


class _Frame:
    __slots__ = ("layer", "span_id", "child_seconds")

    def __init__(self, layer: str, span_id: int):
        self.layer = layer
        self.span_id = span_id
        self.child_seconds = 0.0


class Tracer:
    """Spans around calls into each layer, aggregated per ``layer.kind`` key.

    Spans are recorded only below a root span that the benchmark opens
    around its own work (a request, a set-up phase, the edge slice), so its
    checks and reference computations stay untraced.  A call made from
    inside a span of the same layer belongs to that span, and a build is
    opaque: only nested builds are spanned inside it.  Self time is a
    span's duration minus the durations of its child spans, which on one
    thread nest inside it.  Op counts are attributed by a nested
    ``counting()`` that folds back into the caller's context.
    """

    def __init__(self, clock=time.perf_counter, keep_spans: int = 20_000):
        self._clock = clock
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._open_builds = 0
        self.keep_spans = keep_spans
        self.stats: dict[str, LayerStat] = defaultdict(LayerStat)
        self.spans: list[tuple] = []  # (id, parent, request, key, start, end)
        self.request_id = 0
        self.tally_calls = 0

    def wrap(self, key: str, fn, units=None, root: bool = False):
        layer = key.partition(".")[0]
        build = key.endswith(".build")
        stat = self.stats[key]
        stack = self._stack

        def traced(*args, **kwargs):
            if not root and (not stack or stack[-1].layer == layer
                             or (self._open_builds and not build)):
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = _Frame(layer, self._next_id)
            stack.append(frame)
            self._open_builds += build
            start = self._clock()
            try:
                with counting() as ops:
                    return fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = self._clock()
                stack.pop()
                self._open_builds -= build
                duration = end - start
                stat.calls += 1
                stat.seconds += duration
                stat.self_seconds += duration - frame.child_seconds
                stat.counts += ops
                if units is not None:
                    stat.units += units(args)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_seconds += duration
                if len(self.spans) < self.keep_spans:
                    self.spans.append((frame.span_id,
                                       parent.span_id if parent else 0,
                                       self.request_id, key, start, end))
        return traced

    def root(self, key: str, request_id: int, fn, *args):
        """Run benchmark work (``bench.<kind>``) as a root span."""
        self.request_id = request_id
        return self.wrap(key, fn, root=True)(*args)

    def counted_tally(self, original):
        def tally(name: str, n: int = 1) -> None:
            if self._stack:
                self.tally_calls += 1
            original(name, n)
        return tally

    def install(self, patches: Patches) -> None:
        """Wrap every layer's public entry points (builds must come later)."""
        ev = api.Evaluator
        patches.set(ev, "evaluate", self.wrap("api.evaluate", ev.evaluate))
        patches.set(ev, "evaluate_batch",
                    self.wrap("api.batch", ev.evaluate_batch,
                              units=lambda a: int(np.size(a[1]))))
        n_iter = lambda a: a[0].n_iter  # noqa: E731 - tables carry n_iter
        entries = [
            ("api.build", api, ("build_evaluator",), None),
            ("harness.driver", harness, ("run_blackscholes",), None),
            ("lut.query", lut, ("mlut_query", "mlut_query_interp", "llut_query",
                                "llut_query_interp", "fixed_llut_query",
                                "fixed_llut_query_interp", "dlut_query_interp",
                                "dllut_query_interp"), None),
            ("lut.build", lut, ("build_mlut", "build_llut", "build_fixed_llut",
                                "build_dlut", "build_dllut"), None),
            ("cordic.rotate", cordic, ("cordic_rotate", "cordic_vector"), n_iter),
            ("combined.rotate", combined, ("cordic_lut_rotate",), n_iter),
            ("combined.build", combined, ("build_cordic_lut",), None),
            ("rangeext.call", rangeext, ("reduce_2pi", "quadrant_reduce",
                                         "quadrant_adjust", "log_extend",
                                         "exp_split", "exp_extend",
                                         "sqrt_reduce", "sqrt_extend",
                                         "reflect_odd"), None),
            ("fixedpoint.call", fixedpoint, ("to_fixed", "to_float", "fixed_add",
                                             "fixed_sub", "fixed_shift",
                                             "fixed_mul", "split_float"), None),
            ("fixedpoint.ldexp", fixedpoint, ("ldexp32",), None),
        ]
        for key, mod, names, units in entries:
            for name in names:
                original = getattr(mod, name)
                patches.replace(original, self.wrap(key, original, units))
        patches.replace(costmodel.tally, self.counted_tally(costmodel.tally))

    def snapshot(self) -> dict[str, LayerStat]:
        return {k: LayerStat(v.calls, v.seconds, v.self_seconds, v.errors,
                             v.units, v.counts + OpCounts())
                for k, v in self.stats.items()}
