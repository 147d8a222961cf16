"""The three benchmark workloads.

Each workload is a closed loop of requests issued one at a time by one
client, grouped into passes.  Pass ``p`` draws its inputs from
``(seed, p, i)`` only, so re-running a pass reproduces it exactly.  The
first ``quality_passes`` passes warm caches and supply the count and
accuracy metrics; they are re-run at the end to check determinism.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pimfuncs import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                      OpCounts, api, counting, harness, supported)

from .benchmath import classify, geomean, mixed_errors, reference

TOLERANCES = Path(__file__).with_name("tolerances.json")

# Every supported (function, method, format) cell at default config.
CELLS = tuple((f, EvaluatorConfig(method=m, number_format=fmt))
              for m in MethodId for f in FunctionId for fmt in NumberFormat
              if supported(f, m, fmt))

_SUBNORMALS = (1e-45, 1e-40, 1e-39, 1.1754942e-38)
EDGE_VALUES = tuple(np.float32(v) for v in (
    (0.0, -0.0) + tuple(s * v for v in _SUBNORMALS for s in (1.0, -1.0))
    + (89.0, -89.0, 1e4, -1e4, 1e10, -1e10, 3e38, -3e38,
       math.inf, -math.inf, math.nan)))


# Address space an edge evaluation may add to the process.  ``ldexp32``
# builds a 2**|exponent| mask, so exp(-1e10) would otherwise allocate
# gigabytes; under the cap it ends in MemoryError and is counted as failed.
EDGE_HEADROOM = 512 << 20


@contextmanager
def address_space_cap(headroom: int):
    """Limit this process's address space to its current size + headroom."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        current = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    cap = current + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def build_all() -> list:
    return [api.build_evaluator(f, cfg) for f, cfg in CELLS]


def cell_key(function: FunctionId, cfg: EvaluatorConfig) -> str:
    """Stable name of a cell, including the parameter that sizes it."""
    if cfg.method in (MethodId.CORDIC, MethodId.CORDIC_LUT):
        size = cfg.n_iter
    elif cfg.method in (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP):
        size = cfg.mant_bits
    else:
        size = cfg.lut_size
    return f"{function.value}/{cfg.method.value}/{cfg.number_format.value}/{size}"


def load_tolerances() -> dict[str, float]:
    with open(TOLERANCES) as fh:
        return json.load(fh)["tolerance"]


@dataclass
class PassRecord:
    """What one pass did: request timings, op counts, accuracy and checks."""

    tracer: object = None
    latencies: list = field(default_factory=list)  # seconds per request
    setup: list = field(default_factory=list)  # build seconds per set-up unit
    requests: int = 0
    failed_requests: int = 0
    elements: int = 0
    counts: OpCounts = field(default_factory=OpCounts)
    table_bytes: int = 0
    squared_errors: dict = field(default_factory=dict)  # cell: [sum, count]
    attempted: int = 0  # main-body elements whose result was classified
    failed_elements: int = 0
    edge_attempted: int = 0  # edge-slice evaluations
    edge_failed: int = 0
    failures: list = field(default_factory=list)  # (cell, input, kind)
    identity_checked: int = 0
    identity_mismatches: list = field(default_factory=list)
    digest: object = field(default_factory=hashlib.sha256)

    def traced(self, kind: str, fn, *args):
        """Run benchmark work, as a root span when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.root(f"bench.{kind}", self.requests, fn, *args)

    def timed(self, fn, *args):
        """Issue one request and record its latency."""
        start = time.perf_counter()
        out = self.traced("request", fn, *args)
        self.latencies.append(time.perf_counter() - start)
        self.requests += 1
        return out

    def check_outputs(self, cell: str, function: FunctionId, xs, out,
                      tol: float) -> int:
        """Classify each output against the reference; returns failures.

        Outputs within ``tol`` of a finite reference pass outright; the
        rest go through ``classify``.
        """
        ref = reference(function, xs)
        failed = 0
        for i in np.flatnonzero(~(mixed_errors(out, ref) <= tol)):
            kind = classify(out[i], float(ref[i]), tol)
            if kind is not None:
                self.failures.append((cell, float(xs[i]), kind))
                failed += 1
        self.attempted += len(xs)
        self.failed_elements += failed
        err = out.astype(np.float64) - ref
        self.add_squared_error(cell, float(np.sum(err * err)), len(xs))
        return failed

    def add_squared_error(self, cell: str, total: float, count: int) -> None:
        acc = self.squared_errors.setdefault(cell, [0.0, 0])
        acc[0] += total
        acc[1] += count

    def rmse(self) -> float:
        """Geometric mean over cells of each cell's RMSE."""
        return geomean(math.sqrt(total / count)
                       for total, count in self.squared_errors.values())

    def add_digest(self, out: np.ndarray, counts: OpCounts) -> None:
        self.digest.update(np.ascontiguousarray(out, dtype=np.float32).tobytes())
        self.digest.update(repr(sorted(counts.as_dict().items())).encode())


class Blackscholes:
    """Books of European calls priced by ``harness.run_blackscholes``.

    Scalar ``evaluate`` path; each request rebuilds its exp/log/sqrt/CNDF
    tables, so one request is one set-up sample.  A book of 1,500 options,
    the size the library's own tests price, keeps those builds near 5% of a
    request (about a third with 128 options), so evaluation dominates.
    """

    name = "blackscholes"
    variant = "LLutInterp"
    book = 1500  # options per request
    books_per_pass = 8
    quality_passes = 1

    def __init__(self, seed: int, builds, tolerances: dict):
        self.seed = seed
        self.builds = builds
        self.tol = tolerances[f"blackscholes/{self.variant}/{self.book}"]

    def run_pass(self, p: int, rec: PassRecord) -> None:
        for i in range(self.books_per_pass):
            book_seed = int(np.random.SeedSequence([self.seed, p, i])
                            .generate_state(1)[0])
            self.builds.take()
            res = rec.timed(harness.run_blackscholes, self.book, self.variant,
                            book_seed)
            seconds, nbytes = self.builds.take()
            rec.setup.append(seconds)
            rec.table_bytes += nbytes
            rec.elements += self.book
            rec.counts += res.op_counts
            # pooled as the RMS of the books' normalized RMSEs
            rec.add_squared_error(self.name, res.rmse ** 2 * self.book, self.book)
            rec.attempted += self.book
            if not res.rmse <= self.tol:
                rec.failed_requests += 1
                rec.failed_elements += self.book
                rec.failures.append((f"blackscholes/{self.variant}", book_seed,
                                     "inaccurate"))
            rec.digest.update(repr((res.rmse, sorted(res.op_counts.as_dict()
                                                     .items()))).encode())


class CellMatrix:
    """One ``evaluate_batch`` request per supported cell, plus an edge slice.

    Every pass rebuilds all cells (one set-up sample per pass) and draws
    fresh inputs from ``harness.DEFAULT_DOMAINS``.  A seeded subset of each
    batch is re-evaluated through scalar ``evaluate`` to check that both
    paths agree bit for bit and count the same ops.
    """

    name = "cell-matrix"
    batch = 128
    subset = 4
    quality_passes = 4  # 512 inputs per cell for the accuracy figures

    def __init__(self, seed: int, builds, tolerances: dict):
        self.seed = seed
        self.builds = builds
        self.tols = [tolerances[cell_key(f, cfg)] for f, cfg in CELLS]

    def run_pass(self, p: int, rec: PassRecord) -> None:
        self.builds.take()
        evs = rec.traced("setup", build_all)
        seconds, nbytes = self.builds.take()
        rec.setup.append(seconds)
        rec.table_bytes += nbytes
        for c, ((f, cfg), ev, tol) in enumerate(zip(CELLS, evs, self.tols)):
            rng = np.random.default_rng([self.seed, p, c])
            lo, hi = harness.DEFAULT_DOMAINS[f]
            xs = rng.uniform(lo, hi, self.batch).astype(np.float32)
            out, counts = rec.timed(ev.evaluate_batch, xs)
            rec.elements += self.batch
            rec.counts += counts
            rec.add_digest(out, counts)
            if rec.check_outputs(cell_key(f, cfg), f, xs, out, tol):
                rec.failed_requests += 1
            self._check_identity(cell_key(f, cfg), ev, xs, out,
                                 rng.choice(self.batch, self.subset,
                                            replace=False), rec)

    @staticmethod
    def _check_identity(cell, ev, xs, out, idx, rec: PassRecord) -> None:
        sub = xs[idx]
        sub_out, sub_counts = ev.evaluate_batch(sub)
        with counting() as scalar_counts:
            scalar = np.asarray([ev.evaluate(x) for x in sub], dtype=np.float32)
        rec.identity_checked += len(sub)
        bits = (out[idx].view(np.uint32), sub_out.view(np.uint32),
                scalar.view(np.uint32))
        if not (np.array_equal(bits[0], bits[2]) and np.array_equal(bits[1], bits[2])):
            rec.identity_mismatches.append((cell, "outputs"))
        if scalar_counts != sub_counts:
            rec.identity_mismatches.append((cell, "op counts"))

    def edge_slice(self, rec: PassRecord) -> None:
        """Scalar-evaluate each edge value on every cell and classify it.

        ``evaluate_batch`` would abort the batch on the first exception,
        so edge values go one at a time.  They count toward ``ok_frac``
        only and never fail the run.
        """
        evs = build_all()
        self.builds.take()
        with np.errstate(all="ignore"), address_space_cap(EDGE_HEADROOM):
            for (f, cfg), ev, tol in zip(CELLS, evs, self.tols):
                for x in EDGE_VALUES:
                    try:
                        outcome = ev.evaluate(x)
                    except Exception as exc:  # classified, never re-raised
                        outcome = exc
                    kind = classify(outcome, float(reference(f, x)), tol)
                    rec.edge_attempted += 1
                    if kind is not None:
                        rec.edge_failed += 1
                        rec.failures.append((cell_key(f, cfg), float(x), kind))
                    shown = (type(outcome).__name__
                             if isinstance(outcome, Exception) else float(outcome))
                    rec.digest.update(repr((float(x), kind, shown)).encode())


# Float32 accuracy of the interpolated sine tables stops improving near
# 2**14 entries, so the ladder ends at 2**16; larger builds would only
# lengthen each pass (the fixed-format 2**20 build alone takes ~1.2 s).
LUT_LADDER = tuple(1 << k for k in range(4, 17, 2))  # 16 .. 2**16 entries
MANT_LADDER = (2, 4, 6, 8, 10, 12)  # D-family mantissa bits

SWEEP = tuple(
    [(FunctionId.SIN, EvaluatorConfig(method=m, number_format=fmt, lut_size=n))
     for m, fmt in ((MethodId.LLUT_INTERP, NumberFormat.FLOAT),
                    (MethodId.LLUT_INTERP, NumberFormat.FIXED),
                    (MethodId.MLUT_INTERP, NumberFormat.FLOAT))
     for n in LUT_LADDER]
    + [(FunctionId.TANH, EvaluatorConfig(method=m, mant_bits=b))
       for m in (MethodId.DLUT_INTERP, MethodId.DLLUT_INTERP)
       for b in MANT_LADDER])


def _build_and_sample(function, cfg, xs):
    return api.build_evaluator(function, cfg).evaluate_batch(xs)


class TableSweep:
    """Accuracy against table size: each request builds one table and
    evaluates a small seeded sample through it, so set-up dominates.
    One pass over the ladder is one set-up sample.
    """

    name = "table-sweep"
    # Large enough that evaluating it outweighs building the smaller
    # tables, so the median request sits among those rather than on the
    # step between cheap and expensive builds.
    sample = 256
    quality_passes = 1

    def __init__(self, seed: int, builds, tolerances: dict):
        self.seed = seed
        self.builds = builds
        self.tols = [tolerances[cell_key(f, cfg)] for f, cfg in SWEEP]
        self.largest_table = 0  # modelled bytes of the largest table built

    def run_pass(self, p: int, rec: PassRecord) -> None:
        self.builds.take()
        pass_seconds = 0.0
        for c, ((f, cfg), tol) in enumerate(zip(SWEEP, self.tols)):
            rng = np.random.default_rng([self.seed, p, c])
            lo, hi = harness.DEFAULT_DOMAINS[f]
            xs = rng.uniform(lo, hi, self.sample).astype(np.float32)
            out, counts = rec.timed(_build_and_sample, f, cfg, xs)
            seconds, nbytes = self.builds.take()
            pass_seconds += seconds
            rec.table_bytes += nbytes
            self.largest_table = max(self.largest_table, nbytes)
            rec.elements += self.sample
            rec.counts += counts
            rec.add_digest(out, counts)
            if rec.check_outputs(cell_key(f, cfg), f, xs, out, tol):
                rec.failed_requests += 1
        rec.setup.append(pass_seconds)


WORKLOADS = {w.name: w for w in (Blackscholes, CellMatrix, TableSweep)}
