"""Record the per-cell error tolerances the benchmark checks outputs against.

Usage, from the repository root:

    python3 perfbench/record_tolerances.py

For every cell the workloads evaluate, this measures the largest mixed
error (absolute below magnitude 1, relative above) over a fixed sample of
its default domain and writes ``TOL_FACTOR`` times that to
``perfbench/tolerances.json``.  For Black-Scholes it records the largest
normalized RMSE over a fixed set of books.  The tolerance describes how
accurate each cell is on ordinary inputs; the edge slice is then judged
against it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from pimfuncs import build_evaluator, harness  # noqa: E402

from perfbench.benchmath import mixed_errors, reference  # noqa: E402
from perfbench.workloads import (CELLS, SWEEP, TOLERANCES, Blackscholes,  # noqa: E402
                                 cell_key)

TOL_FACTOR = 4.0
SAMPLES = 8192
SEED = 20230404  # not one of the small seeds the benchmark is run with
BOOKS = 32


def cell_tolerance(function, cfg) -> float:
    lo, hi = harness.DEFAULT_DOMAINS[function]
    xs = np.random.default_rng(SEED).uniform(lo, hi, SAMPLES).astype(np.float32)
    out, _ = build_evaluator(function, cfg).evaluate_batch(xs)
    return TOL_FACTOR * float(np.max(mixed_errors(out, reference(function, xs))))


def main() -> None:
    tol = {}
    for function, cfg in CELLS + SWEEP:
        tol[cell_key(function, cfg)] = cell_tolerance(function, cfg)
    bs = Blackscholes
    worst = max(harness.run_blackscholes(bs.book, bs.variant, SEED + i).rmse
                for i in range(BOOKS))
    tol[f"blackscholes/{bs.variant}/{bs.book}"] = TOL_FACTOR * worst
    record = {"factor": TOL_FACTOR, "samples": SAMPLES, "seed": SEED,
              "books": BOOKS, "tolerance": tol}
    TOLERANCES.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(tol)} tolerances to {TOLERANCES.name}")


if __name__ == "__main__":
    main()
