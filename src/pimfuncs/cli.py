"""Command-line interface.

Subcommands:
  sweep     accuracy sweep over table sizes or iteration counts -> CSV
  workload  run one workload variant -> CSV
  table     dump an evaluator's lookup table to the binary format, or load one

Exit codes: 0 success, 2 unsupported (function, method) combination,
1 I/O or runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import lut
from .api import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                  build_evaluator, config_for)
from .costmodel import load_weights, weighted_cost
from .errors import PimFuncsError, UnsupportedCombinationError
from .harness import WORKLOADS, emit_csv, rmse_sweep


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pimfuncs",
                                description="Transcendental-function kernels "
                                            "with LUT/CORDIC backends")
    p.add_argument("--weights", help="op-weight profile (key=value lines)")
    sub = p.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="accuracy sweep, CSV output")
    sw.add_argument("--function", required=True,
                    choices=[f.value for f in FunctionId])
    sw.add_argument("--method", required=True,
                    choices=[m.value for m in MethodId])
    sw.add_argument("--sizes", required=True,
                    help="comma-separated table sizes or iteration counts")
    sw.add_argument("--format", default="float",
                    choices=[f.value for f in NumberFormat])
    sw.add_argument("--samples", type=int, default=1 << 16)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", required=True)
    sw.add_argument("--include-timing", action="store_true",
                    help="add wall-clock columns (breaks byte determinism)")

    wl = sub.add_parser("workload", help="run one workload variant, CSV output")
    wl.add_argument("--name", required=True, choices=sorted(WORKLOADS))
    wl.add_argument("--variant", required=True)
    wl.add_argument("--n", type=int, default=100_000,
                    help="input count; softmax runs whole rows of 1,024, at "
                         "least one (n=10 runs 1,024, n=3000 runs 2,048). "
                         "The CSV's n_elements is the count that ran")
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--out", required=True)
    wl.add_argument("--include-timing", action="store_true")

    tb = sub.add_parser("table", help="binary table dump/load")
    tb.add_argument("action", choices=["dump", "load"])
    tb.add_argument("--path", required=True)
    tb.add_argument("--function", default="sin",
                    choices=[f.value for f in FunctionId])
    tb.add_argument("--method", default="llut-interp",
                    choices=[m.value for m in MethodId
                             if m is not MethodId.CORDIC
                             and m is not MethodId.CORDIC_LUT])
    tb.add_argument("--format", default="float",
                    choices=[f.value for f in NumberFormat])
    tb.add_argument("--size", type=int,
                    help="table size, as in sweep --sizes (mantissa bits "
                         "for dlut/dllut); default: the evaluator's own")
    return p


def _cmd_sweep(args, weights) -> int:
    function = FunctionId(args.function)
    method = MethodId(args.method)
    fmt = NumberFormat(args.format)
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    reports = rmse_sweep(function, method, sizes, seed=args.seed,
                         number_format=fmt, n_samples=args.samples)
    emit_csv(reports, args.out, include_timing=args.include_timing)
    for r in reports:
        cost = weighted_cost(r.op_counts, weights) / r.n_samples
        print(f"{r.function}/{r.method}@{r.size_or_iters}: "
              f"rmse={r.rmse:.3e} max={r.max_abs_err:.3e} "
              f"cost/call={cost:.1f}")
    return 0


def _cmd_workload(args, weights) -> int:
    result = WORKLOADS[args.name][0](args.n, args.variant, seed=args.seed)
    emit_csv([result], args.out, include_timing=args.include_timing)
    cost = weighted_cost(result.op_counts, weights) / result.n_elements
    print(f"{result.workload}/{result.variant}: n={result.n_elements} "
          f"rmse={result.rmse:.3e} cost/element={cost:.1f}")
    return 0


def _cmd_table(args) -> int:
    if args.action == "load":
        table = lut.load_table_file(args.path)
        s = table.spec
        end = "]" if s.kind in ("M", "L") else ")"  # D/DL refuse hi
        print(f"kind={s.kind} fixed={table.fixed} "
              f"entries={len(table.entries)} "
              f"range=[{s.lo!r}, {s.hi!r}{end} bytes={lut.lut_memory_bytes(table)}")
        return 0

    method = MethodId(args.method)
    fmt = NumberFormat(args.format)
    cfg = (EvaluatorConfig(method=method, number_format=fmt)
           if args.size is None else config_for(method, fmt, args.size))
    ev = build_evaluator(FunctionId(args.function), cfg)
    if len(ev.tables) != 1:
        raise UnsupportedCombinationError(f"{args.function} holds "
                                          f"{len(ev.tables)} tables, not one")
    table, = ev.tables
    written = lut.save_table(table, args.path)
    print(f"wrote {written} bytes to {args.path} "
          f"(modelled device bytes {lut.lut_memory_bytes(table)})")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        weights = load_weights(args.weights) if args.weights else None
        if args.command == "sweep":
            return _cmd_sweep(args, weights)
        if args.command == "workload":
            return _cmd_workload(args, weights)
        return _cmd_table(args)
    except UnsupportedCombinationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PimFuncsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
