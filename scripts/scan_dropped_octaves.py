"""Exhaustive check that the sized D and DL tables keep every result.

The tanh and GELU D/DL cells tabulate only the octaves their function
needs and saturate above them (tanh to +-1, GELU to x, and to +0 at -x).
This script builds the tables as they were, the same layout carried up
to 32 octaves (D: [2^-16, 2^16), DL: D part [1, 2^32)), runs each cell's
step on them, and compares the result bits with the evaluator's pipeline
on every float32 of each octave the sized table drops, both signs.  It
scans every dropped octave at the default mant_bits, and the first
dropped octave at each mant_bits of the table-sweep ladder.  Exit status
1 on any mismatch.

    PYTHONPATH=src python scripts/scan_dropped_octaves.py
"""

from __future__ import annotations

import sys
import time
from functools import partial

import numpy as np

from pimfuncs import EvaluatorConfig, FunctionId, MethodId, build_evaluator
from pimfuncs import api, lut

OLD_OCTAVES = {MethodId.DLUT_INTERP: (-16, 16),
               MethodId.DLLUT_INTERP: (0, 32)}
DEFAULT_MANT_BITS = EvaluatorConfig(method=MethodId.DLUT_INTERP).mant_bits
LADDER = (2, 4, 6, 8, 10, 12)  # the table-sweep workload's mant_bits
CHUNK = 1 << 20  # float32 values per comparison


def old_pipeline(function: FunctionId, method: MethodId, mant_bits: int):
    """The cell's step on its table of 32 octaves, with no saturation."""
    host, *_, step = api._D_CELLS[function]
    if method is MethodId.DLLUT_INTERP:
        table = lut.build_dllut(host, *OLD_OCTAVES[method], mant_bits)
        query = lut.dllut_query_interp
    else:
        table = lut.build_dlut(host, *OLD_OCTAVES[method], mant_bits)
        query = lut.dlut_query_interp
    return partial(step, partial(query, table), table.spec.lo)


def scan_octave(old, new, exponent: int) -> int:
    """Mismatched result bits over every float32 in +-[2^e, 2^(e+1))."""
    first = (exponent + 127) << 23
    mismatches = 0
    for start in range(first, first + (1 << 23), CHUNK):
        bits = np.arange(start, start + CHUNK, dtype=np.uint32)
        for sign in (0, 1 << 31):
            x = (bits | np.uint32(sign)).view(np.float32).astype(np.float64)
            a, b = old(x), new(x)
            mismatches += int(np.count_nonzero(
                a.view(np.uint32) != b.view(np.uint32)))
    return mismatches


def main() -> int:
    total = 0
    for function in (FunctionId.TANH, FunctionId.GELU):
        for method in OLD_OCTAVES:
            for mant_bits in sorted({DEFAULT_MANT_BITS, *LADDER}):
                new = build_evaluator(function, EvaluatorConfig(
                    method=method, mant_bits=mant_bits))
                top = new.tables[0].spec.hi_exponent
                octaves = range(top, OLD_OCTAVES[method][1])
                if mant_bits != DEFAULT_MANT_BITS:
                    octaves = octaves[:1]
                old = old_pipeline(function, method, mant_bits)
                t0 = time.perf_counter()
                bad = sum(scan_octave(old, new.pipeline, e) for e in octaves)
                total += bad
                print(f"{function.value} {method.value} mant_bits={mant_bits}: "
                      f"octaves [2^{octaves[0]}, 2^{octaves[-1] + 1}), "
                      f"{len(octaves) << 24} values, {bad} mismatches "
                      f"({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"total mismatches: {total}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
