"""pimfuncs benchmark: host speed, modelled device cost and accuracy.

Usage, from the repository root:

    python3 perfbench/run.py --workload {blackscholes,cell-matrix,table-sweep,all} \\
        --seed N --seconds S --trace {0,1}

One process runs one workload as a closed loop: one client, one thread,
each request issued after the previous one returned; ``all`` runs each
workload in a child process of its own, one after the other.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer metrics
from a traced run and writes its spans to ``perfbench/out/``.  The last
line of standard output is a JSON object; the exit code is non-zero when
a correctness, identity or determinism check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
PREDICTIONS = Path(__file__).with_name("predictions.json")

WORKLOAD_NAMES = ("blackscholes", "cell-matrix", "table-sweep")
MIN_REQUESTS = 100  # so at least ten samples lie beyond the p90
OVERHEAD_SAMPLE = 200  # scalar calls per evaluator for costmodel.overhead_frac
OVERHEAD_REPEATS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import pimfuncs from this checkout's ``src``, single-threaded."""
    if not (SRC / "pimfuncs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pimfuncs sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import pimfuncs
    if Path(pimfuncs.__file__).resolve().parent != SRC / "pimfuncs":
        sys.exit(f"perfbench: imported pimfuncs from {pimfuncs.__file__}, "
                 f"not from {SRC}")


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unavailable (not a git checkout)"


def cpu_caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind != "Instruction":
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    return caches


def cache_bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else 0


def environment() -> dict:
    import numpy as np
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": model or platform.processor(),
            "nproc": len(os.sched_getaffinity(0)), "caches": cpu_caches()}


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------

def quality_pass(workload):
    """The quality passes plus the edge slice: count and accuracy metrics."""
    from perfbench.workloads import PassRecord
    rec = PassRecord()
    for p in range(workload.quality_passes):
        workload.run_pass(p, rec)
    if hasattr(workload, "edge_slice"):
        workload.edge_slice(rec)
    return rec


def quality_metrics(rec) -> dict:
    """Count and accuracy metrics.  ``ok_frac`` is the passing share of the
    edge slice where there is one: main-body failures already fail the run.
    """
    from pimfuncs import DEFAULT_WEIGHTS, weighted_cost
    c = rec.counts
    if rec.edge_attempted:
        ok_frac = 1.0 - rec.edge_failed / rec.edge_attempted
    else:
        ok_frac = 1.0 - rec.failed_elements / rec.attempted
    return {
        "cost_per_elem": weighted_cost(c, DEFAULT_WEIGHTS) / rec.elements,
        "mul_per_elem": (c.int_mul + c.float_mul) / rec.elements,
        "table_bytes": rec.table_bytes,
        "rmse": rec.rmse(),
        "ok_frac": ok_frac,
    }


def timed_loop(workload, seconds: float, first_pass: int, tracer=None):
    """Whole passes until the next one would overrun ``seconds``; an
    untraced loop also runs at least ``MIN_REQUESTS`` requests for its p90.

    Returns the accumulated record, each pass's (request latencies,
    elements, CPU), and the loop's wall time.
    """
    from perfbench.workloads import PassRecord
    rec = PassRecord(tracer=tracer)
    per_pass = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while True:
            # Alternate CPUs between passes: interference from other tenants
            # hits one CPU at a time, so it then covers at most every other pass.
            cpu = cpus[len(per_pass) % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            first_request, elements = len(rec.latencies), rec.elements
            workload.run_pass(first_pass + len(per_pass), rec)
            per_pass.append((rec.latencies[first_request:], rec.elements - elements,
                             cpu))
            elapsed = time.perf_counter() - start
            if ((tracer is not None or rec.requests >= MIN_REQUESTS)
                    and elapsed * (len(per_pass) + 1) / len(per_pass) > seconds):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return rec, per_pass, time.perf_counter() - start


def counting_overhead() -> float:
    """Wall time of a fixed scalar sample inside vs outside ``counting()``."""
    import numpy as np
    from pimfuncs import (EvaluatorConfig, FunctionId, MethodId,
                          build_evaluator, counting)
    evs = [build_evaluator(f, EvaluatorConfig(method=m)) for f, m in (
        (FunctionId.SIN, MethodId.LLUT_INTERP), (FunctionId.SIN, MethodId.CORDIC),
        (FunctionId.EXP, MethodId.LLUT_INTERP))]
    xs = np.linspace(0.1, 3.0, OVERHEAD_SAMPLE, dtype=np.float32)

    def sample() -> float:
        start = time.perf_counter()
        for ev in evs:
            for x in xs:
                ev.evaluate(x)
        return time.perf_counter() - start

    outside, inside = [], []
    for _ in range(OVERHEAD_REPEATS):  # alternated; the fastest of each
        outside.append(sample())
        with counting():
            inside.append(sample())
    return min(inside) / min(outside) - 1.0


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def metric(out: dict, name: str, value, unit: str, note: str = "") -> None:
    out[name] = {"value": value, "unit": unit}
    print(f"metric {name} = {value!r} {unit}{'  ' + note if note else ''}")


def print_cache_fit(env: dict, largest_table: int) -> None:
    caches = env["caches"]
    largest_cache = max(caches.values(), key=cache_bytes, default="")
    fits = cache_bytes(largest_cache) >= largest_table
    print(f"tables: largest {largest_table} modelled bytes; host caches {caches}; "
          f"{'no table exceeds' if fits else 'a table EXCEEDS'} the host caches")


def end_to_end(loop, per_pass, quality) -> dict:
    """End-to-end metrics of an untraced run.

    Other tenants of the machine slow its CPUs by up to 2x, one CPU or both,
    in bursts of seconds to minutes.  Every pass issues the same sequence
    of request kinds, so each request kind's latency is taken as its lower
    decile over passes, and throughput and the median request latency are
    computed from those.  The p90 is the lower decile over windows of whole
    passes run on one CPU, each holding at least ``MIN_REQUESTS`` requests
    so that ten samples lie beyond it.  Set-up time is the lower decile of
    its samples.
    """
    from perfbench.benchmath import lower_decile, median, percentile, windows
    out = {}
    n = len(loop.latencies)
    typical = [lower_decile(kind) for kind in zip(*(lat for lat, _, _ in per_pass))]
    elements = per_pass[0][1]
    by_cpu = [[lat for lat, _, c in per_pass if c == cpu]
              for cpu in sorted({c for _, _, c in per_pass})]
    tails = [percentile(w, 0.9) for w in
             [w for passes in by_cpu for w in windows(passes, MIN_REQUESTS)]
             or windows([lat for lat, _, _ in per_pass], MIN_REQUESTS)]
    metric(out, "elem_per_s", elements / sum(typical), "elem/s",
           f"({len(typical)} request kinds x {len(per_pass)} passes; "
           f"{loop.elements} elements in {n} requests)")
    metric(out, "req_ms_p50", median(typical) * 1e3, "ms",
           f"(median of {len(typical)} request kinds; samples={n})")
    metric(out, "req_ms_p90", lower_decile([v for v, _ in tails]) * 1e3, "ms",
           f"(lower decile of {len(tails)} windows; samples={n}, "
           f"beyond>={min(b for _, b in tails)} per window)")
    metric(out, "setup_s", lower_decile(loop.setup), "s",
           f"(lower decile of {len(loop.setup)} set-up samples)")
    print(f"plain: elem_per_s {loop.elements / sum(loop.latencies)!r} elem/s "
          f"(all elements / summed request latency), req_ms_p50 "
          f"{median(loop.latencies) * 1e3!r} ms, req_ms_p90 "
          f"{percentile(loop.latencies, 0.9)[0] * 1e3!r} ms (all {n} requests), "
          f"setup_s {median(loop.setup)!r} s (median)")
    metric(out, "peak_rss_mb",
           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    units = {"cost_per_elem": "wops/elem", "mul_per_elem": "ops/elem",
             "table_bytes": "bytes", "rmse": "err", "ok_frac": "ratio"}
    for name, unit in units.items():
        metric(out, name, quality[name], unit, "(quality passes)")
    return out


def per_layer(stats, requests: int, loop_wall: float, errors, overheads) -> dict:
    from pimfuncs import DEFAULT_WEIGHTS, weighted_cost
    from perfbench.tracing import LayerStat

    def get(*keys) -> LayerStat:
        total = LayerStat()
        for k in keys:
            s = stats.get(k, LayerStat())
            total.calls += s.calls
            total.seconds += s.seconds
            total.self_seconds += s.self_seconds
            total.units += s.units
            total.counts = total.counts + s.counts
        return total

    def per_call_us(s: LayerStat) -> float:
        return s.self_seconds / s.calls * 1e6 if s.calls else 0.0

    def errs(*keys) -> int:
        return sum(errors[k].errors for k in keys if k in errors)

    build, evaluate, batch = get("api.build"), get("api.evaluate"), get("api.batch")
    query, lbuild = get("lut.query"), get("lut.build")
    rot, crot, cbuild = get("cordic.rotate"), get("combined.rotate"), get("combined.build")
    rng, fx = get("rangeext.call"), get("fixedpoint.call", "fixedpoint.ldexp")
    r = requests
    out = {}
    rows = [
        ("api.build_calls", build.calls / r, "1/req"),
        ("api.build_s", build.seconds / r, "s/req"),
        ("api.evaluate_calls", evaluate.calls / r, "1/req"),
        ("api.evaluate_self_us", per_call_us(evaluate), "us"),
        ("api.batch_calls", batch.calls / r, "1/req"),
        ("api.batch_self_us_per_elem",
         batch.self_seconds / batch.units * 1e6 if batch.units else 0.0, "us/elem"),
        ("harness.driver_self_s", get("harness.driver").self_seconds / r, "s/req"),
        ("lut.query_calls", query.calls / r, "1/req"),
        ("lut.query_self_us", per_call_us(query), "us"),
        ("lut.query_errors", errs("lut.query"), "count"),
        ("lut.cost_per_query",
         weighted_cost(query.counts, DEFAULT_WEIGHTS) / query.calls
         if query.calls else 0.0, "wops"),
        ("lut.build_calls", lbuild.calls / r, "1/req"),
        ("lut.build_s", lbuild.seconds / r, "s/req"),
        ("lut.build_entries", lbuild.counts.table_setup_entries / r, "1/req"),
        ("lut.build_share", lbuild.seconds / loop_wall, "ratio"),
        ("cordic.rotate_calls", rot.calls / r, "1/req"),
        ("cordic.rotate_self_us", per_call_us(rot), "us"),
        ("cordic.iters_per_call", rot.units / rot.calls if rot.calls else 0.0, "count"),
        ("cordic.errors", errs("cordic.rotate"), "count"),
        ("combined.rotate_calls", crot.calls / r, "1/req"),
        ("combined.rotate_self_us", per_call_us(crot), "us"),
        ("combined.build_s", cbuild.seconds / r, "s/req"),
        ("rangeext.calls", rng.calls / r, "1/req"),
        ("rangeext.self_us", per_call_us(rng), "us"),
        ("rangeext.errors", errs("rangeext.call"), "count"),
        ("fixedpoint.calls", fx.calls / r, "1/req"),
        ("fixedpoint.ldexp_calls", get("fixedpoint.ldexp").calls / r, "1/req"),
        ("fixedpoint.self_us", per_call_us(fx), "us"),
        ("fixedpoint.errors", errs("fixedpoint.call", "fixedpoint.ldexp"), "count"),
        ("costmodel.tally_calls", overheads["tally_calls"] / r, "1/req"),
        ("costmodel.overhead_frac", overheads["counting"], "ratio"),
        ("trace.overhead_frac", overheads["trace"], "ratio"),
    ]
    for name, value, unit in rows:
        metric(out, name, value, unit)
    return out


def check_predictions(name: str, metrics: dict) -> None:
    """Print whether the traced run matches the recorded layer split."""
    pred = json.loads(PREDICTIONS.read_text())[name]
    for key in pred.get("zero", []):
        value = metrics[key]["value"]
        print(f"prediction {key} == 0: {'ok' if value == 0 else 'VIOLATED'} ({value!r})")
    for key, floor in pred.get("at_least", {}).items():
        value = metrics[key]["value"]
        print(f"prediction {key} >= {floor}: "
              f"{'ok' if value >= floor else 'VIOLATED'} ({value!r})")
    for key, ceiling in pred.get("at_most", {}).items():
        value = metrics[key]["value"]
        print(f"prediction {key} <= {ceiling}: "
              f"{'ok' if value <= ceiling else 'VIOLATED'} ({value!r})")


def write_spans(tracer, name: str, seed: int, env: dict) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "env": env,
                             "kept": len(tracer.spans),
                             "fields": ["id", "parent", "request", "name",
                                        "start", "end"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def report(args, loop, first, second, metrics) -> int:
    """Print the checks and the result line; return the exit code."""
    q1, q2 = quality_metrics(first), quality_metrics(second)
    digest = first.digest.hexdigest()
    print(f"digest {digest} (quality-pass outputs and op counts; compare with "
          f"another commit's run of the same seed)")

    deterministic = q1 == q2 and digest == second.digest.hexdigest()
    print(f"check determinism: {'ok' if deterministic else 'FAILED'} "
          f"(quality passes re-run: {q1} vs {q2})")
    mismatches = (first.identity_mismatches + loop.identity_mismatches
                  + second.identity_mismatches)
    checked = first.identity_checked + loop.identity_checked + second.identity_checked
    if checked:
        print(f"check scalar/batch identity: {'ok' if not mismatches else 'FAILED'} "
              f"({checked} elements re-evaluated)")
    for cell, what in mismatches:
        print(f"identity-mismatch {cell} {what}")
    print(f"check outputs: {first.failed_requests + loop.failed_requests} failed "
          f"requests of {first.requests + loop.requests}")
    print(f"failures (cell, input, kind): {first.failed_elements} of "
          f"{first.attempted} main-body elements, {first.edge_failed} of "
          f"{first.edge_attempted} edge evaluations")
    for cell, x, kind in first.failures:
        print(f"fail {cell} {x!r} {kind}")

    correct = (deterministic and not mismatches and first.failed_requests == 0
               and loop.failed_requests == 0)
    print(json.dumps({"correct": correct, "attempted": loop.requests,
                      "failed": loop.failed_requests, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so its peak RSS is its own."""
    codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                             "--seed", str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
             for name in WORKLOAD_NAMES]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_library()
    from perfbench.tracing import BuildTimer, Patches, Tracer
    from perfbench.workloads import WORKLOADS, PassRecord, load_tolerances

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("load: closed loop, 1 client, 1 process, 1 thread; "
          "each request is issued after the previous one returns")

    patches = Patches()
    builds = BuildTimer()
    builds.install(patches)
    workload = WORKLOADS[args.workload](args.seed, builds, load_tolerances())
    first = quality_pass(workload)
    gc.collect()

    if not args.trace:
        loop, per_pass, _ = timed_loop(workload, args.seconds, workload.quality_passes)
        second = quality_pass(workload)
        metrics = end_to_end(loop, per_pass, quality_metrics(first))
        if args.workload == "table-sweep":
            print_cache_fit(env, workload.largest_table)
        return report(args, loop, first, second, metrics)

    overheads = {"counting": counting_overhead()}
    untraced = PassRecord()
    workload.run_pass(workload.quality_passes, untraced)  # as the first traced pass
    tracer = Tracer()
    tracer.install(patches)
    loop, per_pass, wall = timed_loop(workload, args.seconds, workload.quality_passes,
                                      tracer)
    stats = tracer.snapshot()
    overheads["tally_calls"] = tracer.tally_calls
    overheads["trace"] = (sum(loop.latencies[:untraced.requests])
                          / sum(untraced.latencies) - 1.0)
    if hasattr(workload, "edge_slice"):  # traced, for the layers' error counts
        tracer.root("bench.edge", loop.requests, workload.edge_slice, PassRecord())
    patches.undo()
    builds.install(patches)
    second = quality_pass(workload)
    print(f"traced {loop.requests} requests in {len(per_pass)} passes, {wall:.3f} s")
    metrics = per_layer(stats, loop.requests, wall, tracer.stats, overheads)
    check_predictions(args.workload, metrics)
    path = write_spans(tracer, args.workload, args.seed, env)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return report(args, loop, first, second, metrics)


if __name__ == "__main__":
    sys.exit(main())
