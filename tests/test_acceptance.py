"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Each test prints ``C<nn> <name>: PASS/FAIL (detail)`` directly to the
terminal (bypassing capture) and then asserts, so the verdict line is
visible for passing and failing criteria alike.
"""

import math
import time
from functools import partial

import numpy as np

from pimfuncs.api import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                          build_evaluator, supported)
from pimfuncs.cordic import CordicMode, cordic_rotate, generate_cordic_tables
from pimfuncs.costmodel import with_counting, weighted_cost
from pimfuncs.fixedpoint import to_fixed, to_float
from pimfuncs.harness import (DEFAULT_DOMAINS, amortization_crossover,
                              csv_text, reference_values, rmse_sweep,
                              run_blackscholes, run_sigmoid, run_softmax)
from pimfuncs.lut import (build_dlut, build_llut, build_mlut,
                          dlut_query_interp, llut_query, llut_query_interp,
                          mapped, mlut_query, mlut_query_interp)

# The table hosts: libm functions lifted to float64 arrays.
SIN, TANH = (partial(mapped, f) for f in (math.sin, math.tanh))


SAMPLES = 1 << 16


def _verdict(capfd, num, name, ok, detail):
    with capfd.disabled():
        print(f"C{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_c01_float_accuracy_floor(capfd):
    # Interpolated L-LUT sine at 2^16 entries over [0, 2*pi).  Each bound is
    # measured against the reference it was derived with.  The RMSE floor is
    # the kernel's own error: rmse_sweep's reference sees the same float32
    # inputs.  The max-error window also holds the float32 input
    # quantization (up to |cos x| * ulp/2 = 2.4e-7 near 2*pi), so it is
    # measured on rmse_sweep's draws before their cast, against math.sin of
    # the doubles; evaluate_batch casts them itself.
    t0 = time.perf_counter()
    r = rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP, [1 << 16],
                   n_samples=SAMPLES)[0]
    xs = np.random.default_rng(0).uniform(*DEFAULT_DOMAINS[FunctionId.SIN],
                                          SAMPLES)
    ev = build_evaluator(FunctionId.SIN,
                         EvaluatorConfig(method=MethodId.LLUT_INTERP,
                                         lut_size=1 << 16))
    out = ev.evaluate_batch(xs)[0].astype(np.float64)
    err_f32 = out - reference_values(FunctionId.SIN, xs.astype(np.float32))
    err_pre = out - np.asarray([math.sin(v) for v in xs.tolist()])
    max_f32 = float(np.max(np.abs(err_f32)))
    max_pre = float(np.max(np.abs(err_pre)))
    rmse_pre = float(np.sqrt(np.mean(err_pre * err_pre)))
    elapsed = time.perf_counter() - t0
    same_draws = max_f32 == r.max_abs_err
    ok = (same_draws and r.rmse <= 3e-8 and 1e-7 <= max_pre <= 5e-7
          and elapsed < 10.0)
    _verdict(capfd, 1, "float-accuracy-floor", ok,
             f"same-float32 ref: rmse={r.rmse:.3e} (<=3e-8), "
             f"max={r.max_abs_err:.3e}; pre-cast double ref: "
             f"rmse={rmse_pre:.3e}, max={max_pre:.3e} (wanted [1e-7, 5e-7]); "
             f"same draws={same_draws}, {elapsed:.1f}s")


def test_c02_llut_1mb_rmse(capfd):
    # Non-interpolated L-LUT sine within a 1 MB table budget.  A nearest-entry
    # table with uniform spacing h errs by cos(x) * d, d uniform on
    # [-h/2, h/2], so its RMSE over whole periods is h/sqrt(24).  The
    # budget's float32 entries over [0, 2*pi) allow a power-of-two density
    # 2^n, spacing h = 2^-n.  The floor is derived here, not read back.
    # 1.05 covers sampling noise (about 0.2% on 2^16 samples); a density
    # one step lower, or a truncated address, doubles the RMSE.
    budget = 1 << 20
    span = 2.0 * math.pi  # rmse_sweep's sine domain
    n = math.floor(math.log2(budget // 4 / span))
    floor = 2.0 ** -n / math.sqrt(24)
    size = (1 << 18) - 16  # keeps table + parameter block within 2^20 bytes
    r = rmse_sweep(FunctionId.SIN, MethodId.LLUT, [size], n_samples=SAMPLES)[0]
    ok = r.memory_bytes <= budget and r.rmse <= 1.05 * floor
    # The table an RMSE of 3e-7 would need: h <= 3e-7 * sqrt(24).
    n_3e7 = math.ceil(-math.log2(3e-7 * math.sqrt(24)))
    entries_3e7 = math.ceil(span * 2 ** n_3e7)
    _verdict(capfd, 2, "llut-1mb-rmse", ok,
             f"rmse={r.rmse:.3e} (<= 1.05 x floor {floor:.3e} = "
             f"2^-{n}/sqrt(24)) at {r.memory_bytes} bytes; rmse 3e-7 needs "
             f"density 2^{n_3e7}: {entries_3e7:,} entries, "
             f"{4 * entries_3e7 / 2 ** 20:.1f} MiB")


def test_c03_fixed_point_floor(capfd):
    # Q3.28 entries must not cost more than 2x RMSE vs float entries.
    rf = rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP, [4096],
                    n_samples=SAMPLES)[0]
    rx = rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP, [4096],
                    number_format=NumberFormat.FIXED, n_samples=SAMPLES)[0]
    ok = rx.rmse <= 2.0 * rf.rmse
    _verdict(capfd, 3, "fixed-point-floor", ok,
             f"fixed={rx.rmse:.3e} vs float={rf.rmse:.3e} "
             f"(ratio {rx.rmse / rf.rmse:.2f} <= 2)")


def test_c04_multiplication_budgets(capfd):
    def fmuls(fn, *args):
        _, c = with_counting(lambda: fn(*args))
        return c.float_mul

    m = build_mlut(SIN, 0.0, 6.0, 256)
    mi = build_mlut(SIN, 0.0, 6.0, 256, interpolated=True)
    l = build_llut(SIN, 0.0, 6.0, 256)
    li = build_llut(SIN, 0.0, 6.0, 256, interpolated=True)
    d = build_dlut(TANH, -16, 16, 8)
    x = np.array([2.5])  # one query each
    got = (fmuls(llut_query, l, x), fmuls(llut_query_interp, li, x),
           fmuls(mlut_query, m, x), fmuls(mlut_query_interp, mi, x),
           fmuls(dlut_query_interp, d, x))
    tables = generate_cordic_tables(CordicMode.CIRCULAR, 28)
    theta = to_fixed(np.array([0.7]))
    _, cc = with_counting(lambda: cordic_rotate(tables, theta))
    ok = got == (0, 1, 1, 2, 1) and cc.int_mul == 0 and cc.float_mul == 0
    _verdict(capfd, 4, "multiplication-budgets", ok,
             f"L/Li/M/Mi/Di float_mul={got} (want (0,1,1,2,1)), "
             f"cordic muls={cc.int_mul + cc.float_mul}")


def test_c05_cost_flatness_and_growth(capfd):
    xs = np.random.default_rng(0).uniform(0.0, 6.0, 64).astype(np.float32)
    per_size = []
    for size in (1 << 8, 1 << 12, 1 << 16):
        ev = build_evaluator(FunctionId.SIN,
                             EvaluatorConfig(method=MethodId.LLUT_INTERP,
                                             lut_size=size))
        _, c = ev.evaluate_batch(xs)
        per_size.append(c.as_dict())
    flat = per_size[0] == per_size[1] == per_size[2]

    shifts = []
    theta = to_fixed(np.array([0.7]))
    for n in (8, 16, 24):
        t = generate_cordic_tables(CordicMode.CIRCULAR, n)
        _, c = with_counting(lambda: cordic_rotate(t, theta))
        shifts.append((c.int_shift, c.int_add))
    affine = (shifts[1][0] - shifts[0][0] == shifts[2][0] - shifts[1][0] > 0
              and shifts[1][1] - shifts[0][1] == shifts[2][1] - shifts[1][1] > 0)
    ok = flat and affine
    _verdict(capfd, 5, "cost-flatness-growth", ok,
             f"lut flat={flat}, cordic (shift,add) by iters={shifts}")


def test_c06_cordic_error_decay(capfd):
    # Max sine error over 4096 quadrant angles shrinks by >= 1.7x per added
    # iteration, until the fixed/float error floor is reached.
    floor = 2e-7
    xs = np.linspace(0.0, math.pi / 2, 4096)
    raw = to_fixed(xs)
    sines = np.array(list(map(math.sin, xs.tolist())))
    errs = {}
    for n in range(8, 26):
        t = generate_cordic_tables(CordicMode.CIRCULAR, n)
        _, y = cordic_rotate(t, raw)  # one call over all 4096 angles
        errs[n] = float(np.max(np.abs(to_float(y).astype(np.float64)
                                      - sines)))
    worst = math.inf
    checked = 0
    for n in range(8, 24):
        if errs[n + 1] <= floor:
            break  # floor reached; further iterations cannot keep shrinking
        worst = min(worst, errs[n] / errs[n + 1])
        checked += 1
    ok = checked >= 10 and worst >= 1.7
    _verdict(capfd, 6, "cordic-error-decay", ok,
             f"min decay ratio {worst:.2f} over {checked} steps "
             f"(floor {floor:g} hit at err={min(errs.values()):.2e})")


def test_c07_hybrid_dominance(capfd):
    n_probe = 1 << 14
    rh = rmse_sweep(FunctionId.SIN, MethodId.CORDIC_LUT, [28],
                    n_samples=n_probe)[0]
    rc = rmse_sweep(FunctionId.SIN, MethodId.CORDIC, [28],
                    n_samples=n_probe)[0]
    matched = abs(rh.rmse - rc.rmse) <= 0.1 * rc.rmse
    cheaper = (weighted_cost(rh.op_counts) < weighted_cost(rc.op_counts))

    # Smallest interp L-LUT reaching the hybrid's accuracy (within 10%)
    lut_bytes = None
    for size in (1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17):
        rl = rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP, [size],
                        n_samples=n_probe)[0]
        if rl.rmse <= 1.1 * rh.rmse:
            lut_bytes = rl.memory_bytes
            break
    smaller = lut_bytes is not None and rh.memory_bytes < lut_bytes
    ok = matched and cheaper and smaller
    _verdict(capfd, 7, "hybrid-dominance", ok,
             f"rmse hybrid={rh.rmse:.2e} cordic={rc.rmse:.2e}, "
             f"cost {weighted_cost(rh.op_counts):.0f}<{weighted_cost(rc.op_counts):.0f}, "
             f"bytes {rh.memory_bytes}<{lut_bytes}")


def test_c08_setup_eval_crossover(capfd):
    ev_c = build_evaluator(FunctionId.SIN, EvaluatorConfig(method=MethodId.CORDIC))
    ev_l = build_evaluator(FunctionId.SIN,
                           EvaluatorConfig(method=MethodId.LLUT_INTERP))
    _, cc = with_counting(lambda: ev_c.evaluate(2.5))
    _, cl = with_counting(lambda: ev_l.evaluate(2.5))
    cost_c, cost_l = weighted_cost(cc), weighted_cost(cl)
    n_star = amortization_crossover(ev_c.setup.table_entries, cost_c,
                                    ev_l.setup.table_entries, cost_l)

    def total(entries, per_call, n):
        return entries * 4.0 + per_call * n

    ok = (n_star is not None and n_star > 0
          and total(ev_c.setup.table_entries, cost_c, n_star / 2)
          < total(ev_l.setup.table_entries, cost_l, n_star / 2)
          and total(ev_c.setup.table_entries, cost_c, n_star * 2)
          > total(ev_l.setup.table_entries, cost_l, n_star * 2))
    _verdict(capfd, 8, "setup-eval-crossover", ok,
             f"N*={n_star:.0f} calls (cordic {cost_c:.0f}/call "
             f"vs llut {cost_l:.0f}/call)")


def test_c09_workload_correctness(capfd):
    t0 = time.perf_counter()
    bs = run_blackscholes(100_000, "LLutInterp", seed=0)
    t_bs = time.perf_counter() - t0
    t0 = time.perf_counter()
    sg = run_sigmoid(100_000, "LLutInterp", seed=0)
    t_sg = time.perf_counter() - t0
    t0 = time.perf_counter()
    sm = run_softmax(100_000, "LLutInterp", seed=0)
    t_sm = time.perf_counter() - t0
    ok = (bs.rmse <= 1e-4 and sg.rmse <= 1e-6
          and sm.max_sum_dev <= 1e-5 and sm.rmse <= 1e-6
          and max(t_bs, t_sg, t_sm) < 30.0)
    _verdict(capfd, 9, "workload-correctness", ok,
             f"bs={bs.rmse:.2e}<=1e-4 sg={sg.rmse:.2e}<=1e-6 "
             f"sm={sm.rmse:.2e}/{sm.max_sum_dev:.2e}, "
             f"times {t_bs:.0f}/{t_sg:.0f}/{t_sm:.0f}s")


def test_c10_baseline_ordering(capfd):
    from pimfuncs.harness import _kernel
    ev = build_evaluator(FunctionId.EXP,
                         EvaluatorConfig(method=MethodId.LLUT_INTERP))
    _, c_lut_exp = with_counting(lambda: ev.evaluate(1.234))
    x = np.array([1.234])  # one element each
    poly_exp = _kernel("exp", "PolynomialBaseline")
    poly_cndf = _kernel("cndf", "PolynomialBaseline")
    _, c_poly_exp = with_counting(lambda: poly_exp(x))
    cndf = _kernel("cndf", "LLutInterp")
    _, c_lut_cndf = with_counting(lambda: cndf(x))
    _, c_poly_cndf = with_counting(lambda: poly_cndf(x))
    ok = (weighted_cost(c_poly_exp) > weighted_cost(c_lut_exp)
          and weighted_cost(c_poly_cndf) > weighted_cost(c_lut_cndf))
    _verdict(capfd, 10, "baseline-ordering", ok,
             f"exp poly={weighted_cost(c_poly_exp):.0f}>"
             f"lut={weighted_cost(c_lut_exp):.0f}, "
             f"cndf poly={weighted_cost(c_poly_cndf):.0f}>"
             f"lut={weighted_cost(c_lut_cndf):.0f}")


def test_c11_support_matrix(capfd):
    F, M = FunctionId, MethodId
    order = (F.SIN, F.COS, F.TAN, F.SINH, F.COSH, F.TANH, F.EXP, F.LOG,
             F.SQRT, F.GELU)
    expected = {
        M.CORDIC:       (1, 1, 1, 1, 1, 1, 1, 1, 1, 0),
        M.MLUT:         (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
        M.MLUT_INTERP:  (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
        M.LLUT:         (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
        M.LLUT_INTERP:  (1, 1, 1, 0, 0, 0, 1, 1, 1, 0),
        M.DLUT_INTERP:  (1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
        M.DLLUT_INTERP: (1, 0, 0, 0, 0, 1, 0, 0, 0, 1),
        M.CORDIC_LUT:   (1, 1, 1, 1, 1, 1, 1, 0, 0, 0),
    }
    mismatches = [(m.value, f.value)
                  for m, row in expected.items()
                  for f, want in zip(order, row)
                  if supported(f, m) != bool(want)]
    cells = sum(len(row) for row in expected.values())
    ok = cells == 80 and not mismatches
    _verdict(capfd, 11, "support-matrix", ok,
             f"{cells} cells, mismatches={mismatches or 'none'}")


def test_c12_csv_determinism(capfd):
    def sweep_run():
        return csv_text(rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP,
                                   [256, 1024], seed=17, n_samples=2048))

    def workload_run():
        return csv_text([run_sigmoid(2000, "LLutInterp", seed=17)])

    ok = sweep_run() == sweep_run() and workload_run() == workload_run()
    _verdict(capfd, 12, "csv-determinism", ok,
             "sweep and workload CSVs byte-identical across reruns")
