import math

import numpy as np
import pytest

from pimfuncs.api import FunctionId, MethodId
from pimfuncs.costmodel import counting, with_counting
from pimfuncs.errors import (DomainError, PimFuncsError, RangeError,
                             UnsupportedCombinationError)
from pimfuncs.harness import (WORKLOADS, _kernel, amortization_crossover,
                              csv_text, emit_csv, rmse_sweep,
                              run_blackscholes, run_sigmoid, run_softmax)


def polynomial(function):
    return _kernel(function, "PolynomialBaseline")


class TestSweep:
    def test_rmse_decreases_with_size(self):
        reports = rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP,
                             [256, 1024, 4096], n_samples=4096)
        rmses = [r.rmse for r in reports]
        assert rmses == sorted(rmses, reverse=True)

    def test_cordic_rmse_decreases_with_iters(self):
        reports = rmse_sweep(FunctionId.SIN, MethodId.CORDIC, [10, 16, 24],
                             n_samples=2048)
        rmses = [r.rmse for r in reports]
        assert rmses == sorted(rmses, reverse=True)

    def test_lut_op_counts_flat_across_sizes(self):
        reports = rmse_sweep(FunctionId.EXP, MethodId.LLUT_INTERP,
                             [256, 1024, 4096], n_samples=512)
        base = reports[0].op_counts.as_dict()
        base.pop("table_setup_entries")
        for r in reports[1:]:
            d = r.op_counts.as_dict()
            d.pop("table_setup_entries")
            assert d == base

    def test_cordic_op_counts_grow_with_iters(self):
        reports = rmse_sweep(FunctionId.SIN, MethodId.CORDIC, [10, 16, 24],
                             n_samples=512)
        shifts = [r.op_counts.int_shift for r in reports]
        assert shifts[0] < shifts[1] < shifts[2]

    def test_invariants(self):
        reports = rmse_sweep(FunctionId.TANH, MethodId.CORDIC, [20],
                             n_samples=1024)
        r = reports[0]
        assert 0.0 <= r.rmse <= r.max_abs_err
        assert r.ulp_err >= 0.0
        assert r.memory_bytes > 0

    def test_same_seed_same_result(self):
        a = rmse_sweep(FunctionId.SIN, MethodId.LLUT, [512], seed=9,
                       n_samples=1024)[0]
        b = rmse_sweep(FunctionId.SIN, MethodId.LLUT, [512], seed=9,
                       n_samples=1024)[0]
        assert a.rmse == b.rmse and a.max_abs_err == b.max_abs_err


class TestPolynomialBaseline:
    def test_cndf_at_zero(self):
        assert float(polynomial("cndf")(np.array([0.0]))[0]) == \
            pytest.approx(0.5, abs=1e-7)

    def test_cndf_at_196(self):
        expect = 0.5 * (1.0 + math.erf(1.96 / math.sqrt(2.0)))  # ~0.975
        assert float(polynomial("cndf")(np.array([1.96]))[0]) == \
            pytest.approx(expect, abs=1e-5)

    def test_cndf_symmetry(self):
        a, b = polynomial("cndf")(np.array([1.3, -1.3]))
        assert float(a) + float(b) == pytest.approx(1.0, abs=1e-6)

    def test_exp_accuracy(self):
        xs = np.array([-5.0, -0.5, 0.0, 1.0, 4.7])
        np.testing.assert_allclose(polynomial("exp")(xs),
                                   [math.exp(x) for x in xs], rtol=1e-6)

    def test_unknown_function_rejected(self):
        with pytest.raises(KeyError):
            polynomial("sin")

    @pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
    def test_non_finite_input_raises_domain_error(self, x):
        for function in ("exp", "cndf"):
            with pytest.raises(DomainError):
                polynomial(function)(np.array([x]))

    def test_multiplies_are_tallied(self):
        _, c = with_counting(lambda: polynomial("exp")(np.array([1.0])))
        assert c.float_mul >= 6  # Horner alone

    def test_costlier_than_interp_llut(self):
        from pimfuncs.api import EvaluatorConfig, build_evaluator
        from pimfuncs.costmodel import weighted_cost
        ev = build_evaluator(FunctionId.EXP,
                             EvaluatorConfig(method=MethodId.LLUT_INTERP))
        _, c_lut = with_counting(lambda: ev.evaluate(1.234))
        _, c_poly = with_counting(
            lambda: polynomial("exp")(np.array([1.234])))
        assert weighted_cost(c_poly) > weighted_cost(c_lut)


class TestBlackscholes:
    def test_deep_in_the_money(self):
        # spot >> strike, tiny volatility: call ~= spot - strike * e^{-rT}
        from pimfuncs.harness import _bs_reference
        price = _bs_reference(180.0, 10.0, 0.03, 0.05, 1.0)
        assert price == pytest.approx(180.0 - 10.0 * math.exp(-0.03), rel=1e-6)

    def test_at_the_money_series(self):
        # spot = strike, r = 0, small sigma*sqrt(T): call ~= 0.3989*spot*s*sqrt(T)
        from pimfuncs.harness import _bs_reference
        price = _bs_reference(100.0, 100.0, 0.0, 0.01, 1.0)
        assert price == pytest.approx(0.3989 * 100.0 * 0.01, rel=1e-3)

    @pytest.mark.parametrize("variant", ["PolynomialBaseline", "MLutInterp",
                                         "LLutInterp", "FixedLLutInterp"])
    def test_variant_accuracy(self, variant):
        result = run_blackscholes(1500, variant, seed=11)
        assert result.workload == "Blackscholes"
        assert result.n_elements == 1500
        assert result.rmse <= 1e-4

    def test_unknown_variant(self):
        # Every runner refuses a made-up variant and one that only another
        # workload runs.
        assert issubclass(UnsupportedCombinationError, PimFuncsError)
        for run, variants in WORKLOADS.values():
            other = ("FixedLLutInterp" if "CordicLut" in variants
                     else "CordicLut")
            for variant in ("Nope", other):
                with pytest.raises(UnsupportedCombinationError):
                    run(10, variant)


class TestSigmoid:
    def test_at_zero(self):
        r = run_sigmoid(1, "LLutInterp", seed=0)
        assert r.rmse < 1e-5

    @pytest.mark.parametrize("variant", ["PolynomialBaseline", "MLutInterp",
                                         "LLutInterp", "CordicLut"])
    def test_variant_accuracy(self, variant):
        result = run_sigmoid(1500, variant, seed=2)
        assert result.rmse <= 1e-6


class TestSoftmax:
    @pytest.mark.parametrize("variant", ["LLutInterp", "CordicLut"])
    def test_normalization_and_accuracy(self, variant):
        result = run_softmax(2048, variant, seed=4)
        assert result.n_elements == 2048
        assert result.max_sum_dev <= 1e-5
        assert result.rmse <= 1e-6

    def test_reference_maps_libm_exp(self):
        # Bit for bit a per-element math.exp loop over the max-shifted
        # rows, normalized per row; np.exp differs from libm in the last bit.
        from pimfuncs.harness import SOFTMAX_VECTOR_LEN, _softmax_reference
        xs = np.random.default_rng(0).uniform(
            -8.0, 8.0, (64, SOFTMAX_VECTOR_LEN)).astype(np.float32)
        ed = np.array([[math.exp(v - max(row)) for v in row]
                       for row in xs.astype(np.float64).tolist()])
        expect = ed / ed.sum(axis=1, keepdims=True)
        assert np.array_equal(_softmax_reference(xs), expect)

    def test_constant_vector_uniform(self):
        # softmax of a constant vector: every entry 1/K
        exp_f = _kernel("exp", "LLutInterp")
        k = 64
        e = exp_f(np.zeros(k)).astype(np.float64)
        out = e / e.sum()
        assert np.allclose(out, 1.0 / k, atol=1e-9)


class TestCountBelowOne:
    """A count below 1 is refused before any table is built."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("n", [0, -1])
    def test_runners(self, name, n):
        runner, variants = WORKLOADS[name]
        with counting() as c, pytest.raises(RangeError, match="at least 1"):
            runner(n, variants[1])
        assert c.table_setup_entries == 0

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_rmse_sweep(self, n_samples):
        with counting() as c, pytest.raises(RangeError, match="at least 1"):
            rmse_sweep(FunctionId.SIN, MethodId.LLUT_INTERP, [64],
                       n_samples=n_samples)
        assert c.table_setup_entries == 0

    def test_softmax_runs_whole_rows(self):
        # At least one row of 1,024; n_elements is the count that ran.
        assert run_softmax(1, "LLutInterp").n_elements == 1024
        assert run_softmax(3000, "LLutInterp").n_elements == 2048


class TestCrossover:
    def test_llut_overtakes_cordic(self):
        # CORDIC: tiny table, expensive calls; LUT: big table, cheap calls
        n_star = amortization_crossover(29, 150.0, 4097, 20.0)
        assert n_star is not None and n_star > 0
        # at N* the totals match; after it the LUT variant is cheaper
        assert 29 * 4.0 + n_star * 150.0 == pytest.approx(
            4097 * 4.0 + n_star * 20.0, rel=1e-9)

    def test_no_crossover_when_slower_and_bigger(self):
        assert amortization_crossover(29, 20.0, 4097, 150.0) is None

    def test_dominant_from_start(self):
        assert amortization_crossover(4097, 150.0, 29, 20.0) == 0.0


_OPS = ("int_add,int_shift,int_mul,float_add,float_mul,float_div,ldexp_op,"
        "lut_lookup,table_setup_entries")
_ACC_HEADER = ("function,method,number_format,size_or_iters,n_samples,seed,"
               "rng,rmse,max_abs_err,ulp_err,memory_bytes," + _OPS)
_WL_HEADER = ("workload,variant,n_elements,seed,rng,rmse,max_sum_dev,"
              + _OPS)


class TestCsv:
    @pytest.mark.parametrize("timing,suffix", ((False, ""),
                                               (True, ",setup_seconds")),
                             ids=("untimed", "timed"))
    def test_accuracy_header(self, timing, suffix):
        reports = rmse_sweep(FunctionId.SIN, MethodId.LLUT, [256],
                             n_samples=16)
        header = csv_text(reports, include_timing=timing).split("\r\n")[0]
        assert header == _ACC_HEADER + suffix

    @pytest.mark.parametrize("timing,suffix", ((False, ""),
                                               (True, ",wall_seconds")),
                             ids=("untimed", "timed"))
    def test_workload_header(self, timing, suffix):
        text = csv_text([run_sigmoid(50, "LLutInterp", seed=5)],
                        include_timing=timing)
        assert text.split("\r\n")[0] == _WL_HEADER + suffix

    @pytest.mark.parametrize("timing,suffix", ((False, ""),
                                               (True, ",setup_seconds")),
                             ids=("untimed", "timed"))
    def test_empty_is_the_accuracy_header(self, timing, suffix):
        assert csv_text([], include_timing=timing) == (
            _ACC_HEADER + suffix + "\r\n")

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        lines = path.read_bytes().split(b"\r\n")
        assert len([l for l in lines if l]) == 1

    def test_one_report_two_lines(self, tmp_path):
        reports = rmse_sweep(FunctionId.SIN, MethodId.LLUT, [256],
                             n_samples=256)
        path = tmp_path / "one.csv"
        emit_csv(reports, path)
        lines = [l for l in path.read_bytes().split(b"\r\n") if l]
        assert len(lines) == 2

    def test_rfc4180_line_endings(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv(rmse_sweep(FunctionId.SIN, MethodId.LLUT, [256],
                            n_samples=256), path)
        assert b"\r\n" in path.read_bytes()

    def test_byte_identical_reruns(self):
        def run():
            reports = rmse_sweep(FunctionId.EXP, MethodId.MLUT_INTERP,
                                 [256, 512], seed=21, n_samples=1024)
            return csv_text(reports)

        assert run() == run()

    def test_workload_csv_deterministic(self):
        a = csv_text([run_sigmoid(300, "LLutInterp", seed=5)])
        b = csv_text([run_sigmoid(300, "LLutInterp", seed=5)])
        assert a == b

    def test_timing_excluded_by_default(self):
        text = csv_text([run_sigmoid(50, "LLutInterp", seed=5)])
        assert "wall_seconds" not in text
        text = csv_text([run_sigmoid(50, "LLutInterp", seed=5)],
                        include_timing=True)
        assert "wall_seconds" in text
