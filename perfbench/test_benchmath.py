"""Unit tests for the benchmark's own arithmetic and checks."""

import math

import numpy as np
import pytest

from pimfuncs import DomainError, FunctionId, RangeError, counting
from pimfuncs.costmodel import tally

from perfbench.benchmath import classify, geomean, percentile, reference
from perfbench.tracing import Tracer

TOL = 1e-6


def test_p90_of_100_samples_leaves_ten_beyond():
    value, beyond = percentile(reversed(range(1, 101)), 0.9)
    assert (value, beyond) == (90, 10)


def test_percentile_refuses_fewer_than_ten_beyond():
    with pytest.raises(ValueError):
        percentile(range(99), 0.9)


def test_geomean_moves_with_any_one_cell():
    assert geomean([1e-6, 1e-6]) == pytest.approx(1e-6)
    assert geomean([1e-6, 4e-6]) == pytest.approx(2e-6)


def _scripted_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_span_minus_covered_children():
    # root [0, 10] holds lut [1, 3] and rangeext [4, 7]
    tracer = Tracer(clock=_scripted_clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    query = tracer.wrap("lut.query", lambda: None)
    reduce = tracer.wrap("rangeext.call", lambda: None)
    tracer.root("bench.request", 7, lambda: (query(), reduce()))
    root = tracer.stats["bench.request"]
    assert (root.seconds, root.self_seconds) == (10.0, 5.0)
    assert tracer.stats["lut.query"].self_seconds == 2.0
    assert tracer.stats["rangeext.call"].self_seconds == 3.0
    by_name = {span[3]: span for span in tracer.spans}
    root_id = by_name["bench.request"][0]
    assert by_name["lut.query"][1] == root_id  # parent
    assert {span[2] for span in tracer.spans} == {7}  # one request id


def test_same_layer_calls_and_calls_outside_a_root_are_not_spanned():
    tracer = Tracer()
    inner = tracer.wrap("lut.query", lambda: None)
    outer = tracer.wrap("lut.query", inner)
    outer()  # no root span open: untraced
    assert tracer.stats["lut.query"].calls == 0
    tracer.root("bench.request", 0, outer)
    assert tracer.stats["lut.query"].calls == 1


def test_layer_counts_fold_back_into_the_caller():
    tracer = Tracer()
    query = tracer.wrap("lut.query", lambda: tally("float_mul", 2))
    with counting() as total:
        tracer.root("bench.request", 0, lambda: (query(), tally("int_add")))
    assert (total.float_mul, total.int_add) == (2, 1)
    assert tracer.stats["lut.query"].counts.float_mul == 2
    assert tracer.stats["bench.request"].counts.int_add == 1


def test_errors_are_counted_where_they_leave_a_span():
    tracer = Tracer()

    def fail():
        raise RangeError("out of table")
    query = tracer.wrap("lut.query", fail)
    with pytest.raises(RangeError):
        tracer.root("bench.request", 0, query)
    assert tracer.stats["lut.query"].errors == 1


def test_reference_covers_the_whole_float_line():
    ref = {f: float(reference(f, x)) for f, x in (
        (FunctionId.LOG, 0.0), (FunctionId.EXP, 1e4), (FunctionId.TANH, math.inf),
        (FunctionId.GELU, -math.inf), (FunctionId.SIN, math.inf),
        (FunctionId.SQRT, -1.0))}
    assert ref[FunctionId.LOG] == -math.inf
    assert ref[FunctionId.EXP] == math.inf
    assert ref[FunctionId.TANH] == 1.0
    assert ref[FunctionId.GELU] == 0.0
    assert math.isnan(ref[FunctionId.SIN]) and math.isnan(ref[FunctionId.SQRT])


@pytest.mark.parametrize("outcome, ref, kind", [
    (ValueError("nan"), math.nan, "foreign-exception:ValueError"),
    (OverflowError("big"), math.inf, "foreign-exception:OverflowError"),
    (DomainError("log(-1)"), math.nan, None),
    (np.float32(math.nan), math.nan, None),
    (np.float32(0.0), math.nan, "expected-nan"),
    (RangeError("outside table"), 1.0, "exception:RangeError"),
    (np.float32(math.nan), 1.0, "nan"),
    (np.float32(math.inf), 1e39, None),  # overflows float32 -> inf
    (np.float32(3e38), 1e39, "nonfinite-mismatch"),
    (np.float32(-math.inf), math.inf, "nonfinite-mismatch"),
    (np.float32(0.969), 0.875, "inaccurate"),
    (np.float32(0.875), 0.8750000001, None),
    (np.float32(2.0e6), 2.0e6 * (1 + 1e-7), None),  # relative above 1
])
def test_edge_classification(outcome, ref, kind):
    assert classify(outcome, ref, TOL) == kind
