"""Scalar and batch evaluation agree bit for bit, with equal op counts.

Covers every supported cell (CORDIC, CORDIC+LUT, and the M, L, D and DL
tables, float and Q3.28 fixed) on float32 inputs from the cell's default
sweep domain, plus the domain's special points 0 and 2*pi where they
belong to it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pimfuncs import (EvaluatorConfig, MethodId, NumberFormat, build_evaluator,
                      counting, supported)
from pimfuncs.api import FunctionId
from pimfuncs.harness import DEFAULT_DOMAINS

CELLS = [(f, m, fmt) for m in MethodId for f in FunctionId
         for fmt in NumberFormat if supported(f, m, fmt)]
_EVALUATORS = {}


def _evaluator(cell):
    if cell not in _EVALUATORS:
        f, m, fmt = cell
        _EVALUATORS[cell] = build_evaluator(
            f, EvaluatorConfig(method=m, number_format=fmt))
    return _EVALUATORS[cell]


def _inputs(function):
    lo, hi = DEFAULT_DOMAINS[function]
    points = [np.float32(v) for v in (0.0, 2.0 * math.pi) if lo <= v <= hi]
    # sqrt takes 0 although its sweep domain starts above it
    if function is FunctionId.SQRT:
        points.append(np.float32(0.0))
    values = st.floats(min_value=float(np.float32(lo)),
                       max_value=float(np.float32(hi)), width=32)
    if points:
        values = values | st.sampled_from(points)
    return st.lists(values, min_size=1, max_size=40)


@pytest.mark.parametrize("cell", CELLS,
                         ids=lambda c: "-".join(v.value for v in c))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_equals_scalar_loop(cell, data):
    ev = _evaluator(cell)
    xs = np.asarray(data.draw(_inputs(cell[0])), dtype=np.float32)
    out, batch_counts = ev.evaluate_batch(xs)
    with counting() as scalar_counts:
        scalar = np.asarray([ev.evaluate(x) for x in xs], dtype=np.float32)
    assert out.view(np.uint32).tolist() == scalar.view(np.uint32).tolist()
    assert batch_counts == scalar_counts


@pytest.mark.parametrize("cell", CELLS,
                         ids=lambda c: "-".join(v.value for v in c))
def test_float64_scalar_is_rounded_as_batch(cell):
    """``evaluate`` of a double that is no float32 value rounds it to
    float32 first, as ``evaluate_batch`` does: same bits, same op counts."""
    ev = _evaluator(cell)
    lo, hi = DEFAULT_DOMAINS[cell[0]]
    for x in np.random.default_rng(14).uniform(lo, hi, 100).tolist():
        out, batch_counts = ev.evaluate_batch([x])
        with counting() as scalar_counts:
            scalar = ev.evaluate(x)
        assert np.float32(scalar).view(np.uint32) == out.view(np.uint32)[0], x
        assert batch_counts == scalar_counts


def _outcome(call, x):
    """The result bits of ``call(x)``, or the type of what it raises."""
    try:
        out = call(x)
    except Exception as exc:
        return type(exc)
    return np.asarray(out[0] if isinstance(out, tuple) else out,
                      dtype=np.float32).view(np.uint32).tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cell", CELLS,
                         ids=lambda c: "-".join(v.value for v in c))
def test_double_beyond_float32_is_rounded_to_inf(cell):
    """A double beyond float32 rounds to +-inf without a cast warning, so
    both paths treat it as they treat float32 +-inf."""
    ev = _evaluator(cell)
    for sign in (1.0, -1.0):
        inf = np.float32(sign * math.inf)
        for x in (sign * 1e39, sign * 1e300):
            assert _outcome(ev.evaluate, x) == _outcome(ev.evaluate, inf), x
            assert (_outcome(ev.evaluate_batch, [x])
                    == _outcome(ev.evaluate_batch, np.array([inf]))), x
