"""The public boundary, fuzzed: only PimFuncsError subclasses leave the
library, its low-level table builders included, and the command line
exits 0, 1 or 2 without a traceback.

Arguments come from one pool of wrong values.  Every size in it is
either refused (below 1, 2^24 + 1, 2^40, beyond int64) or builds at
most 2^16 cells, and every path is under a temporary directory or names
none at all: no device file and no descriptor number is ever opened.
"""

import contextlib
import inspect
import io
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pimfuncs
from pimfuncs import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                      OpCounts, PimFuncsError, build_evaluator, combined,
                      cordic, lut)
from pimfuncs.cli import main
from pimfuncs.costmodel import OP_FIELDS
from pimfuncs.harness import WORKLOADS

_ENUM_MEMBERS = (FunctionId.SIN, FunctionId.GELU, MethodId.LLUT,
                 MethodId.CORDIC_LUT, NumberFormat.FIXED)
# Wrong values that are not paths, and those that may stand for a path:
# no bool and no small int, which ``open`` would take as a descriptor.
_NOT_PATHS = (None, [], [1.0, 2.0], {}, math.nan, math.inf, -math.inf,
              2 ** 64, -(2 ** 70), 10 ** 400, np.float32(math.nan),
              np.float64(1e39), np.array(2.5), np.zeros((2, 3)),
              np.array([[math.inf]]), 1j) + _ENUM_MEMBERS
_WRONG = _NOT_PATHS + ("", "sin", "llut", b"fixed", True, False, 0, -1,
                       2 ** 24 + 1, 2 ** 40, np.int64(-3), np.bool_(True))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A temporary directory holding a junk table and a bad weight file."""
    d = tmp_path_factory.mktemp("boundary")
    (d / "junk.tplt").write_bytes(b"TPL4\x01\x00\x00\x00" + bytes(range(40)))
    (d / "bad.txt").write_text("float_mul=abc\n")
    (d / "good.txt").write_text("float_mul=8\n")
    return d


def _paths(d):
    return (d, d / "missing" / "file", d / "junk.tplt", d / "bad.txt",
            str(d / "good.txt"), bytes(d / "missing.txt"))


def _wrong(d):
    """Any wrong value, an OpCounts, a weight mapping of wrong weights, or
    an EvaluatorConfig whose fields are members, small sizes or wrong."""
    wrong = st.sampled_from(_WRONG)

    def either(*good):
        return st.sampled_from(good) | wrong
    configs = st.builds(EvaluatorConfig, method=either(*MethodId),
                        number_format=either(*NumberFormat),
                        n_iter=either(8), lut_size=either(64),
                        mant_bits=either(6))
    weights = st.dictionaries(st.sampled_from(OP_FIELDS + ("bogus",)), wrong,
                              max_size=2)
    return (wrong | configs | weights | st.sampled_from(_paths(d))
            | st.just(OpCounts(float_mul=2)))


# Every function pimfuncs exports (its classes and enums are Python's own
# constructors), then evaluate and evaluate_batch of small built cells.
_PUBLIC = [getattr(pimfuncs, n) for n in pimfuncs.__all__
           if inspect.isfunction(getattr(pimfuncs, n))]
_CELLS = [build_evaluator(f, cfg) for f, cfg in (
    (FunctionId.SIN, EvaluatorConfig(MethodId.LLUT_INTERP,
                                     NumberFormat.FIXED, lut_size=64)),
    (FunctionId.TANH, EvaluatorConfig(MethodId.DLLUT_INTERP, mant_bits=6)),
    (FunctionId.LOG, EvaluatorConfig(MethodId.CORDIC, n_iter=12)),
    (FunctionId.EXP, EvaluatorConfig(MethodId.CORDIC_LUT, n_iter=12)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_only_library_errors_escape(files, data):
    f = data.draw(st.sampled_from(_PUBLIC + [
        m for ev in _CELLS for m in (ev.evaluate, ev.evaluate_batch)]))
    params = inspect.signature(f).parameters.values()
    required = sum(p.default is p.empty for p in params)
    args = []
    for p in list(params)[:data.draw(st.integers(required, len(params)))]:
        pool = (st.sampled_from(_NOT_PATHS + _paths(files)) if p.name == "path"
                else _wrong(files) | st.floats()
                | st.lists(st.floats(), max_size=4))
        args.append(data.draw(pool))
    try:
        f(*args)
    except PimFuncsError:
        pass


# The low-level builders: each one's leading host (sin, which never
# raises on a finite node) or CORDIC modes, then a small good value of
# each numeric argument.
_SIN = partial(lut.mapped, math.sin)
_MODES = tuple(cordic.CordicMode)
_ML = (0.0, 1.0, 64)
_BUILDERS = (
    (lut.build_mlut, (_SIN,), _ML),
    (lut.build_llut, (_SIN,), _ML),
    (lut.build_fixed_llut, (_SIN,), _ML),
    (lut.build_dlut, (_SIN,), (-2, 2, 4)),
    (lut.build_dllut, (_SIN,), (0, 2, 4)),
    (cordic.generate_cordic_tables, _MODES, (8, 2)),
    (combined.build_cordic_lut, _MODES, (4, 12)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_builders_let_only_library_errors_escape(data):
    """Each numeric argument is a wrong value or a small good one."""
    build, lead, good = data.draw(st.sampled_from(_BUILDERS))
    args = [data.draw(st.sampled_from(lead))]
    args += [data.draw(st.sampled_from(_WRONG) | st.just(g)) for g in good]
    try:
        build(*args)
    except PimFuncsError:
        pass


def _given(name, valid, wrong=()):
    """``[name, value]``, the value a valid one or a wrong one as often."""
    values = st.sampled_from(valid)
    if wrong:
        values |= st.sampled_from(wrong)
    return values.map(lambda v: [name, v])


def _option(name, valid, wrong=()):
    """``_given``, or nothing: the option left out."""
    return _given(name, valid, wrong) | st.just([])


# Paths, "{d}" standing for the test's temporary directory.
_OUT = ("{d}/out.csv", "{d}/t.tplt")
_BAD_OUT = ("{d}", "{d}/missing/f", "{d}/junk.tplt", "")
_COUNT = ("1", "10")
_BAD_COUNT = ("0", "-1", "1099511627776", "99999999999999999999", "x", "")
_SIZES = ("8", "10", "8,10")
_BAD_SIZES = ("0", "-1", "16777217", "1099511627776", "99999999999999999999",
              "abc", "", ",", "nan", "2.5", "1e3")
_SEEDS = ("0", "99999999999999999999999")
_BAD_SEEDS = ("-1", "abc")
_FUNCTIONS = tuple(f.value for f in FunctionId)
_BAD_FUNCTIONS = ("SIN", "cndf", "")
_METHODS = tuple(m.value for m in MethodId)
_FORMATS = ("float", "fixed")
_BAD_NAMES = ("FIXED", "cordic_lut", "Blackscholes", "bogus", "")
_VARIANTS = tuple(sorted({v for _, vs in WORKLOADS.values() for v in vs}))
_TIMING = st.sampled_from(([], ["--include-timing"]))
_ARGV = st.tuples(
    _option("--weights", ("{d}/good.txt",),
            ("{d}/missing.txt", "{d}", "{d}/bad.txt", "")),
    st.tuples(
        st.just(["sweep"]), _given("--function", _FUNCTIONS, _BAD_FUNCTIONS),
        _given("--method", _METHODS, _BAD_NAMES),
        _given("--sizes", _SIZES, _BAD_SIZES),
        _option("--format", _FORMATS, _BAD_NAMES),
        _option("--samples", _COUNT, _BAD_COUNT),
        _option("--seed", _SEEDS, _BAD_SEEDS), _given("--out", _OUT, _BAD_OUT),
        _TIMING)
    | st.tuples(
        st.just(["workload"]), _given("--name", sorted(WORKLOADS), _BAD_NAMES),
        _given("--variant", _VARIANTS, _BAD_NAMES),
        _option("--n", _COUNT, _BAD_COUNT), _option("--seed", _SEEDS, _BAD_SEEDS),
        _given("--out", _OUT, _BAD_OUT), _TIMING)
    | st.tuples(
        st.sampled_from((["table", "dump"], ["table", "load"])),
        _given("--path", _OUT, _BAD_OUT),
        _option("--function", _FUNCTIONS, _BAD_FUNCTIONS),
        _option("--method", _METHODS, _BAD_NAMES),
        _option("--format", _FORMATS, _BAD_NAMES),
        _option("--size", _SIZES, _BAD_SIZES))
    | st.sampled_from((["table", "bogus"], ["table"], [])).map(lambda a: (a,))
).map(lambda parts: parts[0] + [w for part in parts[1] for w in part])


# Deterministic, so a run repeats the same examples; the explicit ones
# are refusals that once escaped as a numpy MemoryError traceback.
@settings(max_examples=200, deadline=None, derandomize=True)
@example(argv=["sweep", "--function", "sin", "--method", "llut", "--sizes",
               "16", "--samples", "1099511627776", "--out", "{d}/out.csv"])
@example(argv=["workload", "--name", "softmax", "--variant", "LLutInterp",
               "--n", "1099511627776", "--out", "{d}/out.csv"])
@example(argv=["--weights", "{d}/missing.txt", "sweep", "--function", "sin",
               "--method", "llut", "--sizes", "16", "--out", "{d}/out.csv"])
@given(argv=_ARGV)
def test_cli_exits_0_1_or_2_without_a_traceback(files, argv):
    argv = [a.format(d=files) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
