import math
import sys
import threading

import pytest

from pimfuncs.costmodel import (DEFAULT_WEIGHTS, OP_FIELDS, OpCounts, counting,
                                load_weights, tally, weighted_cost,
                                with_counting)


def test_tally_outside_context_is_noop():
    tally("float_mul", 5)  # must not raise or leak anywhere


def test_with_counting_captures():
    def thunk():
        tally("int_add", 3)
        tally("float_div")
        return "ok"

    result, c = with_counting(thunk)
    assert result == "ok"
    assert c.int_add == 3
    assert c.float_div == 1
    assert c.float_mul == 0


def test_nested_counting_folds_into_parent():
    with counting() as outer:
        tally("int_add")
        with counting() as inner:
            tally("int_add", 2)
        assert inner.int_add == 2
    assert outer.int_add == 3


def test_counting_is_per_thread():
    """Threads counting at once see only their own tallies, and none reach
    a context that another thread has open."""
    n_threads, rounds = 4, 2000
    barrier = threading.Barrier(n_threads)
    seen = [None] * n_threads

    def work(i):
        barrier.wait(timeout=30)
        with counting() as c:
            for _ in range(rounds):
                tally("int_add", i + 1)
        seen[i] = c.int_add

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with counting() as outer:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [rounds * (i + 1) for i in range(n_threads)]
    assert outer.int_add == 0


def test_opcounts_add():
    a = OpCounts(int_add=1, float_mul=2)
    b = OpCounts(int_add=10, lut_lookup=4)
    s = a + b
    assert s.int_add == 11 and s.float_mul == 2 and s.lut_lookup == 4
    a += b
    assert a.int_add == 11
    assert s.total() == sum(s.as_dict().values())


def test_weighted_cost_default():
    c = OpCounts(int_shift=2, int_add=3, float_mul=1)
    expect = 2 * 1.0 + 3 * 1.0 + 1 * 16.0
    assert weighted_cost(c) == expect


def test_weighted_cost_validates():
    with pytest.raises(ValueError):
        weighted_cost(OpCounts(), {"bogus_field": 1.0})


@pytest.mark.parametrize("w", (-1.0, math.nan, math.inf))
def test_weighted_cost_refuses_weight(w):
    with pytest.raises(ValueError):
        weighted_cost(OpCounts(), {"float_mul": w})


def test_default_weights_cover_cost_fields():
    for f in OP_FIELDS:
        assert f in DEFAULT_WEIGHTS


def test_load_weights(tmp_path):
    prof = tmp_path / "w.txt"
    prof.write_text("# comment line\nfloat_mul = 32\nint_add=2  # trailing\n\n")
    w = load_weights(prof)
    assert w["float_mul"] == 32.0
    assert w["int_add"] == 2.0
    assert w["float_div"] == DEFAULT_WEIGHTS["float_div"]  # untouched


def test_load_weights_rejects_unknown(tmp_path):
    prof = tmp_path / "w.txt"
    prof.write_text("not_an_op=3\n")
    with pytest.raises(ValueError):
        load_weights(prof)
