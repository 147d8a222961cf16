"""The command-line interface, run in-process through ``cli.main``."""

import csv
import os

import numpy as np
import pytest

from pimfuncs import RangeError, lut
from pimfuncs.api import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                          build_evaluator)
from pimfuncs.cli import main
from pimfuncs.fixedpoint import to_fixed

F, M = FunctionId, MethodId


@pytest.mark.parametrize("argv,function,cfg", [
    ([], F.SIN, EvaluatorConfig(method=M.LLUT_INTERP)),
    (["--function", "exp", "--format", "fixed"], F.EXP,
     EvaluatorConfig(method=M.LLUT_INTERP, number_format=NumberFormat.FIXED)),
    (["--function", "tanh", "--method", "dlut-interp"], F.TANH,
     EvaluatorConfig(method=M.DLUT_INTERP)),
    (["--function", "gelu", "--method", "dllut-interp", "--size", "6"], F.GELU,
     EvaluatorConfig(method=M.DLLUT_INTERP, mant_bits=6)),
], ids=["sin-llut-interp", "exp-llut-interp-fixed", "tanh-dlut-interp",
        "gelu-dllut-interp-size6"])
def test_table_dump_writes_the_evaluators_table(tmp_path, capsys, argv,
                                                function, cfg):
    path = tmp_path / "t.tplt"
    assert main(["table", "dump", "--path", str(path)] + argv) == 0
    blob = path.read_bytes()
    assert blob == lut.dump_table(build_evaluator(function, cfg).tables[0])
    assert main(["table", "load", "--path", str(path)]) == 0
    assert lut.dump_table(lut.load_table_file(path)) == blob
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("wrote ") and out[1].startswith("kind=")


@pytest.mark.parametrize("argv, query", [
    (["--method", "mlut"], lut.mlut_query),
    ([], lut.llut_query_interp),
    (["--function", "exp", "--format", "fixed"],
     lambda t, x: lut.fixed_llut_query_interp(t, to_fixed(x))),
    (["--function", "tanh", "--method", "dlut-interp"], lut.dlut_query_interp),
    (["--function", "tanh", "--method", "dllut-interp"],
     lut.dllut_query_interp),
], ids=["M", "L", "fixed-L", "D", "DL"])
def test_table_load_prints_the_range_its_query_accepts(tmp_path, capsys,
                                                       argv, query):
    """``[lo, hi]`` for M and L, ``[lo, hi)`` for D and DL."""
    path = tmp_path / "t.tplt"
    assert main(["table", "dump", "--path", str(path)] + argv) == 0
    assert main(["table", "load", "--path", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()[-1].split(" bytes=")[0]
    t = lut.load_table_file(path)
    s = t.spec
    assert printed.endswith(f"range=[{s.lo!r}, {s.hi!r}"
                            + ("]" if s.kind in ("M", "L") else ")"))
    query(t, np.array([s.lo]))
    if printed.endswith("]"):
        query(t, np.array([s.hi]))
    else:
        with pytest.raises(RangeError):
            query(t, np.array([s.hi]))


@pytest.mark.parametrize("argv", [
    [], ["--function", "gelu", "--method", "dllut-interp"],
], ids=["sin-llut-interp", "gelu-dllut-interp"])
def test_table_dump_reports_the_bytes_written(tmp_path, capsys, argv):
    path = tmp_path / "t.tplt"
    assert main(["table", "dump", "--path", str(path)] + argv) == 0
    words = capsys.readouterr().out.split()
    assert words[0] == "wrote" and int(words[1]) == os.path.getsize(path)


def test_table_dump_refuses_two_tables(tmp_path, capsys):
    path = tmp_path / "tan.tplt"
    assert main(["table", "dump", "--path", str(path), "--function", "tan"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not path.exists()


def test_table_dump_unsupported_cell(tmp_path, capsys):
    path = tmp_path / "t.tplt"
    argv = ["table", "dump", "--path", str(path), "--function", "gelu"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_table_dump_refuses_a_table_over_the_cap(tmp_path, capsys):
    path = tmp_path / "t.tplt"
    argv = ["table", "dump", "--path", str(path), "--method", "llut",
            "--size", str(2 ** 24 + 1)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not path.exists()


def test_table_load_truncated_file(tmp_path, capsys):
    path = tmp_path / "t.tplt"
    assert main(["table", "dump", "--path", str(path), "--size", "64"]) == 0
    path.write_bytes(path.read_bytes()[:-3])
    capsys.readouterr()
    assert main(["table", "load", "--path", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_writes_csv(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--function", "sin", "--method", "llut-interp",
                 "--sizes", "64,256", "--samples", "512",
                 "--out", str(path)]) == 0
    rows = _csv_rows(path)
    assert [r["size_or_iters"] for r in rows] == ["64", "256"]
    assert all(r["function"] == "sin" and r["n_samples"] == "512"
               for r in rows)
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_workload_writes_csv(tmp_path):
    path = tmp_path / "bs.csv"
    assert main(["workload", "--name", "blackscholes", "--variant",
                 "LLutInterp", "--n", "1000", "--out", str(path)]) == 0
    (row,) = _csv_rows(path)
    assert row["workload"] == "Blackscholes" and row["n_elements"] == "1000"


def test_workload_unknown_variant(tmp_path, capsys):
    path = tmp_path / "sm.csv"
    assert main(["workload", "--name", "softmax", "--variant",
                 "FixedLLutInterp", "--n", "10", "--out", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["workload", "--name", "blackscholes", "--variant", "LLutInterp",
     "--n", "0"],
    ["sweep", "--function", "sin", "--method", "llut-interp", "--sizes", "64",
     "--samples", "0"],
], ids=["workload-n", "sweep-samples"])
def test_count_below_one_is_refused(tmp_path, capsys, argv):
    path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("weight", ("-1", "nan", "inf"))
def test_bad_weight_is_refused_before_any_work(tmp_path, capsys, weight):
    prof = tmp_path / "w.txt"
    prof.write_text(f"float_mul={weight}\n")
    path = tmp_path / "out.csv"
    assert main(["--weights", str(prof), "sweep", "--function", "sin",
                 "--method", "llut-interp", "--sizes", "64", "--samples", "8",
                 "--out", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not path.exists()
