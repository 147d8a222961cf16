"""The command-line interface, run in-process through ``cli.main``."""

import csv
import os

import pytest

from pimfuncs import lut
from pimfuncs.api import (EvaluatorConfig, FunctionId, MethodId, NumberFormat,
                          build_evaluator)
from pimfuncs.cli import main

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
