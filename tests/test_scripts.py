"""Smoke runs of the experiment scripts at minimal size."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    module.main()


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.mark.parametrize(
    "name,argv,header,rows",
    [
        ("fusion_benefit", ["--seeds", "0", "--epochs", "1"],
         ["seed", "fused_mae", "single_view_mae", "relative_improvement"], 1),
        ("sparsity_robustness", ["--seeds", "0", "--epochs", "1"],
         ["eval_fraction", "mae", "ratio_vs_train_sparsity"], 3),
        ("overfit_single_frame", ["--steps", "2"], ["step", "total"], 2),
    ],
)
def test_script_writes_its_csv(name, argv, header, rows, monkeypatch, tmp_path):
    out = tmp_path / f"{name}.csv"
    run_script(name, monkeypatch, *argv, "--out", str(out))
    table = read_csv(out)
    assert table[0] == header
    assert len(table) == 1 + rows
