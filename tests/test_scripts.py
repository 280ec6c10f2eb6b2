"""Smoke runs of the scripts under scripts/ at small sizes."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from hjsys.errors import DivergenceError

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ergodic_vs_mc_writes_tables(tmp_path, capsys):
    argv = ["--n", "32", "--t-final", "20", "--horizon", "0.25", "--n-samples", "200"]
    assert _load("ergodic_vs_mc").main(argv + ["--out", str(tmp_path)]) == 0
    probes = (tmp_path / "probes.csv").read_text().splitlines()
    assert probes[0] == "x,mode,mc,std_error,pde,relative_gap"
    assert len(probes) == 6
    assert (tmp_path / "constants.csv").exists()
    assert json.loads((tmp_path / "summary.json").read_text())["grid_n"] == 32


def test_run_suites_writes_summary(tmp_path, capsys):
    argv = ["identical-gap", "--n", "32", "--t-final", "6", "--out", str(tmp_path)]
    assert _load("run_suites").main(argv) == 0
    assert json.loads((tmp_path / "identical-gap" / "suite.json").read_text())["passed"]


@pytest.mark.parametrize("argv", [["identical-gap", "--n", "4"], ["appendix-mc", "--seed", "-1"]])
def test_run_suites_bad_override_exits_2(argv, capsys):
    assert _load("run_suites").main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_run_suites_numerical_failure_exits_3(monkeypatch, capsys):
    module = _load("run_suites")

    def diverge(name, **overrides):
        raise DivergenceError("non-finite values")

    monkeypatch.setattr(module, "run_suite", diverge)
    assert module.main(["identical-gap"]) == 3
    assert "numerical failure" in capsys.readouterr().err
