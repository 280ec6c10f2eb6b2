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


@pytest.mark.parametrize("argv", [["identical-gap", "--n", "4"], ["appendix-mc", "--seed", "-1"],
                                  ["identical-gap", "--n", "1000000000000"]])  # 7.28 TiB
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


def test_step_timing_reports_every_family_dimension_and_mode(tmp_path, capsys):
    out = tmp_path / "step_us.json"
    argv = ["--n", "16", "--steps", "3", "--repeat", "1", "--json", str(out)]
    assert _load("step_timing").main(argv) == 0
    rows = json.loads(out.read_text())
    assert [(r["family"], r["dim"], r["mode"]) for r in rows] == [
        (family, dim, mode)
        for family in ("quadratic", "linear", "nonconvex")
        for dim in (1, 2)
        for mode in ("local", "global")
    ]
    assert rows[0]["shape"] == [2, 2, 16] and rows[-1]["shape"] == [2, 24, 24]
    assert all(r["step_us"] > 0 for r in rows)
    assert len(capsys.readouterr().out.splitlines()) == len(rows)


def test_step_timing_rejects_a_zero_step_count(capsys):
    assert _load("step_timing").main(["--steps", "0"]) == 2
    assert "at least 1" in capsys.readouterr().err
