"""Catalog Fourier sources against the formula they replaced, the
catalog's reading of its numbers, and the suites' systems as config blocks."""

from __future__ import annotations

import ast
import json
import pathlib

import numpy as np
import pytest

from hjsys.catalog import (
    F1,
    F2,
    SYSTEMS,
    build_hamiltonian,
    build_system,
    direction_profile,
    fourier_function,
    idle_process,
    process_system,
    sources,
    unit_ball_eikonal_process,
)
from hjsys.cli import main
from hjsys.errors import ConfigError
from hjsys.grid import Grid, sample
from hjsys.suites import SUITE_RUNNERS

RATES = [[0.0, 1.0], [1.0, 0.0]]
WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _reference_fourier(params: dict, dim: int):
    """The earlier evaluator: a full array of the constant, and each term's
    phase from np.sum over k.x, in 1D as in 2D."""
    const = float(params.get("const", 0.0))
    terms = [
        (np.asarray(t.get("k", [1] * dim), dtype=float).reshape(-1),
         float(t.get("cos", 0.0)), float(t.get("sin", 0.0)))
        for t in params.get("terms", [])
    ]

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[:-1], const)
        for k, a, b in terms:
            phase = 2.0 * np.pi * np.sum(x * k, axis=-1)
            if a:
                out = out + a * np.cos(phase)
            if b:
                out = out + b * np.sin(phase)
        return out

    return fn


# -0.0 as const keeps the sign of a -0.0 term, so these see a -0.0 phase
_SPECS_1D = [
    F1,
    F2,
    {"const": 0.7},
    {},
    {"terms": [{"k": [3], "cos": 0.2, "sin": -0.4}, {"k": [-2], "sin": 1.0}]},
    {"const": -0.0, "terms": [{"k": [1], "sin": 1.0}]},
    {"const": -0.0, "terms": [{"k": [-1], "sin": 0.5}, {"k": [2], "cos": 0.0}]},
    {"const": 1.0, "terms": [{"cos": -1.0}]},
]
_SPECS_2D = [
    {"const": 1.0, "terms": [{"k": [1, 1], "cos": -1.0}]},
    {"const": -0.0, "terms": [{"k": [1, -1], "sin": 1.0}, {"k": [0, 2], "cos": 0.5}]},
    {"const": 2.5},
    {"terms": [{"sin": 0.3}]},
]


def _points(dim: int) -> list:
    rng = np.random.default_rng(dim)
    rows = rng.uniform(-1.0, 2.0, (64, dim))
    signed = np.array([[-0.0] * dim, [0.0] * dim, [0.5] * dim, [-0.5] * dim, [1.0] * dim])
    if dim == 2:
        signed = np.concatenate([signed, [[-0.0, 0.25], [0.25, -0.0], [-0.0, 0.0]]])
    rows = np.concatenate([rows, signed])
    # rows, a batch of rows, and a single point
    return [rows, rows.reshape(-1, 1, dim), rows[0], signed[0]]


@pytest.mark.parametrize("dim, specs", [(1, _SPECS_1D), (2, _SPECS_2D)])
def test_fourier_function_matches_the_reference_bit_for_bit(dim, specs):
    for spec in specs:
        got_fn, ref_fn = fourier_function(spec, dim), _reference_fourier(spec, dim)
        for x in _points(dim):
            got, ref = got_fn(x), ref_fn(x)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (spec, x)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: fourier_function({"const": True}, 1), "fourier const must be a number, got True"),
     (lambda: fourier_function({"terms": [{"k": [1, True]}]}, 2),
      "fourier terms[0].k must be a number, got True"),
     (lambda: fourier_function({"terms": [{"sin": "1"}]}, 1),
      "fourier terms[0].sin must be a number, got '1'"),
     (lambda: fourier_function({"terms": [{"k": [1, 1]}]}, 1),
      "fourier terms[0].k must have 1 entries, got [1, 1]"),
     (lambda: direction_profile({"angle": [{"j": True}]}, 1),
      "direction profile angle[0].j must be a number, got True"),
     (lambda: direction_profile({"angle": [{"j": 0.5}]}, 1),
      "direction profile angle[0].j must be an integer, got 0.5"),
     (lambda: direction_profile({"const": False}, 2),
      "direction profile const must be a number, got False"),
     (lambda: build_hamiltonian("linear_eikonal", {"p_box": True}), "p_box must be a number"),
     (lambda: build_hamiltonian("linear_eikonal", {"p_box": -1.0}), "p_box must be positive"),
     (lambda: idle_process(["1.5", 0.0], RATES), "process.cost_rates must be a number, got '1.5'"),
     (lambda: idle_process([0.0, True], RATES), "process.cost_rates must be a number, got True"),
     (lambda: idle_process([0.0, float("nan")], RATES), "process.cost_rates must be finite"),
     (lambda: unit_ball_eikonal_process([F1, F2], RATES, n_actions=True),
      "process.n_actions must be a number, got True"),
     (lambda: unit_ball_eikonal_process([F1, F2], RATES, n_actions=4.5),
      "process.n_actions must be a positive integer, got 4.5"),
     (lambda: unit_ball_eikonal_process([F1, F2], RATES, n_actions=-3),
      "process.n_actions must be a positive integer, got -3")],
)
def test_catalog_numbers_reject_booleans_and_strings(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert message in str(exc.value)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_a_suite_system_pasted_into_an_evolve_config_builds_that_system(name, tmp_path):
    assert name in SUITE_RUNNERS
    cfg = {"system": {**SYSTEMS[name], "grid": {"dim": 1, "n": 16}}, "solver": {"t_final": 0.05}}
    path = tmp_path / "evolve.json"
    path.write_text(json.dumps(cfg))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "trajectory" / "manifest.json").read_text())
    want = build_system(SYSTEMS[name], Grid(1, 16)).describe()
    assert manifest["meta"]["system"] == json.loads(json.dumps(want))


def _worker_hamiltonians() -> list:
    """NONCONVEX_HAMILTONIANS of perfbench/worker.py, read without importing it."""
    for node in ast.parse(WORKER.read_text(), filename=str(WORKER)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "NONCONVEX_HAMILTONIANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{WORKER} defines no NONCONVEX_HAMILTONIANS")


def test_the_benchmark_worker_runs_the_mainresult_nonconvex_system():
    assert _worker_hamiltonians() == SYSTEMS["mainresult-nonconvex"]["hamiltonians"]


def test_sources_are_the_sampled_fourier_sources():
    system = build_system(SYSTEMS["largenew-eikonal"], Grid(1, 32))
    for got, f in zip(sources(system), (F1, F2)):
        assert got.values.tobytes() == sample(fourier_function(f, 1), system.grid).values.tobytes()


def test_sources_refuse_a_hamiltonian_without_a_source():
    spec = unit_ball_eikonal_process([F1, F2], RATES, n_actions=4)
    system = process_system(spec, Grid(1, 8))
    with pytest.raises(ConfigError, match="hamiltonian 0 has no separable source"):
        sources(system)
