"""Catalog Fourier sources against the formula they replaced, the
catalog's reading of its numbers, and the suites' systems as config blocks."""

from __future__ import annotations

import ast
import copy
import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

from hjsys.catalog import (
    F1,
    F2,
    SYSTEMS,
    build_hamiltonian,
    build_process,
    build_system,
    direction_profile,
    fourier_function,
    idle_process,
    process_system,
    sources,
    unit_ball_eikonal_process,
    vector_field,
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
    [(lambda: fourier_function({"const": True}, 1), "fourier const must be a finite number, got True"),
     (lambda: fourier_function({"terms": [{"k": [1, True]}]}, 2),
      "fourier terms[0].k must be a finite number, got True"),
     (lambda: fourier_function({"terms": [{"sin": "1"}]}, 1),
      "fourier terms[0].sin must be a finite number, got '1'"),
     (lambda: fourier_function({"terms": [{"k": [1, 1]}]}, 1),
      "fourier terms[0].k must have 1 entries, got [1, 1]"),
     (lambda: direction_profile({"angle": [{"j": True}]}, 1),
      "direction profile angle[0].j must be an integer, got True"),
     (lambda: direction_profile({"angle": [{"j": 0.5}]}, 1),
      "direction profile angle[0].j must be an integer, got 0.5"),
     (lambda: direction_profile({"const": False}, 2),
      "direction profile const must be a finite number, got False"),
     (lambda: build_hamiltonian("linear_eikonal", {"p_box": True}), "p_box must be a finite number, got True"),
     (lambda: build_hamiltonian("linear_eikonal", {"p_box": -1.0}), "p_box must be positive"),
     (lambda: idle_process(["1.5", 0.0], RATES),
      "process.cost_rates must be a finite number or a list of them, got ['1.5', 0.0]"),
     (lambda: idle_process([0.0, True], RATES),
      "process.cost_rates must be a finite number or a list of them, got [0.0, True]"),
     (lambda: idle_process([0.0, float("nan")], RATES),
      "process.cost_rates must be a finite number or a list of them, got [0.0, nan]"),
     (lambda: unit_ball_eikonal_process([F1, F2], RATES, n_actions=True),
      "process.n_actions must be an integer, got True"),
     (lambda: unit_ball_eikonal_process([F1, F2], RATES, n_actions=4.5),
      "process.n_actions must be an integer, got 4.5"),
     (lambda: unit_ball_eikonal_process([F1, F2], RATES, n_actions=-3),
      "process.n_actions must be at least 1, got -3")],
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


def test_the_benchmark_workers_evolve_config_runs(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    run = worker.NonconvexCliWorkload({"n": 16, "t_final": 20.0, "snapshot_every": 1.0}, 0,
                                      str(tmp_path))
    run.run()
    assert (run.rc_evolve, run.rc_diag) == (0, 0)


def _evolve(system: dict) -> dict:
    return {"system": {**copy.deepcopy(system), "grid": {"dim": 1, "n": 16}},
            "solver": {"t_final": 0.05}}


def _simulate(process: dict) -> dict:
    return {"process": process, "policy": {"kind": "constant", "index": 0}, "horizon": 0.25,
            "x0": [0.25], "mode0": 0, "n_samples": 100, "seed": 3, "dt_sim": 0.125}


_NC, _QE = SYSTEMS["mainresult-nonconvex"], SYSTEMS["largenew-eikonal"]
_LE = {"coupling": {"name": "symmetric_pair"},
       "hamiltonians": [{"id": "linear_eikonal", "params": {"f": F1}},
                        {"id": "linear_eikonal", "params": {"f": F2}}]}
_IDLE = {"kind": "idle", "rates": RATES, "cost_rates": [0.0, 1.0]}
_BALL = {"kind": "unit_ball_eikonal", "rates": RATES, "fs": [F1, F2], "n_actions": 4}
_H0 = ("system", "hamiltonians", 0)
_P0 = _H0 + ("params",)


def _ham(block):
    return build_hamiltonian(block["id"], block["params"])


# (config, the block that gets the typo, the typo, the block's name in the
# error, the block the Python call reads, that call)
_TYPOS = [
    (_evolve(_NC), ("system",), "grd", "system", ("system",), build_system),
    (_evolve(_NC), ("system", "grid"), "m", "system.grid", ("system",), build_system),
    (_evolve(_NC), ("system", "coupling"), "nme", "system.coupling", ("system",), build_system),
    (_evolve(_NC), _H0, "parms", "system.hamiltonians[0]", ("system",), build_system),
    (_evolve(_QE), _P0, "source", "quadratic_eikonal params", _H0, _ham),
    (_evolve(_LE), _P0, "source", "linear_eikonal params", _H0, _ham),
    (_evolve(_NC), _P0, "drift", "nonconvex_bs00 params", _H0, _ham),
    (_evolve(_QE), _P0 + ("f",), "trems", "fourier spec", _P0 + ("f",),
     lambda block: fourier_function(block, 1)),
    (_evolve(_QE), _P0 + ("f", "terms", 0), "cso", "fourier terms[0]", _P0 + ("f",),
     lambda block: fourier_function(block, 1)),
    (_evolve(_NC), _P0 + ("q", 0), "trems", "fourier spec", _P0 + ("q",),
     lambda block: vector_field(block, 1)),
    (_evolve(_NC), _P0 + ("F",), "angel", "direction profile F", _P0 + ("F",),
     lambda block: direction_profile(block, 1)),
    (_evolve(_NC), _P0 + ("F", "angle", 0), "jj", "direction profile angle[0]", _P0 + ("F",),
     lambda block: direction_profile(block, 1)),
    (_simulate(_IDLE), ("process",), "cost_rate", "process of kind 'idle'", ("process",),
     build_process),
    (_simulate(_BALL), ("process",), "n_action", "process of kind 'unit_ball_eikonal'",
     ("process",), build_process),
    (_simulate(_BALL), ("process", "fs", 1), "cso", "fourier spec", ("process",), build_process),
]


def _node(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


@pytest.mark.parametrize("cfg, block, typo, where, read, call", _TYPOS,
                         ids=[f"{row[3]}-{row[2]}" for row in _TYPOS])
def test_a_misspelled_key_in_any_catalog_block_is_refused(tmp_path, capsys, cfg, block, typo,
                                                          where, read, call):
    # nested blocks used to ignore the key, so the run went ahead without it
    cfg = copy.deepcopy(cfg)
    _node(cfg, block)[typo] = 1.0
    message = f"{where} has no key {typo!r}; accepted: "
    kind = "simulate" if "process" in cfg else "evolve"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=re.escape(message)):
        call(_node(cfg, read))


@pytest.mark.parametrize("build, path", [
    (lambda: build_system({"coupling": {"name": "symmetric_pair"}, "hamiltonians": []}),
     "system.grid"),
    (lambda: build_system({**_NC, "grid": {"dim": 1}}), "system.grid.n"),
    (lambda: build_system({"hamiltonians": _NC["hamiltonians"]}, Grid(1, 16)), "system.coupling"),
    (lambda: build_system({"coupling": _NC["coupling"]}, Grid(1, 16)), "system.hamiltonians"),
    (lambda: build_system({**_NC, "hamiltonians": [{"params": {}}]}, Grid(1, 16)),
     "system.hamiltonians[0].id"),
    (lambda: build_process({"rates": RATES}), "process.kind"),
    (lambda: build_process({"kind": "idle", "cost_rates": [0.0, 1.0]}), "process.rates"),
    (lambda: build_process({"kind": "idle", "rates": RATES}), "process.cost_rates"),
    (lambda: build_process({"kind": "unit_ball_eikonal", "rates": RATES}), "process.fs"),
])
def test_a_missing_required_field_names_its_dotted_path(build, path):
    # a missing id or process key was a bare KeyError
    with pytest.raises(ConfigError, match=re.escape(f"missing required field {path!r}")):
        build()


def test_sources_are_the_sampled_fourier_sources():
    system = build_system(SYSTEMS["largenew-eikonal"], Grid(1, 32))
    for got, f in zip(sources(system), (F1, F2)):
        assert got.values.tobytes() == sample(fourier_function(f, 1), system.grid).values.tobytes()


def test_sources_refuse_a_hamiltonian_without_a_source():
    spec = unit_ball_eikonal_process([F1, F2], RATES, n_actions=4)
    system = process_system(spec, Grid(1, 8))
    with pytest.raises(ConfigError, match="hamiltonian 0 has no separable source"):
        sources(system)
