"""Command line interface: exit codes, artifact layout, reproducibility."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjsys.catalog import F1, F2, SYSTEMS
from hjsys.cli import main
from hjsys.errors import ConfigError
from hjsys.suites import run_suite


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _evolve_cfg(n=16, t_final=0.2):
    return {
        "system": {
            "grid": {"dim": 1, "n": n},
            "coupling": {"name": "symmetric_pair"},
            "hamiltonians": [
                {"id": "quadratic_eikonal", "params": {"f": F1}},
                {"id": "quadratic_eikonal", "params": {"f": F2}},
            ],
        },
        "solver": {"t_final": t_final, "snapshot_every": 0.1},
        "u0": {"kind": "zeros"},
    }


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestListing:
    def test_list_suites(self, capsys):
        assert main(["list", "suites"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert "largenew-eikonal" in lines
        assert "appendix-mc" in lines

    def test_listed_suites_are_the_runnable_ones(self, capsys):
        assert main(["list", "suites"]) == 0
        listed = capsys.readouterr().out.split()
        for name in listed:
            # a known name gets past the name check to the override check
            with pytest.raises(ConfigError, match="has no key 'bogus'"):
                run_suite(name, bogus=1)
        with pytest.raises(ConfigError, match="known: " + ", ".join(sorted(listed))):
            run_suite("no-such-suite")

    def test_list_hamiltonians(self, capsys):
        assert main(["list", "hamiltonians"]) == 0
        out = capsys.readouterr().out
        assert "quadratic_eikonal" in out
        assert "nonconvex_bs00" in out

    def test_list_couplings(self, capsys):
        assert main(["list", "couplings"]) == 0
        assert "symmetric_pair" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["evolve", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["evolve", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_field_names_dotted_path(self, tmp_path, capsys):
        cfg = _evolve_cfg()
        del cfg["system"]["grid"]["n"]
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert "system.grid.n" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        cfg = _evolve_cfg(t_final=40.0)
        cfg["solver"]["dt_override"] = 10.0
        cfg["solver"]["snapshot_every"] = 40.0
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 3

    def test_divergence_message_prints_plain_numbers(self, tmp_path, capsys):
        # the step time was a numpy scalar, printed as np.float64(...)
        cfg = _evolve_cfg()
        cfg["u0"] = {"kind": "constants", "values": [1e308, -1e308]}
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite value after step to t = 0.005555555555555556:" in err
        assert "np.float64(" not in err

    @pytest.mark.parametrize("field, value", [
        ("snapshot_every", 1e-300),  # 1e300 snapshot times, more than an array holds
        ("snapshot_every", 1e-12),  # 1e12 snapshot times, 7.28 TiB
        ("dt_override", 1e-310),  # infinitely many steps per span
        ("dt_override", 1e-18),  # 1e18 steps, over the step budget
    ])
    def test_unholdable_snapshot_or_step_count_is_a_config_error(self, tmp_path, capsys, field,
                                                                 value):
        cfg = _evolve_cfg(t_final=1.0)
        cfg["solver"][field] = value
        out = tmp_path / "out"
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} = {value!r}")
        assert not out.exists()

    def test_nonmonotone_coupling_exits_1(self, tmp_path, capsys):
        cfg = {"coupling": {"entries": [[1.0, -2.0], [-1.0, 1.0]]}}
        rc = main(
            [
                "validate-coupling",
                "--config",
                _write(tmp_path, "c.json", cfg),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["monotone"] is False

    def test_non_numeric_t_final_is_a_config_error(self, tmp_path, capsys):
        cfg = _evolve_cfg()
        cfg["solver"]["t_final"] = "abc"
        out = tmp_path / "out"
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_nonmonotone_system_coupling_is_a_config_error(self, tmp_path, capsys):
        cfg = _evolve_cfg()
        cfg["system"]["coupling"] = {"entries": [[1.0, -2.0], [-1.0, 1.0]]}
        out = tmp_path / "out"
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2
        assert "not monotone" in capsys.readouterr().err

    def test_missing_trajectory_dir_is_a_config_error(self, tmp_path, capsys):
        cfg = {"trajectory_dir": str(tmp_path / "nowhere"), "c": "measured"}
        out = tmp_path / "out"
        rc = main(["diagnose", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: trajectory_dir" in err and "nowhere" in err

    def test_nonfinite_coupling_entry_is_a_config_error(self, tmp_path, capsys):
        cfg = _evolve_cfg()
        cfg["system"]["coupling"] = {"entries": [[None, -1.0], [-1.0, 1.0]]}
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "system.coupling.entries must be a finite number or a list of them" in err

    def test_nonfinite_direction_profile_is_a_config_error(self, tmp_path, capsys):
        cfg = _evolve_cfg()
        for hb in cfg["system"]["hamiltonians"]:
            hb["id"] = "nonconvex_bs00"
            hb["params"]["F"] = {"const": float("nan")}
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "direction profile const must be a finite number, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params, message",
        [({"F": [1]}, "direction profile F must be a mapping, got [1]"),
         ({"F": {"angle": [5]}}, "direction profile angle[0] must be a mapping, got 5"),
         ({"f": {"terms": [5]}}, "fourier terms[0] must be a mapping, got 5")],
    )
    def test_non_mapping_profile_or_term_is_a_config_error(self, tmp_path, capsys, params,
                                                           message):
        cfg = _evolve_cfg()
        for hb in cfg["system"]["hamiltonians"]:
            hb["id"] = "nonconvex_bs00"
            hb["params"].update(params)
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_gradient_outside_p_box_exits_3(self, tmp_path, capsys):
        # local-flux dt comes from lf_alpha, sampled over the p_box; data with
        # slopes up to pi overrun a box of 0.5 but not the default 2.5
        cfg = _evolve_cfg()
        steep = {"terms": [{"k": [1], "sin": 0.5}]}
        cfg["u0"] = {"kind": "fourier", "components": [steep, steep]}
        out = str(tmp_path / "out")
        assert main(["evolve", "--config", _write(tmp_path, "a.json", cfg), "--out", out]) == 0
        for hb in cfg["system"]["hamiltonians"]:
            hb["params"]["p_box"] = 0.5
        capsys.readouterr()
        rc = main(["evolve", "--config", _write(tmp_path, "b.json", cfg), "--out", out])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: CFL budget exceeded" in err
        assert "Traceback" not in err

    def test_threads_option_is_gone(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _evolve_cfg())
        with pytest.raises(SystemExit) as exc:
            main(["evolve", "--config", cfg_path, "--threads", "2"])
        assert exc.value.code == 2


def _rejects_non_booleans(kind, cfg, field, tmp_path, capsys):
    # JSON true/false only: each of these used to switch the option on
    for value in ("abc", -1, 1, float("nan"), None):
        cfg[field] = value
        rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"{field} must be true or false" in capsys.readouterr().err


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix]
    return [p for key, child in items for p in _leaf_paths(child, prefix + (key,))]


_DELETE = object()


def _mutated(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


def _check_mutant(kind, bases, data, tmp_path_factory):
    """Run one base config with one leaf deleted or replaced by a string,
    null, -1, inf, nan or true, and check the exit-code contract.  No size is
    raised to a finite value and the config boundary rejects non-finite
    ones, so every run stays short.  main runs in-process, so an uncaught
    exception fails the calling test with its traceback."""
    base = data.draw(st.sampled_from(bases))
    path = data.draw(st.sampled_from(_leaf_paths(base)))
    value = data.draw(
        st.sampled_from([_DELETE, "abc", None, -1, float("inf"), float("nan"), True])
    )
    cfg = _mutated(base, path, value)
    tmp = tmp_path_factory.mktemp("mutant")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([kind, "--config", _write(tmp, "c.json", cfg), "--out", str(tmp)])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def _evolve_mixed_cfg():
    return {
        "system": {
            "grid": {"dim": 1, "n": 12},
            "coupling": {"entries": [[1.0, -1.0], [-0.5, 0.5]]},
            "hamiltonians": [
                {"id": "nonconvex_bs00", "params": {
                    "p_box": 3.0, "F": {"const": 1.0, "angle": [{"j": 1, "cos": 0.3, "sin": 0.0}]},
                }},
                {"id": "linear_eikonal", "params": {"f": F2}},
            ],
        },
        "solver": {
            "t_final": 0.1,
            "snapshot_every": 0.05,
            "cfl": 0.4,
            "flux_mode": "global",
            "dt_override": 0.002,
        },
        "u0": {
            "kind": "fourier",
            "components": [
                {"const": 0.1, "terms": [{"k": [1], "cos": 0.2, "sin": 0.1}]},
                {"terms": [{"k": [2], "sin": 0.3}]},
            ],
        },
    }


class TestValidateCoupling:
    def test_builtin_symmetric_pair(self, tmp_path, capsys):
        cfg = {"coupling": {"name": "symmetric_pair"}}
        out = tmp_path / "out"
        rc = main(
            [
                "validate-coupling",
                "--config",
                _write(tmp_path, "c.json", cfg),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads((out / "coupling.json").read_text())
        assert payload["monotone"] and payload["irreducible"]
        assert np.allclose(payload["perron"], [0.5, 0.5])
        assert payload["delta_rate"] == pytest.approx(2.0)


class TestEvolve:
    def test_artifacts_and_reproducibility(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "c.json", _evolve_cfg())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["evolve", "--config", cfg_path, "--out", str(out_b)]) == 0
        files_a = _tree_bytes(out_a)
        files_b = _tree_bytes(out_b)
        assert "trajectory/manifest.json" in files_a
        assert any(k.endswith(".bin") for k in files_a)
        assert files_a == files_b  # byte-identical rerun

    def test_2d_config_without_sources_uses_the_defaults(self, tmp_path):
        cfg = _evolve_cfg(n=8, t_final=0.05)
        cfg["system"]["grid"]["dim"] = 2
        cfg["system"]["hamiltonians"] = [
            {"id": "quadratic_eikonal"},
            {"id": "nonconvex_bs00", "params": {}},
        ]
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["evolve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0

    def test_fourier_initial_data(self, tmp_path):
        cfg = _evolve_cfg()
        cfg["u0"] = {
            "kind": "fourier",
            "components": [
                {"const": 0.0, "terms": [{"k": [1], "cos": 0.1}]},
                {"const": 0.0},
            ],
        }
        out = tmp_path / "out"
        rc = main(
            ["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0

    def test_wrong_component_count_in_u0(self, tmp_path, capsys):
        cfg = _evolve_cfg()
        cfg["u0"] = {"kind": "constants", "values": [0.0]}
        rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_config_keeps_exit_contract(self, tmp_path_factory, data):
        bases = [_evolve_cfg(n=16, t_final=0.2), _evolve_mixed_cfg()]
        _check_mutant("evolve", bases, data, tmp_path_factory)


class TestErgodic:
    def test_constant_reported(self, tmp_path, capsys):
        cfg = {
            "system": _evolve_cfg(n=32)["system"],
            "schedule": {"lambdas": [0.1, 0.05], "steady_state_tol": 1e-7},
        }
        out = tmp_path / "out"
        rc = main(
            ["ergodic", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads((out / "ergodic.json").read_text())
        assert len(payload["c"]) == 2
        # both sources share the minimizer at 0 with mean level 0.25
        assert abs(payload["c"][0] + 0.25) <= 0.05
        assert (out / "per_lambda.csv").exists()
        assert (out / "corrector0.bin").exists()

    def test_reducible_coupling_is_a_config_error(self, tmp_path, capsys):
        # a decoupled pair has no common constant; it used to exit 0
        cfg = _ergodic_cfg()
        cfg["system"]["coupling"] = {"entries": [[0.0, 0.0], [0.0, 0.0]]}
        out = tmp_path / "out"
        rc = main(["ergodic", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2
        assert "constant coupling is reducible" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_config_keeps_exit_contract(self, tmp_path_factory, data):
        _check_mutant("ergodic", [_ergodic_cfg(), _ergodic_mixed_cfg()], data, tmp_path_factory)


def _ergodic_cfg():
    return {
        "system": _evolve_cfg(n=16)["system"],
        "schedule": {
            "lambdas": [0.1, 0.05],
            "steady_state_tol": 1e-8,
            "anchor": [0.25],
            "cfl": 0.9,
            "flux_mode": "local",
            "max_steps_per_lambda": 20000,
        },
    }


def _ergodic_mixed_cfg():
    # nonconvex and linear Hamiltonians, global flux; the march fallback
    # gets few steps, so a failed Newton solve ends in exit 3
    return {
        "system": _evolve_mixed_cfg()["system"],
        "schedule": {"lambdas": [0.2, 0.1], "flux_mode": "global", "max_steps_per_lambda": 500},
    }


def _diagnose_cfg():
    system = _evolve_cfg(n=12)["system"]
    system["hamiltonians"][1] = copy.deepcopy(system["hamiltonians"][0])  # gap needs one H
    return {
        "system": system,
        "solver": {"t_final": 0.5, "snapshot_every": 0.25, "cfl": 0.5},
        "u0": {"kind": "constants", "values": [0.1, -0.1]},
        "c": [0.25, 0.25],
        "etas": [0.05, 0.1],
        "use_log_transform": True,
        "gap": True,
        "sets": [{"kind": "common_min"}, {"kind": "custom", "points": [[0.5], [0.25]]}],
    }


class TestDiagnose:
    @pytest.fixture(scope="class")
    def saved_run(self, tmp_path_factory):
        run = tmp_path_factory.mktemp("run")
        cfg = _evolve_cfg(n=12, t_final=20.0)  # "measured" c needs a 10-unit window
        cfg["solver"]["snapshot_every"] = 1.0
        cfg_path = _write(run, "e.json", cfg)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["evolve", "--config", cfg_path, "--out", str(run)]) == 0
        return str(run / "trajectory")

    def test_base_configs_pass(self, tmp_path, saved_run):
        for cfg in (_diagnose_cfg(), {"trajectory_dir": saved_run, "c": "measured"}):
            rc = main(["diagnose", "--config", _write(tmp_path, "c.json", cfg),
                       "--out", str(tmp_path / "out")])
            assert rc == 0

    def test_gap_for_distinct_hamiltonians_is_a_config_error(self, tmp_path, capsys):
        cfg = _diagnose_cfg()
        cfg["system"] = _evolve_cfg(n=12)["system"]
        rc = main(["diagnose", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert "gap decay requires" in capsys.readouterr().err

    def test_negative_eta_is_a_config_error(self, tmp_path, capsys):
        cfg = dict(_diagnose_cfg(), etas=[-0.5], c=[0, 0])
        out = tmp_path / "out"
        rc = main(["diagnose", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2
        assert "eta must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_use_log_transform_must_be_a_boolean(self, tmp_path, capsys):
        _rejects_non_booleans("diagnose", _diagnose_cfg(), "use_log_transform", tmp_path, capsys)

    def test_gap_must_be_a_boolean(self, tmp_path, capsys):
        _rejects_non_booleans("diagnose", _diagnose_cfg(), "gap", tmp_path, capsys)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_config_keeps_exit_contract(self, tmp_path_factory, data, saved_run):
        saved = {"trajectory_dir": saved_run, "c": "measured", "etas": [0.1]}
        _check_mutant("diagnose", [_diagnose_cfg(), saved], data, tmp_path_factory)

    def test_inline_system_with_sets(self, tmp_path):
        cfg = {
            "system": _evolve_cfg(n=32)["system"],
            "solver": {"t_final": 2.0, "snapshot_every": 0.25},
            "u0": {"kind": "zeros"},
            "c": [0.25, 0.25],
            "sets": [{"kind": "common_min"}, {"kind": "custom", "points": [[0.5]]}],
        }
        out = tmp_path / "out"
        rc = main(
            ["diagnose", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads((out / "convergence.json").read_text())
        assert payload["c_used"] == [0.25, 0.25]
        kinds = [s["kind"] for s in payload["set_evaluations"]]
        assert kinds == ["common_min", "custom"]
        assert (out / "p_eta.csv").exists()

    def test_diagnose_saved_trajectory(self, tmp_path):
        evolve_out = tmp_path / "run"
        cfg_path = _write(tmp_path, "e.json", _evolve_cfg(n=16, t_final=0.4))
        assert main(["evolve", "--config", cfg_path, "--out", str(evolve_out)]) == 0
        diag = {
            "trajectory_dir": str(evolve_out / "trajectory"),
            "c": [0.0, 0.0],
        }
        out = tmp_path / "diag"
        rc = main(
            ["diagnose", "--config", _write(tmp_path, "d.json", diag), "--out", str(out)]
        )
        assert rc == 0
        assert (out / "convergence.json").exists()


def _simulate_cfg():
    return {
        "process": {
            "kind": "unit_ball_eikonal",
            "rates": [[0.0, 1.0], [1.0, 0.0]],
            "fs": [F1, F2],
            "n_actions": 4,
        },
        "policy": {"kind": "greedy", "grid_n": 16, "snapshot_every": 0.125},
        "horizon": 0.25,
        "x0": [0.25],
        "mode0": 1,
        "n_samples": 100,
        "seed": 3,
        "dt_sim": 0.125,
        "dump_path": True,
    }


def _idle_cfg():
    return {
        "process": {
            "kind": "idle",
            "rates": [[0.0, 1.0], [1.0, 0.0]],
            "cost_rates": [0.0, 1.0],
        },
        "policy": {"kind": "constant", "index": 0},
        "horizon": 0.5,
        "x0": [0.0],
        "mode0": 0,
        "n_samples": 100,
        "seed": 12,
        "dt_sim": 0.25,
    }


class TestSimulate:
    @pytest.mark.parametrize(
        "field, value",
        [("n_samples", "abc"), ("dt_sim", "x"), ("mode0", 5),
         # an infinite step takes no step; an infinite horizon overflows the step count
         ("dt_sim", float("inf")), ("horizon", float("inf")), ("horizon", float("nan")),
         ("dt_sim", 1e-320),  # finite, but horizon / dt_sim steps overflow
         ("dt_sim", 1e-12)],  # 5e11 steps, over the step budget
    )
    def test_bad_run_field_is_a_config_error(self, tmp_path, capsys, field, value):
        cfg = _idle_cfg()
        cfg[field] = value
        rc = main(["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unit_ball_path_dump(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", _write(tmp_path, "c.json", _simulate_cfg()), "--out", str(out)])
        assert rc == 0
        rows = (out / "path.csv").read_text().splitlines()
        assert rows[0] == "t,mode,action,x0"
        # the path is integrated with the configured dt_sim = 0.125 up to 0.25
        times = [float(r.split(",")[0]) for r in rows[1:]]
        assert times[-1] == 0.25 and 3 <= len(times) < 20

    @pytest.mark.parametrize("path, value", [
        # each clock e / R is below one ulp of the time, so no switch round progresses
        (("process", "rates"), [[-1.0, 1e308], [1e308, -1.0]]),
        # 10 steps, inside the step budget, but about 1e300 switches per path
        (("horizon",), 1e300)])
    def test_switching_that_cannot_finish_is_a_config_error(self, tmp_path, capsys, path, value):
        cfg = _mutated(dict(_idle_cfg(), dt_sim=1e299), path, value)
        t0 = time.perf_counter()
        rc = main(["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2 and time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "config error: rates and horizon" in err
        assert "expected switches per path" in err and "exceed the budget of 100,000,000" in err

    def test_dump_path_must_be_a_boolean(self, tmp_path, capsys):
        _rejects_non_booleans("simulate", _idle_cfg(), "dump_path", tmp_path, capsys)

    def test_constant_index_outside_control_set(self, tmp_path, capsys):
        cfg = _idle_cfg()
        cfg["policy"]["index"] = 7
        rc = main(["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "policy.index must be in [0, 1)" in capsys.readouterr().err

    @settings(max_examples=60)
    @given(data=st.data())
    def test_mutated_config_keeps_exit_contract(self, tmp_path_factory, data):
        _check_mutant("simulate", [_simulate_cfg(), _idle_cfg()], data, tmp_path_factory)

    def test_idle_process_value(self, tmp_path, capsys):
        cfg = {
            "process": {
                "kind": "idle",
                "rates": [[0.0, 1.0], [1.0, 0.0]],
                "cost_rates": [0.0, 1.0],
            },
            "policy": {"kind": "constant", "index": 0},
            "horizon": 1.0,
            "x0": [0.0],
            "mode0": 0,
            "n_samples": 400,
            "seed": 12,
            "dt_sim": 0.25,
            "dump_path": True,
        }
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads((out / "value.json").read_text())
        exact = 0.5 - (1 - np.exp(-2.0)) / 4
        assert abs(payload["mean"] - exact) <= 5 * payload["std_error"] + 1e-9
        lines = (out / "path.csv").read_text().splitlines()
        assert lines[0] == "t,mode,action,x0"

    def test_dt_sim_past_the_horizon_takes_one_step(self, tmp_path):
        # no switching and a constant cost rate: the value is rate * horizon
        cfg = _idle_cfg()
        cfg["process"].update(rates=[[0.0, 0.0], [0.0, 0.0]], cost_rates=[0.75, 0.0])
        cfg.update(horizon=0.125, dt_sim=1e13, dump_path=True)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "value.json").read_text())
        assert payload["mean"] == 0.75 * 0.125 and payload["std_error"] == 0.0
        assert [r.split(",")[0] for r in (out / "path.csv").read_text().splitlines()[1:]] == [
            "0.0", "0.125"]

    def test_simulate_rerun_reproduces_bytes(self, tmp_path):
        cfg = {
            "process": {
                "kind": "unit_ball_eikonal",
                "rates": [[0.0, 1.0], [1.0, 0.0]],
                "fs": [F1, F2],
                "n_actions": 16,
            },
            "policy": {"kind": "constant", "index": 3},
            "horizon": 0.5,
            "x0": [0.25],
            "mode0": 1,
            "n_samples": 300,
            "seed": 77,
            "dt_sim": 0.125,
        }
        cfg_path = _write(tmp_path, "c.json", cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == 0
        assert _tree_bytes(out_a) == _tree_bytes(out_b)


class TestTheoremSuite:
    def test_quick_pass(self, tmp_path, capsys):
        cfg = {"name": "identical-gap", "overrides": {"n": 64, "t_final": 6.0}}
        out = tmp_path / "out"
        rc = main(
            [
                "theorem-suite",
                "--config",
                _write(tmp_path, "c.json", cfg),
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in captured
        assert (out / "suite.json").exists()

    def test_short_horizon_fails(self, tmp_path, capsys):
        # half a time unit leaves too few snapshots to certify the decay rate
        cfg = {"name": "identical-gap", "overrides": {"n": 64, "t_final": 0.5}}
        rc = main(
            [
                "theorem-suite",
                "--config",
                _write(tmp_path, "c.json", cfg),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_unknown_override_key(self, tmp_path, capsys):
        cfg = {"name": "identical-gap", "overrides": {"bogus": 1}}
        rc = main(["theorem-suite", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'bogus'" in err and "accepted: n, t_final" in err

    def test_override_of_wrong_type(self, tmp_path, capsys):
        cfg = {"name": "identical-gap", "overrides": {"n": "abc"}}
        rc = main(["theorem-suite", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2
        assert "parameter 'n' must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("identical-gap", "n", 4),  # a grid needs at least 8 nodes
            ("identical-gap", "n", True),  # a boolean is not a number
            ("appendix-mc", "seed", -1),  # SeedSequence takes no negative seed
            ("identical-gap", "t_final", True),
            ("appendix-mc", "horizon", True),
            # int("16") and float("nan") used to take strings
            ("identical-gap", "n", "16"),
            ("identical-gap", "t_final", "nan"),
            ("appendix-mc", "seed", "7"),
            ("identical-gap", "t_final", float("nan")),
        ],
    )
    def test_override_out_of_range_or_boolean(self, tmp_path, capsys, name, key, value):
        cfg = {"name": name, "overrides": {key: value}}
        rc = main(["theorem-suite", "--config", _write(tmp_path, "c.json", cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"suite {name!r} parameter {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides",
        [{"name": "largenew-eikonal", "overrides": {"n": 16, "t_final": 31.0}},
         {"name": "identical-gap", "overrides": {"n": 64, "t_final": 6.0}}],
    )
    def test_rerun_reproduces_suite_json_apart_from_wall_time(self, tmp_path, overrides):
        # the README names the only wall-time fields: elapsed_seconds and the
        # value of the estimator_runtime_seconds check
        def without_wall_time(path):
            payload = json.loads(path.read_text())
            del payload["elapsed_seconds"]
            for check in payload["checks"]:
                if check["name"] == "estimator_runtime_seconds":
                    del check["value"]
            return json.dumps(payload, indent=2, sort_keys=True)

        cfg_path = _write(tmp_path, "c.json", overrides)
        runs = []
        for k in range(2):
            out = tmp_path / f"run{k}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["theorem-suite", "--config", cfg_path, "--out", str(out)])
            runs.append((rc, without_wall_time(out / "suite.json")))
        assert runs[0] == runs[1]

    def test_run_suite_records_its_elapsed_time(self):
        assert run_suite("identical-gap", n=16, t_final=0.5).elapsed_seconds > 0

    @pytest.mark.parametrize("name", ["largenew-eikonal", "exist-smoo-strictconvex"])
    def test_settledness_grades_the_last_quarter_of_any_horizon(self, name):
        # t_final = 25 ends before t = 30: the tail is t >= 18.75, not empty,
        # and holds more than the final snapshot, whose distance is 0
        checks = {c.name: c for c in run_suite(name, n=16, t_final=25.0).checks}
        for label in ("a", "b"):
            assert 0.0 < checks[f"profile_settled_{label}"].value
        assert "terminal_profiles_agree" in checks

    def test_unknown_suite(self, tmp_path, capsys):
        cfg = {"name": "no-such-suite"}
        rc = main(["theorem-suite", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2

    def test_non_string_suite_name(self, tmp_path, capsys):
        cfg = {"name": ["identical-gap"]}
        rc = main(["theorem-suite", "--config", _write(tmp_path, "c.json", cfg)])
        assert rc == 2


@pytest.mark.parametrize("typo", ["trems", "cso", "source"])
def test_misspelled_source_key_is_a_config_error(tmp_path, capsys, typo):
    # each typo used to run a different system: c = -1.5 or -0.024, not -0.524
    system = {**copy.deepcopy(SYSTEMS["largenew-eikonal"]), "grid": {"dim": 1, "n": 32}}
    params = system["hamiltonians"][0]["params"]
    block = {"trems": params["f"], "cso": params["f"]["terms"][0], "source": params}[typo]
    block[typo] = block.pop({"trems": "terms", "cso": "cos", "source": "f"}[typo])
    cfg = {"system": system, "schedule": {"lambdas": [0.1, 0.05]}}
    out = tmp_path / "out"
    rc = main(["ergodic", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    assert f"has no key {typo!r}" in capsys.readouterr().err
    assert not out.exists()


def _refuses_what_it_cannot_hold() -> bool:
    """Whether the kernel refuses an allocation past its memory at once:
    Linux's heuristic or strict overcommit, not "always"."""
    try:
        with open("/proc/sys/vm/overcommit_memory") as fh:
            return fh.read().strip() in ("0", "2")
    except OSError:
        return False


@pytest.mark.skipif(not _refuses_what_it_cannot_hold(), reason="allocations are not refused")
@pytest.mark.parametrize("kind, base, path", [
    ("evolve", _evolve_cfg, ("system", "grid", "n")),
    ("ergodic", _ergodic_cfg, ("system", "grid", "n")),
    ("diagnose", _diagnose_cfg, ("system", "grid", "n")),
    ("simulate", _simulate_cfg, ("policy", "grid_n")),
    ("simulate", _idle_cfg, ("n_samples",)),
    ("simulate", _simulate_cfg, ("process", "n_actions")),
    ("theorem-suite", lambda: {"name": "identical-gap", "overrides": {"n": 16}}, ("overrides", "n")),
    ("theorem-suite", lambda: {"name": "appendix-mc", "overrides": {"n_samples": 100}},
     ("overrides", "n_samples")),
])
def test_size_past_memory_is_a_config_error(tmp_path, capsys, kind, base, path):
    # 10^12 entries ask for 7.28 TiB, refused at once; this was a MemoryError
    # traceback and exit 1
    cfg = _mutated(base(), path, 10**12)
    out = tmp_path / "out"
    rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {kind} needs more memory than the host can give: ")
    assert "Traceback" not in err


@pytest.mark.skipif(not _refuses_what_it_cannot_hold(), reason="allocations are not refused")
def test_python_callers_still_get_the_memory_error():
    with pytest.raises(MemoryError):
        run_suite("identical-gap", n=10**12)


_INTEGER_FIELDS = [
    ("evolve", _evolve_cfg, ("system", "grid", "n"), "system.grid.n"),
    ("evolve", _evolve_cfg, ("system", "grid", "dim"), "system.grid.dim"),
    ("ergodic", _ergodic_cfg, ("schedule", "max_steps_per_lambda"),
     "schedule.max_steps_per_lambda"),
    ("simulate", _simulate_cfg, ("process", "n_actions"), "process.n_actions"),
    ("simulate", _simulate_cfg, ("policy", "grid_n"), "policy.grid_n"),
    ("simulate", _idle_cfg, ("policy", "index"), "policy.index"),
    ("simulate", _idle_cfg, ("mode0",), "mode0"),
    ("simulate", _idle_cfg, ("n_samples",), "n_samples"),
    ("simulate", _idle_cfg, ("seed",), "seed"),
    ("evolve", _evolve_mixed_cfg, ("system", "hamiltonians", 0, "params", "F", "angle", 0, "j"),
     "direction profile angle[0].j"),
]


@pytest.mark.parametrize("kind, base, path, name", _INTEGER_FIELDS)
def test_integer_field_rejects_non_integers(tmp_path, capsys, kind, base, path, name):
    # bare int() truncated 16.5 to 16 and took true for 1
    for value in (16.5, True, "16"):
        cfg = _mutated(base(), path, value)
        rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"{name} must be an integer, got {value!r}" in capsys.readouterr().err


def test_integral_float_is_an_integer(tmp_path):
    cfg = _evolve_cfg()
    cfg["system"]["grid"]["n"] = 16.0
    out = tmp_path / "out"
    assert main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "trajectory" / "manifest.json").read_text())
    assert manifest["grid"] == {"dim": 1, "n": 16}


def _evolve_constants_cfg():
    return dict(_evolve_cfg(), u0={"kind": "constants", "values": [0.1, -0.1]})


# (kind, base config, path, field name in the message, holds a list)
_FLOAT_FIELDS = [
    ("evolve", _evolve_mixed_cfg, ("solver", "t_final"), "solver.t_final", False),
    ("evolve", _evolve_mixed_cfg, ("solver", "snapshot_every"), "solver.snapshot_every", False),
    ("evolve", _evolve_mixed_cfg, ("solver", "cfl"), "solver.cfl", False),
    ("evolve", _evolve_mixed_cfg, ("solver", "dt_override"), "solver.dt_override", False),
    ("evolve", _evolve_constants_cfg, ("u0", "values"), "u0.values", True),
    ("ergodic", _ergodic_cfg, ("schedule", "lambdas"), "schedule.lambdas", True),
    ("ergodic", _ergodic_cfg, ("schedule", "steady_state_tol"), "schedule.steady_state_tol", False),
    ("ergodic", _ergodic_cfg, ("schedule", "anchor"), "schedule.anchor", True),
    ("ergodic", _ergodic_cfg, ("schedule", "cfl"), "schedule.cfl", False),
    ("simulate", _simulate_cfg, ("policy", "snapshot_every"), "policy.snapshot_every", False),
    ("simulate", _idle_cfg, ("horizon",), "horizon", False),
    ("simulate", _idle_cfg, ("dt_sim",), "dt_sim", False),
    ("simulate", _idle_cfg, ("x0",), "x0", True),
    ("simulate", _idle_cfg, ("process", "rates"), "process.rates", True),
    ("simulate", _idle_cfg, ("process", "cost_rates"), "process.cost_rates", True),
    ("diagnose", _diagnose_cfg, ("c",), "c", True),
    ("diagnose", _diagnose_cfg, ("etas",), "etas", True),
    ("diagnose", _diagnose_cfg, ("sets", 1, "points"), "sets.points", True),
    ("evolve", _evolve_mixed_cfg, ("system", "coupling", "entries"), "system.coupling.entries",
     True),
    ("validate-coupling", lambda: {"coupling": {"entries": [[1.0, -1.0], [-1.0, 1.0]]}},
     ("coupling", "entries"), "coupling.entries", True),
]


@pytest.mark.parametrize("kind, base, path, name, many", _FLOAT_FIELDS)
def test_float_field_rejects_booleans_and_strings(tmp_path, capsys, kind, base, path, name, many):
    # float() took true for 1.0, and the list fields took [true, ...] too
    values = [True, "0.5", float("nan")]
    values += [[True, 0.5], [[0.5], ["0.5"]], [0.5, float("inf")]] if many else [[0.5]]
    for value in values:
        cfg = _mutated(base(), path, value)
        out = tmp_path / "out"
        rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2, value
        kind_text = "a finite number or a list of them" if many else "a finite number"
        assert f"{name} must be {kind_text}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()


# (kind, base config, path, field name in the message); each took true for 1
_CATALOG_NUMBER_FIELDS = [
    ("evolve", _evolve_cfg, ("system", "hamiltonians", 0, "params", "f", "const"), "fourier const"),
    ("evolve", _evolve_cfg, ("system", "hamiltonians", 0, "params", "f", "terms", 0, "k", 0),
     "fourier terms[0].k"),
    ("evolve", _evolve_cfg, ("system", "hamiltonians", 0, "params", "f", "terms", 0, "cos"),
     "fourier terms[0].cos"),
    ("evolve", _evolve_mixed_cfg, ("u0", "components", 0, "terms", 0, "sin"),
     "fourier terms[0].sin"),
    ("evolve", _evolve_mixed_cfg, ("system", "hamiltonians", 0, "params", "p_box"), "p_box"),
    ("evolve", _evolve_mixed_cfg, ("system", "hamiltonians", 0, "params", "F", "const"),
     "direction profile const"),
    ("evolve", _evolve_mixed_cfg, ("system", "hamiltonians", 0, "params", "F", "angle", 0, "cos"),
     "direction profile angle[0].cos"),
    ("evolve", _evolve_mixed_cfg, ("system", "hamiltonians", 0, "params", "F", "angle", 0, "sin"),
     "direction profile angle[0].sin"),
    ("simulate", _simulate_cfg, ("process", "fs", 1, "const"), "fourier const"),
    ("simulate", _simulate_cfg, ("process", "fs", 0, "terms", 0, "cos"), "fourier terms[0].cos"),
]


@pytest.mark.parametrize("kind, base, path, name", _CATALOG_NUMBER_FIELDS)
def test_catalog_number_rejects_booleans_and_strings(tmp_path, capsys, kind, base, path, name):
    # the catalog read these with bare float(), so true ran as 1.0
    for value in (True, False, "0.5"):
        cfg = _mutated(base(), path, value)
        out = tmp_path / "out"
        rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        assert rc == 2, value
        assert f"{name} must be a finite number, got {value!r}" in capsys.readouterr().err
        assert not out.exists()


def test_direction_profile_order_must_be_an_integer(tmp_path, capsys):
    # int() truncated j = 1.5 to 1
    cfg = _mutated(_evolve_mixed_cfg(), ("system", "hamiltonians", 0, "params", "F", "angle", 0,
                                         "j"), 1.5)
    rc = main(["evolve", "--config", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "direction profile angle[0].j must be an integer, got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, block, typo, accepted",
    [(_idle_cfg, (), "dump_pth", "process, policy, horizon, x0, mode0, n_samples, seed, dt_sim"),
     (_idle_cfg, ("policy",), "indx", "kind, index"),
     (_simulate_cfg, ("policy",), "index", "kind, grid_n, snapshot_every"),
     (_idle_cfg, ("process",), "fs", "kind, rates, cost_rates"),
     (_simulate_cfg, ("process",), "cost_rates", "kind, rates, fs, n_actions")],
)
def test_unknown_simulate_key_is_a_config_error(tmp_path, capsys, base, block, typo, accepted):
    # the key used to be ignored, so the run went ahead with the defaults
    cfg = base()
    node = cfg
    for key in block:
        node = node[key]
    node[typo] = 3
    out = tmp_path / "out"
    rc = main(["simulate", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"has no key {typo!r}; accepted: {accepted}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, base, block, typo",
    [("evolve", _evolve_cfg, "solver", "snapshot_evry"), ("ergodic", _ergodic_cfg, "schedule", "lambda")],
)
def test_unknown_solver_or_schedule_key_is_a_config_error(tmp_path, capsys, kind, base, block, typo):
    # the typo used to be ignored, so the run went ahead with the default
    cfg = base()
    cfg[block][typo] = [0.2, 0.1]
    out = tmp_path / "out"
    rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{block} has no key {typo!r}; accepted: " in err
    assert ("snapshot_every" if block == "solver" else "lambdas, steady_state_tol, anchor") in err
    assert not out.exists()


@pytest.mark.parametrize("kind, base, where", [
    ("evolve", _evolve_mixed_cfg, "system.coupling"),
    ("ergodic", _ergodic_mixed_cfg, "system.coupling"),
    ("validate-coupling", lambda: {"coupling": {}}, "coupling"),
])
def test_boolean_coupling_entry_is_a_config_error(tmp_path, capsys, kind, base, where):
    # np.asarray(..., dtype=float) read true as 1.0, so this coupling ran
    entries = [[True, -1.0], [-1.0, 1.0]]
    cfg = base()
    (cfg["system"] if "system" in cfg else cfg)["coupling"] = {"entries": entries}
    out = tmp_path / "out"
    rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{where}.entries must be a finite number or a list of them, got {entries!r}" in err
    assert not out.exists()


_DIAGNOSE_KEYS = "trajectory_dir, system, solver, u0, c, sets, etas, gap, use_log_transform"


@pytest.mark.parametrize(
    "kind, base, block, typo, where, accepted",
    [("evolve", _evolve_cfg, (), "uo", "evolve config", "system, solver, u0"),
     ("evolve", _evolve_cfg, ("system",), "grd", "system", "grid, coupling, hamiltonians"),
     ("evolve", _evolve_cfg, ("system", "grid"), "m", "system.grid", "dim, n"),
     ("evolve", _evolve_cfg, ("system", "coupling"), "entrys", "system.coupling", "name, entries"),
     ("evolve", _evolve_cfg, ("system", "hamiltonians", 1), "parms", "system.hamiltonians[1]",
      "id, params"),
     ("evolve", _evolve_cfg, ("u0",), "values", "u0 of kind 'zeros'", "kind"),
     ("evolve", _evolve_constants_cfg, ("u0",), "value", "u0 of kind 'constants'",
      "kind, values"),
     ("evolve", _evolve_mixed_cfg, ("u0",), "component", "u0 of kind 'fourier'",
      "kind, components"),
     ("ergodic", _ergodic_cfg, (), "shedule", "ergodic config", "system, schedule"),
     ("ergodic", _ergodic_mixed_cfg, ("system", "hamiltonians", 0), "parms",
      "system.hamiltonians[0]", "id, params"),
     ("diagnose", _diagnose_cfg, (), "eta", "diagnose config", _DIAGNOSE_KEYS),
     ("diagnose", _diagnose_cfg, ("system", "grid"), "m", "system.grid", "dim, n"),
     ("diagnose", _diagnose_cfg, ("u0",), "kinds", "u0 of kind 'constants'", "kind, values"),
     ("diagnose", _diagnose_cfg, ("sets", 0), "points", "sets[0]", "kind"),
     ("diagnose", _diagnose_cfg, ("sets", 1), "point", "sets[1]", "kind, points"),
     ("validate-coupling", lambda: {"coupling": {"name": "symmetric_pair"}}, (), "coupling_",
      "validate-coupling config", "coupling"),
     ("theorem-suite", lambda: {"name": "identical-gap", "overrides": {"n": 16}}, (), "overides",
      "theorem-suite config", "name, overrides")],
)
def test_unknown_system_or_top_level_key_is_a_config_error(tmp_path, capsys, kind, base, block,
                                                           typo, where, accepted):
    # the key used to be ignored, so the run went ahead with the defaults
    cfg = base()
    node = cfg
    for key in block:
        node = node[key]
    node[typo] = 3
    out = tmp_path / "out"
    rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    assert f"{where} has no key {typo!r}; accepted: {accepted}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, base, block, value, where",
    [("evolve", _evolve_cfg, ("system",), "abc", "system"),
     ("evolve", _evolve_cfg, ("system", "grid"), 16, "system.grid"),
     ("evolve", _evolve_cfg, ("system", "coupling"), "symmetric_pair", "system.coupling"),
     ("evolve", _evolve_cfg, ("system", "hamiltonians", 0), "quadratic_eikonal",
      "system.hamiltonians[0]"),
     ("evolve", _evolve_cfg, ("u0",), "zeros", "u0"),
     ("ergodic", _ergodic_cfg, ("system",), [1, 2], "system"),
     ("diagnose", _diagnose_cfg, ("sets", 0), "common_min", "sets[0]")],
)
def test_block_that_is_not_a_mapping_is_a_config_error(tmp_path, capsys, kind, base, block,
                                                       value, where):
    # the key check used to iterate a string block letter by letter
    cfg = _mutated(base(), block, value)
    out = tmp_path / "out"
    rc = main([kind, "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    assert f"{where} must be a mapping, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sets, message",
    [({"kind": "custom"}, "sets must be a list of mappings, got {'kind': 'custom'}"),
     ([{"kind": ["x"]}], "sets[0].kind is unknown: ['x']"),
     ([{"kind": "common_min"}, {"kind": "median"}], "sets[1].kind is unknown: 'median'")],
)
def test_diagnose_sets_must_list_known_kinds(tmp_path, capsys, sets, message):
    # a mapping was iterated key by key ("missing sets.kind"), and an unknown
    # kind was reported only after the solve, or not at all
    cfg = dict(_diagnose_cfg(), sets=sets)
    out = tmp_path / "out"
    rc = main(["diagnose", "--config", _write(tmp_path, "c.json", cfg), "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_ARTIFACT_KEYS = [
    ("evolve", _evolve_cfg, "trajectory/manifest.json",
     {"files", "format", "grid", "m", "meta", "times"}, None),
    ("ergodic", _ergodic_cfg, "ergodic.json",
     {"anchor", "c", "c_raw", "cross_component_spread", "notes", "per_lambda", "residual"},
     None),
    ("diagnose", _diagnose_cfg, "convergence.json",
     {"c_used", "fitted_gap_rate", "gap_table", "monotone_tail_ok", "monotone_tail_worst",
      "notes", "p_eta_table", "profile_distances", "set_evaluations", "snapshot_cadence"},
     ("set_evaluations", {"empty", "kind", "notes", "points", "values"})),
    ("simulate", _idle_cfg, "value.json", {"mean", "policy_id", "samples", "std_error"}, None),
    ("validate-coupling", lambda: {"coupling": {"name": "symmetric_pair"}}, "coupling.json",
     {"delta_rate", "irreducible", "m", "monotone", "nonzero_row_index", "pairwise_nonzero",
      "perron", "rank", "violations"}, None),
    ("theorem-suite",
     lambda: {"name": "identical-gap", "overrides": {"n": 16, "t_final": 0.5}}, "suite.json",
     {"artifacts", "checks", "elapsed_seconds", "name", "passed"},
     ("checks", {"bound", "detail", "name", "passed", "relation", "value"})),
]


@pytest.mark.parametrize("kind, cfg, name, keys, nested", _ARTIFACT_KEYS)
def test_json_artifacts_keep_their_key_sets(tmp_path, kind, cfg, name, keys, nested):
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main([kind, "--config", _write(tmp_path, "c.json", cfg()), "--out", str(out)])
    assert rc in (0, 1)  # the short identical-gap horizon fails a check but writes suite.json
    payload = json.loads((out / name).read_text())
    assert set(payload) == keys
    if nested is not None:
        field, entry_keys = nested
        assert payload[field] and all(set(entry) == entry_keys for entry in payload[field])
