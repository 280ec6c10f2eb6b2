"""Batch command line runner.

One experiment per invocation: ``hjsys <kind> --config <path> [--out <dir>]``.
Kinds: evolve, ergodic, diagnose, simulate, validate-coupling,
theorem-suite, and list (which needs no config).  The
config is a single JSON document; every tolerance and seed lives in it, and
artifacts are written deterministically (sorted keys, no timestamps), so
re-running a config byte-reproduces its outputs.

Exit codes: 0 success, 1 a requested assertion failed, 2 config error,
3 numerical divergence or non-convergence.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from . import catalog
from .coupling import analyze
from .diagnostics import build_report, evaluate_on_set
from .ergodic import DiscountSchedule, estimate_ergodic_constant, long_time_constant
from .errors import ConfigError, ConvergenceError, DivergenceError, StructureError
from .evolution import EvolutionConfig, HJSystem, Trajectory, solve
from .grid import Grid, GridFunction, sample, save_json, save_table
from .suites import run_suite
from .switching import (
    ConstantPolicy,
    GreedyGradientPolicy,
    SwitchingProcessSpec,
    estimate_value,
    simulate_trajectory,
)

_MISSING = object()


def _get(cfg: dict, path: str, default=_MISSING, where: str = ""):
    node = cfg
    seen = []
    for part in path.split("."):
        seen.append(part)
        if not isinstance(node, dict) or part not in node:
            if default is not _MISSING:
                return default
            full = ".".join(([where] if where else []) + seen)
            raise ConfigError(f"config is missing required field {full!r}")
        node = node[part]
    return node


def _integer(cfg: dict, path: str, default=_MISSING, where: str = "") -> int:
    """An integer field; booleans, strings and non-integral numbers are config errors."""
    value = _get(cfg, path, default, where)
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        name = ".".join(([where] if where else []) + [path])
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(cfg: dict, path: str, default=_MISSING, where: str = "", many: bool = False):
    """A float field, or with ``many`` a number or nested lists of numbers,
    returned as an array; booleans, strings and non-finite numbers are
    config errors.  A None default lets the field be null."""
    value = _get(cfg, path, default, where)
    if value is None and default is None:
        return None

    def numbers(v) -> bool:
        if many and isinstance(v, (list, tuple)):
            return all(numbers(e) for e in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)

    if not numbers(value):
        name = ".".join(([where] if where else []) + [path])
        kind = "a finite number or a list of them" if many else "a finite number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return np.asarray(value, dtype=float) if many else float(value)


def _known_keys(block, accepted, where: str) -> None:
    """A block that is not a mapping, or sets a key outside ``accepted``, is a config error."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping, got {block!r}")
    for key in block:
        if key not in accepted:
            raise ConfigError(f"{where} has no key {key!r}; accepted: {', '.join(accepted)}")


def _flag(cfg: dict, name: str, default: bool) -> bool:
    if not isinstance(value := _get(cfg, name, default), bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


@contextmanager
def _reading(what: str):
    """Errors raised while turning config values into objects are config errors."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OverflowError, StructureError, OSError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _coupling_block(block, where: str = "coupling") -> dict:
    """``block``, once its keys and its entries pass the checks."""
    _known_keys(block, ("name", "entries"), where)
    if "name" not in block:
        if "entries" not in block:
            raise ConfigError("coupling block needs either 'name' or 'entries'")
        _real(block, "entries", where=where, many=True)
    return block


def _build_system(block, where: str = "system") -> HJSystem:
    _known_keys(block, ("grid", "coupling", "hamiltonians"), where)
    _known_keys(_get(block, "grid", where=where), ("dim", "n"), f"{where}.grid")
    dim = _integer(block, "grid.dim", 1, where=where)
    n = _integer(block, "grid.n", where=where)
    grid = Grid(dim, n)
    _coupling_block(_get(block, "coupling", where=where), f"{where}.coupling")
    ham_blocks = _get(block, "hamiltonians", where=where)
    if not isinstance(ham_blocks, list) or not ham_blocks:
        raise ConfigError("system.hamiltonians must be a nonempty list")
    for i, hb in enumerate(ham_blocks):
        _known_keys(hb, ("id", "params"), f"{where}.hamiltonians[{i}]")
    return catalog.build_system(block, grid)


def _build_u0(block, grid: Grid, m: int) -> list:
    kind = _get(block, "kind", "zeros")
    if kind == "zeros":
        _known_keys(block, ("kind",), "u0 of kind 'zeros'")
        return [GridFunction(grid, np.zeros(grid.shape)) for _ in range(m)]
    if kind == "constants":
        _known_keys(block, ("kind", "values"), "u0 of kind 'constants'")
        vals = _real(block, "values", where="u0", many=True)
        if vals.shape != (m,):
            raise ConfigError(f"u0.values must list {m} constants")
        return [GridFunction(grid, np.full(grid.shape, v)) for v in vals]
    if kind == "fourier":
        _known_keys(block, ("kind", "components"), "u0 of kind 'fourier'")
        comps = _get(block, "components", where="u0")
        if len(comps) != m:
            raise ConfigError(f"u0.components must list {m} function specs")
        return [sample(catalog.fourier_function(c, grid.dim), grid) for c in comps]
    raise ConfigError(f"unknown u0 kind {kind!r}")


def _evolution_config(block, where: str = "solver") -> EvolutionConfig:
    _known_keys(block, [f.name for f in fields(EvolutionConfig)], where)
    return EvolutionConfig(
        t_final=_real(block, "t_final", where=where),
        snapshot_every=_real(block, "snapshot_every", None, where),
        cfl=_real(block, "cfl", 0.5, where),
        dt_override=_real(block, "dt_override", None, where),
        flux_mode=_get(block, "flux_mode", "local"),
    )


def _discount_schedule(block) -> DiscountSchedule:
    _known_keys(block, [f.name for f in fields(DiscountSchedule)], "schedule")
    kwargs = {}
    for key in ("lambdas", "anchor"):
        if key in block:
            kwargs[key] = tuple(_real(block, key, where="schedule", many=True).tolist())
    for key in ("steady_state_tol", "cfl"):
        if key in block:
            kwargs[key] = _real(block, key, where="schedule")
    if "flux_mode" in block:
        kwargs["flux_mode"] = str(block["flux_mode"])
    if "max_steps_per_lambda" in block:
        kwargs["max_steps_per_lambda"] = _integer(block, "max_steps_per_lambda", where="schedule")
    return DiscountSchedule(**kwargs)


def _solve_inline(cfg) -> tuple[HJSystem, Trajectory]:
    """The config's system and its solve from the config's solver and u0."""
    with _reading("system, solver or u0"):
        system = _build_system(_get(cfg, "system"))
        config = _evolution_config(_get(cfg, "solver"))
        u0 = _build_u0(_get(cfg, "u0", {}), system.grid, system.m)
    return system, solve(system, u0, config)


def cmd_evolve(cfg, out_dir: str) -> int:
    _known_keys(cfg, ("system", "solver", "u0"), "evolve config")
    traj = _solve_inline(cfg)[1]
    traj.save(os.path.join(out_dir, "trajectory"))
    print(f"wrote {os.path.join(out_dir, 'trajectory')}")
    return 0


def cmd_ergodic(cfg, out_dir: str) -> int:
    with _reading("system or schedule"):
        _known_keys(cfg, ("system", "schedule"), "ergodic config")
        system = _build_system(_get(cfg, "system"))
        schedule = _discount_schedule(_get(cfg, "schedule", {}))
    result = estimate_ergodic_constant(system, schedule)
    result.save(out_dir)
    print(f"c = {result.c.tolist()} (residual {result.residual!r})")
    print(f"wrote {out_dir}")
    return 0


def cmd_diagnose(cfg, out_dir: str) -> int:
    with _reading("c, etas, use_log_transform, gap or sets"):
        _known_keys(cfg, ("trajectory_dir", "system", "solver", "u0", "c", "sets", "etas", "gap",
                          "use_log_transform"), "diagnose config")
        measured = _get(cfg, "c", "measured") == "measured"
        c = None if measured else _real(cfg, "c", many=True)
        etas = _real(cfg, "etas", (0.05, 0.1, 0.2), many=True).reshape(-1).tolist()
        use_log_transform = _flag(cfg, "use_log_transform", True)
        gap = _flag(cfg, "gap", False)
        sets = []
        if not isinstance(blocks := _get(cfg, "sets", []), list):
            raise ConfigError(f"sets must be a list of mappings, got {blocks!r}")
        for i, block in enumerate(blocks):
            kind = _get(block, "kind", where=f"sets[{i}]") if isinstance(block, dict) else None
            _known_keys(block, ("kind", "points") if kind == "custom" else ("kind",), f"sets[{i}]")
            if kind not in ("common_min", "flat_min", "S", "F", "custom"):
                raise ConfigError(f"sets[{i}].kind is unknown: {kind!r}")
            points = _real(block, "points", where="sets", many=True) if kind == "custom" else None
            sets.append((kind, points))
    if "trajectory_dir" in cfg:
        with _reading("trajectory_dir"):
            traj = Trajectory.load(cfg["trajectory_dir"])
        system = None
    else:
        system, traj = _solve_inline(cfg)
    if c is None:
        c = long_time_constant(traj)
    vs = [traj.component(i, len(traj.times) - 1) for i in range(traj.m)]
    set_evals = []
    for kind, points in sets:
        if kind == "custom":
            with _reading("sets.points"):
                set_evals.append(evaluate_on_set(vs, "custom", points=points))
        elif system is None:
            raise ConfigError("minimizer-set evaluation needs an inline system block")
        else:
            set_evals.append(evaluate_on_set(vs, kind, fs=catalog.sources(system)))
    report = build_report(
        traj,
        c,
        etas=etas,
        use_log_transform=use_log_transform,
        gap=gap,
        set_evaluations=set_evals,
    )
    report.save(out_dir)
    print(f"wrote {out_dir}")
    return 0


# the keys of a simulate config: top level, then per process and policy kind
_SIMULATE_KEYS = ("process", "policy", "horizon", "x0", "mode0", "n_samples", "seed",
                  "dt_sim", "dump_path")
_PROCESS_KEYS = {"unit_ball_eikonal": ("kind", "rates", "fs", "n_actions"),
                 "idle": ("kind", "rates", "cost_rates")}
_POLICY_KEYS = {"constant": ("kind", "index"), "greedy": ("kind", "grid_n", "snapshot_every")}


def _build_process(block) -> SwitchingProcessSpec:
    kind = _get(block, "kind", where="process")
    if not isinstance(kind, str) or kind not in _PROCESS_KEYS:
        raise ConfigError(f"unknown process kind {kind!r}")
    _known_keys(block, _PROCESS_KEYS[kind], f"process of kind {kind!r}")
    rates = _real(block, "rates", where="process", many=True)
    if kind == "unit_ball_eikonal":
        return catalog.unit_ball_eikonal_process(
            _get(block, "fs", where="process"), rates,
            _integer(block, "n_actions", 64, where="process"),
        )
    return catalog.idle_process(_real(block, "cost_rates", where="process", many=True), rates)


def cmd_simulate(cfg, out_dir: str) -> int:
    with _reading("process, policy, horizon, x0, mode0, n_samples, seed or dt_sim"):
        _known_keys(cfg, _SIMULATE_KEYS, "simulate config")
        spec = _build_process(_get(cfg, "process"))
        dump_path = _flag(cfg, "dump_path", False)
        horizon = _real(cfg, "horizon")
        pol_block = _get(cfg, "policy", {"kind": "constant", "index": 0})
        pol_kind = _get(pol_block, "kind")
        if not isinstance(pol_kind, str) or pol_kind not in _POLICY_KEYS:
            raise ConfigError(f"unknown policy kind {pol_kind!r}")
        _known_keys(pol_block, _POLICY_KEYS[pol_kind], f"policy of kind {pol_kind!r}")
        if pol_kind == "constant":
            index = _integer(pol_block, "index", 0, where="policy")
            if not 0 <= index < len(spec.control_set):
                raise ConfigError(
                    f"policy.index must be in [0, {len(spec.control_set)}), got {index}"
                )
        else:
            grid = Grid(1, _integer(pol_block, "grid_n", 256, where="policy"))
            pde_cfg = EvolutionConfig(
                t_final=horizon,
                snapshot_every=_real(pol_block, "snapshot_every", 0.125, "policy"),
            )
        x0 = np.atleast_1d(_real(cfg, "x0", many=True))
        if x0.shape != (spec.dim,):
            raise ConfigError(f"x0 must list {spec.dim} coordinates, got {x0.tolist()}")
        mode0 = _integer(cfg, "mode0")
        n_samples = _integer(cfg, "n_samples")
        seed = _integer(cfg, "seed")
        if seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {seed}")
        dt_sim = _real(cfg, "dt_sim", None)
    if pol_kind == "constant":
        policy = ConstantPolicy(index)
    else:
        u0 = [GridFunction(grid, np.zeros(grid.shape)) for _ in range(spec.m)]
        policy = GreedyGradientPolicy(spec, solve(catalog.process_system(spec, grid), u0, pde_cfg))
    est = estimate_value(spec, policy, x0, mode0, horizon, n_samples, seed, dt_sim=dt_sim)
    save_json(asdict(est), out_dir, "value.json")
    if dump_path:
        path = simulate_trajectory(spec, policy, x0, mode0, horizon, seed, dt_sim=dt_sim)
        header = "t,mode,action," + ",".join(f"x{k}" for k in range(spec.dim))
        rows = zip(path.times, path.modes.tolist(), path.actions.tolist(), *path.positions.T)
        save_table(rows, out_dir, "path.csv", header)
    print(f"value = {est.mean!r} +- {est.std_error!r} ({est.samples} samples)")
    print(f"wrote {out_dir}")
    return 0


def cmd_validate_coupling(cfg, out_dir: str) -> int:
    with _reading("coupling"):
        _known_keys(cfg, ("coupling",), "validate-coupling config")
        coupling = catalog.build_coupling(_coupling_block(_get(cfg, "coupling")))
    report = analyze(coupling.entries)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out_dir:
        save_json(payload, out_dir, "coupling.json")
    return 0 if report.monotone else 1


def cmd_theorem_suite(cfg, out_dir: str) -> int:
    _known_keys(cfg, ("name", "overrides"), "theorem-suite config")
    name = _get(cfg, "name")
    overrides = _get(cfg, "overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("overrides must be a mapping of suite parameters")
    result = run_suite(name, **overrides)
    for line in result.summary_lines():
        print(line)
    if out_dir:
        result.save(out_dir)
        print(f"wrote {out_dir}")
    return 0 if result.passed else 1


_COMMANDS = {
    "evolve": cmd_evolve,
    "ergodic": cmd_ergodic,
    "diagnose": cmd_diagnose,
    "simulate": cmd_simulate,
    "validate-coupling": cmd_validate_coupling,
    "theorem-suite": cmd_theorem_suite,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjsys",
        description="weakly coupled Hamilton-Jacobi systems: experiments and checks",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _COMMANDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="", help="artifact directory")
    p_list = sub.add_parser("list")
    p_list.add_argument("what", choices=["hamiltonians", "couplings", "suites"])
    args = parser.parse_args(argv)
    try:
        if args.kind == "list":
            for name in catalog.list_builtin(args.what):
                print(name)
            return 0
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        out_dir = args.out or os.path.join(os.getcwd(), "hjsys-out")
        return _COMMANDS[args.kind](cfg, out_dir)
    except (ConfigError, StructureError) as exc:
        # a StructureError past the config boundary is still about the input,
        # e.g. gap decay requested for distinct Hamiltonians
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
