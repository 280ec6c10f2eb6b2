"""Batch command line runner.

One experiment per invocation: ``hjsys <kind> --config <path> [--out <dir>]``.
Kinds: evolve, ergodic, diagnose, simulate, validate-coupling,
theorem-suite, and list (which needs no config).  The
config is a single JSON document; every tolerance and seed lives in it, and
artifacts are written deterministically (sorted keys, no timestamps), so
re-running a config byte-reproduces its outputs.

The blocks that say what is simulated, ``system`` (its ``grid``,
``coupling`` and Hamiltonians) and ``process``, are read by ``catalog``;
this module reads the blocks that say how a run goes: the top level,
``solver``, ``schedule``, ``u0``, ``policy`` and ``sets``.  Both read
through ``errors``' readers, so every block refuses a key it does not
accept and every number and integer field follows one rule.  A config
whose sizes ask for more memory than the host can give is a config error.

Exit codes: 0 success, 1 a requested assertion failed, 2 config error,
3 numerical divergence or non-convergence.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

import numpy as np

from . import catalog
from .coupling import analyze
from .diagnostics import build_report, evaluate_on_set
from .ergodic import DiscountSchedule, estimate_ergodic_constant, long_time_constant
from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    StructureError,
    field,
    flag,
    integer,
    mapping,
    number,
)
from .evolution import EvolutionConfig, HJSystem, Trajectory, solve
from .grid import Grid, GridFunction, sample, save_json, save_table
from .suites import run_suite
from .switching import ConstantPolicy, GreedyGradientPolicy, estimate_value, simulate_trajectory


@contextmanager
def _reading(what: str):
    """Errors raised while turning config values into objects are config errors."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OverflowError, StructureError, OSError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _build_u0(block, grid: Grid, m: int) -> list:
    kind = field(block, "kind", "zeros", "u0")
    if kind == "zeros":
        mapping(block, "u0 of kind 'zeros'", ("kind",))
        return [GridFunction(grid, np.zeros(grid.shape)) for _ in range(m)]
    if kind == "constants":
        mapping(block, "u0 of kind 'constants'", ("kind", "values"))
        vals = field(block, "values", where="u0", read=number, many=True)
        if vals.shape != (m,):
            raise ConfigError(f"u0.values must list {m} constants")
        return [GridFunction(grid, np.full(grid.shape, v)) for v in vals]
    if kind == "fourier":
        mapping(block, "u0 of kind 'fourier'", ("kind", "components"))
        comps = field(block, "components", where="u0")
        if len(comps) != m:
            raise ConfigError(f"u0.components must list {m} function specs")
        return [sample(catalog.fourier_function(c, grid.dim), grid) for c in comps]
    raise ConfigError(f"unknown u0 kind {kind!r}")


def _evolution_config(block) -> EvolutionConfig:
    mapping(block, "solver", [f.name for f in fields(EvolutionConfig)])
    return EvolutionConfig(
        t_final=field(block, "t_final", where="solver", read=number),
        snapshot_every=field(block, "snapshot_every", None, "solver", read=number),
        cfl=field(block, "cfl", 0.5, "solver", read=number),
        dt_override=field(block, "dt_override", None, "solver", read=number),
        flux_mode=block.get("flux_mode", "local"),
    )


def _discount_schedule(block) -> DiscountSchedule:
    mapping(block, "schedule", [f.name for f in fields(DiscountSchedule)])
    kwargs = {}
    for key in ("lambdas", "anchor"):
        if key in block:
            kwargs[key] = tuple(number(block[key], f"schedule.{key}", many=True).tolist())
    for key in ("steady_state_tol", "cfl"):
        if key in block:
            kwargs[key] = number(block[key], f"schedule.{key}")
    if "flux_mode" in block:
        kwargs["flux_mode"] = str(block["flux_mode"])
    if "max_steps_per_lambda" in block:
        kwargs["max_steps_per_lambda"] = integer(block["max_steps_per_lambda"],
                                                 "schedule.max_steps_per_lambda")
    return DiscountSchedule(**kwargs)


def _solve_inline(cfg) -> tuple[HJSystem, Trajectory]:
    """The config's system and its solve from the config's solver and u0."""
    with _reading("system, solver or u0"):
        system = catalog.build_system(field(cfg, "system"))
        config = _evolution_config(field(cfg, "solver"))
        u0 = _build_u0(field(cfg, "u0", {}), system.grid, system.m)
    return system, solve(system, u0, config)


def cmd_evolve(cfg, out_dir: str) -> int:
    mapping(cfg, "evolve config", ("system", "solver", "u0"))
    traj = _solve_inline(cfg)[1]
    traj.save(os.path.join(out_dir, "trajectory"))
    print(f"wrote {os.path.join(out_dir, 'trajectory')}")
    return 0


def cmd_ergodic(cfg, out_dir: str) -> int:
    with _reading("system or schedule"):
        mapping(cfg, "ergodic config", ("system", "schedule"))
        system = catalog.build_system(field(cfg, "system"))
        schedule = _discount_schedule(field(cfg, "schedule", {}))
    result = estimate_ergodic_constant(system, schedule)
    result.save(out_dir)
    print(f"c = {result.c.tolist()} (residual {result.residual!r})")
    print(f"wrote {out_dir}")
    return 0


def cmd_diagnose(cfg, out_dir: str) -> int:
    with _reading("c, etas, use_log_transform, gap or sets"):
        mapping(cfg, "diagnose config", ("trajectory_dir", "system", "solver", "u0", "c", "sets",
                                         "etas", "gap", "use_log_transform"))
        measured = cfg.get("c", "measured") == "measured"
        c = None if measured else field(cfg, "c", read=number, many=True)
        etas = field(cfg, "etas", (0.05, 0.1, 0.2), read=number, many=True).reshape(-1).tolist()
        use_log_transform = field(cfg, "use_log_transform", True, read=flag)
        gap = field(cfg, "gap", False, read=flag)
        sets = []
        if not isinstance(blocks := cfg.get("sets", []), list):
            raise ConfigError(f"sets must be a list of mappings, got {blocks!r}")
        for i, block in enumerate(blocks):
            kind = field(block, "kind", where=f"sets[{i}]")
            mapping(block, f"sets[{i}]", ("kind", "points") if kind == "custom" else ("kind",))
            if kind not in ("common_min", "flat_min", "S", "F", "custom"):
                raise ConfigError(f"sets[{i}].kind is unknown: {kind!r}")
            points = None
            if kind == "custom":
                points = field(block, "points", where="sets", read=number, many=True)
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


# the keys of a simulate config: top level, then per policy kind
_SIMULATE_KEYS = ("process", "policy", "horizon", "x0", "mode0", "n_samples", "seed",
                  "dt_sim", "dump_path")
_POLICY_KEYS = {"constant": ("kind", "index"), "greedy": ("kind", "grid_n", "snapshot_every")}


def cmd_simulate(cfg, out_dir: str) -> int:
    with _reading("process, policy, horizon, x0, mode0, n_samples, seed or dt_sim"):
        mapping(cfg, "simulate config", _SIMULATE_KEYS)
        spec = catalog.build_process(field(cfg, "process"))
        dump_path = field(cfg, "dump_path", False, read=flag)
        horizon = field(cfg, "horizon", read=number)
        pol_block = field(cfg, "policy", {"kind": "constant", "index": 0})
        pol_kind = field(pol_block, "kind", where="policy")
        if not isinstance(pol_kind, str) or pol_kind not in _POLICY_KEYS:
            raise ConfigError(f"unknown policy kind {pol_kind!r}")
        mapping(pol_block, f"policy of kind {pol_kind!r}", _POLICY_KEYS[pol_kind])
        if pol_kind == "constant":
            index = field(pol_block, "index", 0, "policy", read=integer)
            if not 0 <= index < len(spec.control_set):
                raise ConfigError(
                    f"policy.index must be in [0, {len(spec.control_set)}), got {index}"
                )
        else:
            grid = Grid(1, field(pol_block, "grid_n", 256, "policy", read=integer))
            pde_cfg = EvolutionConfig(
                t_final=horizon,
                snapshot_every=field(pol_block, "snapshot_every", 0.125, "policy", read=number),
            )
        x0 = np.atleast_1d(field(cfg, "x0", read=number, many=True))
        if x0.shape != (spec.dim,):
            raise ConfigError(f"x0 must list {spec.dim} coordinates, got {x0.tolist()}")
        mode0 = field(cfg, "mode0", read=integer)
        n_samples = field(cfg, "n_samples", read=integer)
        seed = field(cfg, "seed", read=integer, least=0)
        dt_sim = field(cfg, "dt_sim", None, read=number)
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
        mapping(cfg, "validate-coupling config", ("coupling",))
        coupling = catalog.build_coupling(field(cfg, "coupling"))
    report = analyze(coupling.entries)
    payload = report.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out_dir:
        save_json(payload, out_dir, "coupling.json")
    return 0 if report.monotone else 1


def cmd_theorem_suite(cfg, out_dir: str) -> int:
    mapping(cfg, "theorem-suite config", ("name", "overrides"))
    result = run_suite(field(cfg, "name"), **mapping(cfg.get("overrides", {}), "overrides"))
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
        try:
            return _COMMANDS[args.kind](cfg, out_dir)
        except MemoryError as exc:  # a size in the config the host cannot allocate
            what = f"{args.kind} needs more memory than the host can give"
            raise ConfigError(f"{what}: {exc}") from exc
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
