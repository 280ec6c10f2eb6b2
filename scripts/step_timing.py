"""Time one explicit march step of each built-in Hamiltonian family.

Usage:
    python3 scripts/step_timing.py                     # every family, 1D and 2D, both flux modes
    python3 scripts/step_timing.py --n 32 --steps 100 --repeat 3
    python3 scripts/step_timing.py --json step_us.json

Each row marches a two-component pair of one family with ``solve_batch``
for ``--steps`` steps of the CFL step and prints the best of ``--repeat``
marches divided by the step count, in microseconds per step.  The marches
run in rounds of one per row, so each row's best is drawn from the whole
run.  The shapes follow the benchmark workloads: the eikonal families march
two members, values shaped (2, 2) + grid.shape as in ``eikonal-pair``; the
nonconvex family (the mainresult-nonconvex pair) marches one,
(2,) + grid.shape as in ``nonconvex-cli``, on n = 24 nodes per axis.  Each
row's flux kernel is built by an untimed first march.
"""

from __future__ import annotations

import argparse
import json
import sys
import timeit

from hjsys.catalog import build_hamiltonian, builtin_coupling, fourier_function
from hjsys.coupling import CouplingMatrix
from hjsys.evolution import EvolutionConfig, HJSystem, cfl_dt, solve_batch
from hjsys.grid import Grid, GridFunction, sample

NONCONVEX_N = 24


def _pair(family: str, dim: int):
    """The family's Hamiltonian ids and parameters for its two components."""
    ones = [1] * dim
    if family != "nonconvex":
        return [
            (f"{family}_eikonal", {"f": {"const": c, "terms": [{"k": ones, "cos": -a}]}})
            for c, a in ((1.5, 1.0), (2.0, 2.0))
        ]
    return [
        ("nonconvex_bs00", {
            "f": {"const": c, "terms": [{"k": ones, "cos": -c}]},
            "q": [{"terms": [{"k": ones, "sin": q}]}] * dim,
            "F": {"const": 1.0, "angle": [{"j": 1, "cos": s}]},
        })
        for c, q, s in ((1.0, 0.3, 0.3), (0.8, 0.2, -0.25))
    ]


def _case(family: str, dim: int, n: int):
    """The system and the members' initial data: a tenth of the sampled
    sources, and for the eikonal families also zero data as the second member."""
    pair = _pair(family, dim)
    grid = Grid(dim, NONCONVEX_N if family == "nonconvex" else n)
    hams = tuple(build_hamiltonian(ham_id, params, dim) for ham_id, params in pair)
    coupling = CouplingMatrix.constant(builtin_coupling("symmetric_pair"))
    system = HJSystem(hams=hams, coupling=coupling, grid=grid)
    sources = [sample(fourier_function(params["f"], dim), grid).values for _, params in pair]
    sources, zeros = ([GridFunction(grid, s * f) for f in sources] for s in (0.1, 0.0))
    return system, [sources] if family == "nonconvex" else [sources, zeros]


def _march(family: str, dim: int, mode: str, n: int, steps: int):
    """A row's labels and a callable that marches it ``steps`` CFL steps."""
    system, members = _case(family, dim, n)
    dt = cfl_dt(system, EvolutionConfig(t_final=1.0, flux_mode=mode))
    config = EvolutionConfig(t_final=steps * dt, dt_override=dt, flux_mode=mode)
    if solve_batch(system, members, config)[0].meta["steps_total"] != steps:
        raise RuntimeError(f"{family} {dim}D {mode}: the march did not take {steps} steps")
    shape = (len(members),) * (len(members) > 1) + (system.m,) + system.grid.shape
    row = {"family": family, "dim": dim, "mode": mode, "shape": list(shape)}
    return row, lambda: solve_batch(system, members, config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=64, help="eikonal nodes per axis")
    parser.add_argument("--steps", type=int, default=400, help="steps per march")
    parser.add_argument("--repeat", type=int, default=7, help="marches per row, best kept")
    parser.add_argument("--json", default="", help="also write the rows to this file")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.repeat < 1:
        print("--steps and --repeat must be at least 1", file=sys.stderr)
        return 2
    marches = [
        _march(family, dim, mode, args.n, args.steps)
        for family in ("quadratic", "linear", "nonconvex")
        for dim in (1, 2)
        for mode in ("local", "global")
    ]
    best = [float("inf")] * len(marches)
    for _ in range(args.repeat):
        for i, (_, march) in enumerate(marches):
            best[i] = min(best[i], timeit.timeit(march, number=1))
    rows = [dict(row, step_us=1e6 * t / args.steps) for (row, _), t in zip(marches, best)]
    for row in rows:
        shape = "x".join(map(str, row["shape"]))
        print(f"{row['family']:<10} {row['dim']}D {row['mode']:<6} {shape:<12} "
              f"{row['step_us']:9.1f} us/step")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
