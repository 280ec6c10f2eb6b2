"""Cross-check four routes to the behavior of the coupled eikonal pair.

The same two sources drive
  1. the closed-form weighted-minimum constant,
  2. the vanishing-discount estimate,
  3. the measured drift of a long time-dependent solve, and
  4. Monte Carlo values of the switching process against the PDE state
     generated from the very same control problem.

Routes 1-3 use the quadratic Hamiltonians of ``catalog.quadratic_eikonal_pair``;
route 4 is the probe table of the appendix-mc suite, which uses the unit-ball
control form at a finite horizon, so only its per-probe agreement is
checked, not the constant.  Writes constants.csv, probes.csv, and
summary.json under --out and prints both tables.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from hjsys import catalog
from hjsys.coupling import ergodic_constant_formula
from hjsys.ergodic import (
    DiscountSchedule,
    estimate_ergodic_constant,
    long_time_constant,
)
from hjsys.evolution import EvolutionConfig, solve
from hjsys.grid import GridFunction, save_json, save_table
from hjsys.suites import run_suite


def constants_study(n: int, t_final: float) -> list:
    system, fs = catalog.quadratic_eikonal_pair(n)
    grid = system.grid
    formula = ergodic_constant_formula(system.coupling, fs)

    t0 = time.perf_counter()
    est = estimate_ergodic_constant(system, DiscountSchedule())
    disc_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    u0 = [GridFunction(grid, np.zeros(grid.shape)) for _ in range(system.m)]
    traj = solve(system, u0, EvolutionConfig(t_final=t_final, snapshot_every=0.5))
    drift = long_time_constant(traj)
    drift_s = time.perf_counter() - t0

    rows = [("weighted-minimum formula", formula, formula, 0.0, 0.0)]
    for label, values, secs in (
        ("vanishing discount", est.c, disc_s),
        ("measured drift", drift, drift_s),
    ):
        for i, v in enumerate(np.asarray(values)):
            rows.append(
                (f"{label} [{i}]", float(v), formula, abs(float(v) - formula), secs)
            )
    return rows


def probes_study(horizon: float, n: int, n_samples: int, seed: int) -> list:
    suite = run_suite("appendix-mc", n=n, horizon=horizon, n_samples=n_samples, seed=seed)
    return [
        (r["x"], r["mode"], r["mc"], r["std_error"], r["pde"], r["relative_gap"])
        for r in suite.artifacts["probes"]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="", help="artifact directory")
    parser.add_argument("--n", type=int, default=256, help="grid size")
    parser.add_argument("--t-final", type=float, default=40.0, help="drift horizon")
    parser.add_argument("--horizon", type=float, default=2.0, help="MC horizon")
    parser.add_argument("--n-samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)

    crows = constants_study(args.n, args.t_final)
    formula = crows[0][1]
    print(f"constant routes (reference {formula:+.6f}):")
    for label, value, _, gap, secs in crows:
        print(f"  {label:<26} {value:+.6f}  gap {gap:.2e}  ({secs:.1f} s)")

    prows = probes_study(args.horizon, args.n, args.n_samples, args.seed)
    print(f"switching-process probes at horizon {args.horizon}:")
    worst_rel = 0.0
    for x, mode, mc, se, pde, rel in prows:
        worst_rel = max(worst_rel, rel)
        print(
            f"  x={x:.2f} mode={mode}  mc {mc:.5f} (se {se:.1e})"
            f"  pde {pde:.5f}  rel gap {rel:.2e}"
        )
    print(f"worst relative probe gap: {worst_rel:.2e}")

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "constants.csv"), "w") as fh:
            fh.write("route,value,reference,abs_gap,seconds\n")
            for label, value, ref, gap, secs in crows:
                fh.write(f"{label},{value!r},{ref!r},{gap!r},{secs:.3f}\n")
        save_table(prows, args.out, "probes.csv", "x,mode,mc,std_error,pde,relative_gap")
        summary = {
            "grid_n": args.n,
            "formula": formula,
            "worst_constant_gap": max(r[3] for r in crows),
            "worst_probe_relative_gap": worst_rel,
            "n_samples": args.n_samples,
            "seed": args.seed,
        }
        save_json(summary, args.out, "summary.json")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
