"""Workload sizes and metric names shared by the runner and its workers.

This module imports nothing from hjsys, so the runner can read it in a tree
where the package is missing.  Sizes are chosen so that one instance of each
workload takes a few seconds to a quarter of a minute on a 2-core box, which
lets one benchmark run hold several fresh-interpreter instances and report
their median; see README.md for why each workload exists.
"""
from __future__ import annotations

# "full" sizes are the measured ones; "smoke" sizes only exercise the harness
# and are never used for recorded numbers.
WORKLOADS = {
    "eikonal-pair": {
        "full": {"suite": "largenew-eikonal", "n": 64, "t_final": 30.0},
        "smoke": {"suite": "largenew-eikonal", "n": 48, "t_final": 30.0},
    },
    "switching-mc": {
        "full": {"suite": "appendix-mc", "n": 128, "horizon": 0.5, "n_samples": 4096},
        "smoke": {"suite": "appendix-mc", "n": 128, "horizon": 0.5, "n_samples": 1024},
    },
    "nonconvex-cli": {
        "full": {"n": 24, "t_final": 20.0, "snapshot_every": 0.5},
        "smoke": {"n": 16, "t_final": 20.0, "snapshot_every": 1.0},
    },
}

# Only the Monte Carlo workload draws random numbers; the PDE workloads give
# the same outputs for every seed, so their determinism reference ignores it.
SEEDED = {"switching-mc"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Counts that must repeat exactly between runs of one commit on one input.
EXACT_COUNTS = (
    "evolution.steps",
    "evolution.node_updates",
    "ergodic.march_steps",
    "hamiltonians.eval_calls",
    "switching.path_steps",
    "switching.lookup_calls",
)

PER_LAYER = {
    "evolution.solve_calls": "count",
    "evolution.steps": "count",
    "evolution.solve_s": "s",
    "evolution.step_us": "us",
    "evolution.step_self_s": "s",
    "evolution.node_updates": "count",
    "evolution.node_updates_per_s": "1/s",
    "hamiltonians.eval_calls": "count",
    "hamiltonians.eval_s": "s",
    "hamiltonians.eval_us": "us",
    "hamiltonians.build_s": "s",
    "grid.diff_calls": "count",
    "grid.diff_s": "s",
    "grid.write_bytes": "B",
    "grid.write_s": "s",
    "grid.read_bytes": "B",
    "grid.read_s": "s",
    "ergodic.estimate_s": "s",
    "ergodic.discount_solves": "count",
    "ergodic.march_steps": "count",
    "ergodic.fine_step_share": "ratio",
    "ergodic.jumps": "count",
    "ergodic.s_per_lambda": "s",
    "ergodic.drift_fit_s": "s",
    "switching.estimate_calls": "count",
    "switching.estimate_s": "s",
    "switching.paths": "count",
    "switching.path_steps": "count",
    "switching.paths_per_s": "1/s",
    "switching.lookup_calls": "count",
    "switching.lookup_s": "s",
    "switching.policy_build_s": "s",
    "switching.ham_build_s": "s",
    "diagnostics.calls": "count",
    "diagnostics.s": "s",
    "diagnostics.p_eta_s": "s",
    "catalog.build_calls": "count",
    "catalog.build_s": "s",
    "coupling.calls": "count",
    "coupling.s": "s",
    "suites.checks": "count",
    "suites.checks_failed": "count",
    "suites.min_headroom": "ratio",
    "cli.calls": "count",
    "cli.s": "s",
    "cli.nonzero_exits": "count",
    "cli.artifact_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Graded checks per instance, used to charge a crashed instance in full.
CHECKS_PER_INSTANCE = {"eikonal-pair": 10, "switching-mc": 2, "nonconvex-cli": 5}
