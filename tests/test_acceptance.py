"""End-to-end acceptance scoreboard.

Eleven criteria, one test each.  Every test prints a single [PASS]/[FAIL]
line directly to the terminal (bypassing capture) before asserting, so a
full run always ends with an eleven-line summary regardless of verbosity.

The slow experiments run once per session through the suite fixtures in
conftest; the remaining criteria are checked directly here.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from conftest import delta_rate_bruteforce, random_monotone_matrix
from hjsys.catalog import quadratic_eikonal_pair
from hjsys.coupling import (
    CouplingMatrix,
    StructureError,
    constant_solution,
    delta_rate,
    irreducible_bruteforce,
    is_irreducible,
    pairwise_nonzero,
    perron_vector,
)
from hjsys.evolution import EvolutionConfig, HJSystem, comparison_check, solve, solve_batch
from hjsys.grid import Grid, GridFunction
from hjsys.hamiltonians import make_quadratic_eikonal

SYM = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _stamp(capfd, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}"
    with capfd.disabled():
        print(line)
    assert ok, line


def _named(suite, names=None):
    if names is None:
        return list(suite.checks)
    by_name = {c.name: c for c in suite.checks}
    return [by_name[n] for n in names]


def _fmt(checks) -> str:
    return "; ".join(
        f"{c.name} {c.value:.3g} {c.relation} {c.bound:.3g}" for c in checks
    )


def test_criterion_01_ergodic_constant_formula(suite_largenew, capfd):
    checks = _named(
        suite_largenew,
        ["constant_matches_formula", "drift_cross_check", "estimator_runtime_seconds"],
    )
    _stamp(
        capfd,
        1,
        "discount estimate matches the weighted-minimum formula",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_02_constant_in_coupling_kernel(suite_largenew, capfd):
    checks = _named(suite_largenew, ["constant_in_coupling_kernel"])
    _stamp(
        capfd,
        2,
        "ergodic constant lies in the coupling kernel",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_03_large_time_profile_convergence(suite_largenew, capfd):
    checks = _named(
        suite_largenew,
        ["profile_settled_a", "profile_settled_b", "terminal_profiles_agree"],
    )
    _stamp(
        capfd,
        3,
        "drift-compensated profiles settle and terminal states agree",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_04_nonconvex_long_time_behavior(suite_mainresult, capfd):
    checks = _named(suite_mainresult)
    _stamp(
        capfd,
        4,
        "nonconvex pair shows monotone tail and decaying oscillation",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_05_strictly_convex_disjoint_minimizers(suite_exist_smoo, capfd):
    checks = _named(suite_exist_smoo)
    _stamp(
        capfd,
        5,
        "strictly convex pair with disjoint minimizers converges",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_06_identical_hamiltonian_gap_decay(suite_identical_gap, capfd):
    checks = _named(suite_identical_gap)
    _stamp(
        capfd,
        6,
        "identical-Hamiltonian gap obeys the certified decay rate",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_07_discrete_comparison_principle(capfd):
    # 50 ordered random pairs; the scheme may lose at most 1e-10 of ordering
    # per time step.  Mode amplitudes are capped so the discrete gradients
    # stay inside the dissipation box sampled at build time.
    system, _ = quadratic_eikonal_pair(64)
    grid = system.grid
    xs = grid.axis_coords()
    rng = np.random.default_rng(20260822)
    cfg = EvolutionConfig(t_final=0.5, snapshot_every=0.1)
    worst = -np.inf
    allowance = 0.0
    failures = 0
    for _ in range(50):
        lows, highs = [], []
        for _ in range(system.m):
            base = np.zeros_like(xs)
            for k, amp in ((1, 0.10), (2, 0.05)):
                base += rng.uniform(-amp, amp) * np.cos(2 * np.pi * k * xs)
                base += rng.uniform(-amp, amp) * np.sin(2 * np.pi * k * xs)
            lift = rng.uniform(0.0, 0.3) + rng.uniform(0.0, 0.05) * (
                1.0 + np.sin(2 * np.pi * xs)
            )
            lows.append(GridFunction(grid, base))
            highs.append(GridFunction(grid, base + lift))
        report = comparison_check(*solve_batch(system, [lows, highs], cfg))
        allowance = report.slack_allowance(per_step=1e-10)
        worst = max(worst, report.worst_violation)
        failures += report.worst_violation > allowance
    _stamp(
        capfd,
        7,
        "discrete comparison principle on 50 random ordered pairs",
        failures == 0,
        f"worst ordering slack {worst:.3e} <= {allowance:.3e} in every run",
    )


def test_criterion_08_coupling_oracle_equivalence(capfd):
    # 200 random monotone matrices (half with a forced cycle): graph
    # irreducibility must equal the subset brute force, the certified gap
    # rate must equal its subset enumeration to roundoff on the pairwise
    # nonzero ones, and on the irreducible ones the Perron and
    # constant-solution residuals stay at solver precision.
    rng = np.random.default_rng(8)
    mismatches = 0
    n_irreducible = 0
    n_rated = 0
    worst_perron = 0.0
    worst_const = 0.0
    worst_delta = 0.0
    for k in range(200):
        entries = random_monotone_matrix(rng, ensure_irreducible=(k % 2 == 0))
        m = entries.shape[0]
        cm = CouplingMatrix(m, entries=entries)
        if pairwise_nonzero(cm):
            n_rated += 1
            want = delta_rate_bruteforce(entries)
            try:
                got = delta_rate(cm)
                worst_delta = max(worst_delta, abs(got - want) / abs(want))
            except StructureError:
                mismatches += want > 0
        bfs = is_irreducible(cm)
        if bfs != irreducible_bruteforce(cm):
            mismatches += 1
            continue
        if not bfs:
            continue
        n_irreducible += 1
        pv = perron_vector(cm)
        worst_perron = max(
            worst_perron, float(np.max(np.abs(entries.T @ pv.weights)))
        )
        b = rng.standard_normal(m)
        u, a = constant_solution(cm, b)
        worst_const = max(worst_const, float(np.max(np.abs(entries @ u + a - b))))
    ok = (
        mismatches == 0
        and n_irreducible >= 100
        and n_rated >= 100
        and worst_perron <= 1e-10
        and worst_const <= 1e-10
        and worst_delta <= 1e-12
    )
    _stamp(
        capfd,
        8,
        "coupling analysis agrees with brute-force oracles on 200 draws",
        ok,
        f"{mismatches} mismatches, {n_irreducible} irreducible, "
        f"{n_rated} rated (gap rate relative error {worst_delta:.2e}), "
        f"perron residual {worst_perron:.2e}, constant residual {worst_const:.2e}",
    )


def test_criterion_09_discount_family_bounds(suite_largenew, capfd):
    checks = _named(
        suite_largenew,
        ["uniform_bound_holds", "lipschitz_spread", "discounted_nonnegative"],
    )
    _stamp(
        capfd,
        9,
        "one bound and one Lipschitz budget fit the whole discount schedule",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_10_monte_carlo_cross_validation(suite_appendix_mc, capfd):
    checks = _named(suite_appendix_mc)
    _stamp(
        capfd,
        10,
        "switching-process values match the PDE and the closed form",
        all(c.passed for c in checks),
        _fmt(checks),
    )


def test_criterion_11_matrix_exponential_reduction(capfd):
    # Zero source and spatially constant data make the flux vanish exactly,
    # so the scheme reduces to forward Euler on u' = -Du.
    grid = Grid(dim=1, n=32)

    def zero_f(x):
        return np.zeros(np.asarray(x).shape[:-1])

    H = make_quadratic_eikonal(zero_f, dim=1, params={"f": "zero"})
    system = HJSystem(
        hams=(H, H), coupling=CouplingMatrix(2, entries=SYM), grid=grid
    )
    u0_vec = np.array([1.0, 0.0])
    u0 = [GridFunction(grid, np.full(grid.shape, v)) for v in u0_vec]
    traj = solve(system, u0, EvolutionConfig(t_final=5.0, snapshot_every=0.25))
    dt = float(traj.meta["dt"])
    worst = 0.0
    for k, t in enumerate(traj.times):
        exact = scipy.linalg.expm(-float(t) * SYM) @ u0_vec
        worst = max(
            worst, float(np.max(np.abs(traj.values[k] - exact[:, None])))
        )
    _stamp(
        capfd,
        11,
        "constant-data evolution matches the matrix exponential",
        worst <= 5 * dt,
        f"sup error {worst:.3e} <= {5 * dt:.3e} over [0, 5]",
    )
