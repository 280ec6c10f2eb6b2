"""Discounted approximation, constant extraction, and long-time drift fits."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hjsys import catalog, ergodic
from hjsys.catalog import fourier_function
from hjsys.coupling import CouplingMatrix, ergodic_constant_formula
from hjsys.errors import ConfigError, StructureError
from hjsys.ergodic import (
    DiscountSchedule,
    ErgodicResult,
    estimate_ergodic_constant,
    long_time_constant,
    solve_discounted,
)
from hjsys.evolution import HJSystem, Trajectory
from hjsys.grid import Grid, sample
from hjsys.hamiltonians import Hamiltonian, make_quadratic_eikonal
from hjsys.switching import hamiltonian_from_spec

from test_flux_kernel import _custom_hams

SYM = np.array([[1.0, -1.0], [-1.0, 1.0]])

F1 = {"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}
F2 = {"const": 2.0, "terms": [{"k": [1], "cos": -2.0}]}


def _system(n=32, consts=(None, None)):
    """Eikonal pair; consts overrides the sources with flat levels."""
    grid = Grid(dim=1, n=n)
    hams = []
    for spec, const in zip((F1, F2), consts):
        if const is None:
            f = fourier_function(spec, 1)
            hams.append(make_quadratic_eikonal(f, dim=1, params={"f": spec}))
        else:
            hams.append(
                make_quadratic_eikonal(
                    lambda x, c=const: np.full(np.asarray(x).shape[:-1], float(c)),
                    dim=1,
                    params={"f": {"const": const}},
                )
            )
    return HJSystem(
        hams=tuple(hams), coupling=CouplingMatrix(2, entries=SYM), grid=grid
    )


QUICK = DiscountSchedule(lambdas=(0.1, 0.05), steady_state_tol=1e-8)


def _march(system: HJSystem, lam: float, schedule: DiscountSchedule = DiscountSchedule()):
    """The march from zero data, the oracle Newton is checked against:
    (v, steps, jumps, residual)."""
    v0 = np.zeros((system.m,) + system.grid.shape)
    return ergodic._march(system.flux_kernel(schedule.flux_mode), lam, v0, schedule, [])


def _pair(hams, n=64):
    return HJSystem(
        hams=tuple(hams), coupling=CouplingMatrix(2, entries=SYM), grid=Grid(dim=1, n=n)
    )


def _newton_case(name, n=64):
    if name == "largenew":
        return catalog.quadratic_eikonal_pair(n)[0]
    if name in ("linear_eikonal", "nonconvex_bs00"):
        return _pair((catalog.build_hamiltonian(name, {"f": f}) for f in (F1, F2)), n)
    if name == "asymmetric":  # the largenew sources, coupling rows that differ
        D = CouplingMatrix.constant(catalog.builtin_coupling("asymmetric_pair"))
        return dataclasses.replace(catalog.quadratic_eikonal_pair(n)[0], coupling=D)
    if name == "custom":
        coercive = frozenset({"coercive"})
        return _pair((dataclasses.replace(h, class_tags=coercive) for h in _custom_hams(1)), n)
    spec = catalog.unit_ball_eikonal_process([F1, F2], [[0.0, 1.0], [1.0, 0.0]], n_actions=17)
    return _pair((hamiltonian_from_spec(spec, i) for i in range(2)), n)


class TestScheduleValidation:
    def test_empty_lambdas(self):
        with pytest.raises(ConfigError):
            DiscountSchedule(lambdas=())

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError):
            DiscountSchedule(lambdas=(1.5,))
        with pytest.raises(ConfigError):
            DiscountSchedule(lambdas=(0.1, -0.05))

    def test_requires_decreasing(self):
        with pytest.raises(ConfigError):
            DiscountSchedule(lambdas=(0.05, 0.1))

    def test_tol_positive(self):
        with pytest.raises(ConfigError):
            DiscountSchedule(steady_state_tol=0.0)

    def test_discount_out_of_range_at_solve(self):
        with pytest.raises(ConfigError):
            solve_discounted(_system(), 0.0)


class TestDiscountedFixedPoints:
    def test_zero_source_gives_zero(self):
        system = _system(consts=(0.0, 0.0))
        v, info = solve_discounted(system, 0.1)
        assert float(np.max(np.abs(v))) <= 1e-10
        assert info.final_residual <= 1e-8

    def test_constant_source_divides_by_lambda(self):
        # lam v + |Dv|^2 - kappa + (Dv)_i = 0 has v = kappa / lam.
        kappa, lam = 0.7, 0.125
        system = _system(consts=(kappa, kappa))
        v, info = solve_discounted(system, lam)
        assert np.allclose(v, kappa / lam, atol=1e-6)
        assert info.newton_iterations <= 2 and info.steps == 0
        v, steps, jumps, _ = _march(system, lam)
        assert np.allclose(v, kappa / lam, atol=1e-6)
        assert jumps >= 1  # the march's constant-mode jump does the work

    def test_nonnegative_sources_keep_v_nonnegative(self):
        v, info = solve_discounted(_system(), 0.1)
        assert info.min_value >= -1e-8
        assert float(np.min(v)) == info.min_value

    def test_noncoercive_rejected(self):
        grid = Grid(dim=1, n=16)
        H = Hamiltonian(
            dim=1,
            bind=lambda X: (lambda p: np.sum(p * p, axis=-1), None),
            lf_alpha=1.0,
            class_tags=frozenset({"convex"}),  # no coercive tag
        )
        system = HJSystem(
            hams=(H, H), coupling=CouplingMatrix(2, entries=SYM), grid=grid
        )
        with pytest.raises(StructureError, match="coercive"):
            solve_discounted(system, 0.1)

    @pytest.mark.parametrize("entries", [[[0.0, 0.0], [0.0, 0.0]], [[1.0, -1.0], [0.0, 0.0]]])
    def test_reducible_constant_coupling_rejected(self, entries):
        # refused as the same matrix is as a field coupling; the decoupled
        # pair used to return constants that differ per component, no note
        coupling = CouplingMatrix.constant(np.array(entries))
        system = dataclasses.replace(_system(), coupling=coupling)
        with pytest.raises(StructureError, match="constant coupling is reducible"):
            solve_discounted(system, 0.1)
        with pytest.raises(StructureError, match="constant coupling is reducible"):
            estimate_ergodic_constant(system)


class TestConstantEstimation:
    def test_matches_weighted_min_formula(self):
        system = _system(n=64)
        result = estimate_ergodic_constant(system, QUICK)
        grid = system.grid
        fs = [
            sample(fourier_function(F1, 1), grid),
            sample(fourier_function(F2, 1), grid),
        ]
        target = ergodic_constant_formula(CouplingMatrix(2, entries=SYM), fs)
        assert np.max(np.abs(result.c - target)) <= 0.05
        assert result.cross_component_spread <= 5e-3

    def test_shift_equivariance(self):
        kappa = 0.6
        base = estimate_ergodic_constant(_system(consts=(1.0, 1.3)), QUICK)
        # H -> H + kappa via f -> f - kappa shifts every constant by kappa
        lifted = estimate_ergodic_constant(
            _system(consts=(1.0 - kappa, 1.3 - kappa)), QUICK
        )
        assert np.allclose(lifted.c - base.c, kappa, atol=1e-5)

    def test_anchor_dependence_is_order_lambda(self):
        system = _system(n=32)
        sched_a = DiscountSchedule(lambdas=(0.1, 0.05), anchor=(0.0,))
        sched_b = DiscountSchedule(lambdas=(0.1, 0.05), anchor=(0.375,))
        ra = estimate_ergodic_constant(system, sched_a)
        rb = estimate_ergodic_constant(system, sched_b)
        lam_min = 0.05
        lip = max(row["lip"] for row in ra.per_lambda)
        bound = lam_min * lip * 0.375 + 1e-6
        assert np.max(np.abs(ra.c_raw - rb.c_raw)) <= bound

    def test_correctors_anchored_and_residual_small(self):
        system = _system(n=64)
        result = estimate_ergodic_constant(system, QUICK)
        idx = system.grid.node_index(np.array([0.0]))
        assert result.correctors[0].values[idx] == 0.0
        # stationarity defect of (w, c) under the numerical operator
        assert result.residual <= 0.05

    def test_result_artifacts(self, tmp_path):
        system = _system(n=32)
        result = estimate_ergodic_constant(system, QUICK)
        result.save(tmp_path)
        assert (tmp_path / "ergodic.json").exists()
        assert (tmp_path / "corrector0.bin").exists()
        assert (tmp_path / "corrector1.bin").exists()
        csv = (tmp_path / "per_lambda.csv").read_text().splitlines()
        assert csv[0] == "lambda,component,estimate,sup,lip"
        # one row per (lambda, component)
        assert len(csv) == 1 + 2 * len(QUICK.lambdas)

    def test_anchor_dim_mismatch(self):
        with pytest.raises(ConfigError):
            estimate_ergodic_constant(
                _system(), DiscountSchedule(lambdas=(0.1,), anchor=(0.0, 0.0))
            )


class TestNewtonAgainstMarch:
    """The march is the oracle: ``ergodic._march`` converges to the same
    tolerance from the same start."""

    @pytest.mark.parametrize(
        "case", ["largenew", "linear_eikonal", "nonconvex_bs00", "switching", "asymmetric", "custom"]
    )
    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_agrees_within_tolerance(self, case, mode):
        system = _newton_case(case)
        lam = 0.05
        schedule = DiscountSchedule(flux_mode=mode)
        v, info = solve_discounted(system, lam, schedule)
        assert info.newton_iterations >= 1 and not info.fallback
        assert info.steps == 0 and info.jumps == 0
        assert info.final_residual < schedule.steady_state_tol
        v_march, steps, _, residual = _march(system, lam, schedule)
        assert steps > 0 and residual < schedule.steady_state_tol
        assert lam * np.max(np.abs(v - v_march)) <= 2 * schedule.steady_state_tol

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_switching_pair_converges_without_the_march(self, mode):
        # Newton through hand-written policy derivatives used up 50
        # iterations here and then marched 1,247 steps
        system = _newton_case("switching", n=128)
        v, info = solve_discounted(system, 0.1, DiscountSchedule(flux_mode=mode))
        assert not info.fallback and info.newton_iterations <= 5
        assert info.steps == 0 and info.final_residual < 1e-8

    @pytest.mark.parametrize("n", [128, 256])
    def test_strictconvex_pair_converges_without_the_march(self, n):
        # from zeros, local Newton used up 50 iterations at lambda = 0.1 and
        # then marched 5,397 (n=128) and 12,214 (n=256) steps; it now starts
        # from the global-flux solution
        f1 = {"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]}
        f2 = {"const": 0.7, "terms": [{"k": [1], "cos": 0.5}]}
        hams = (catalog.build_hamiltonian("quadratic_eikonal", {"f": f}) for f in (f1, f2))
        result = estimate_ergodic_constant(_pair(hams, n), DiscountSchedule(flux_mode="local"))
        for row in result.per_lambda:
            assert row["fallback"] is False and row["steps"] == 0
            assert row["residual"] < 1e-8

    def test_two_dimensional_grid_marches(self):
        f = fourier_function({"const": 1.0, "terms": [{"k": [1, 1], "cos": -1.0}]}, 2)
        hams = [make_quadratic_eikonal(f, dim=2) for _ in range(2)]
        system = HJSystem(
            hams=tuple(hams), coupling=CouplingMatrix(2, entries=SYM), grid=Grid(dim=2, n=8)
        )
        v, info = solve_discounted(system, 0.1)
        assert info.newton_iterations == 0 and not info.fallback and info.steps > 0
        assert info.final_residual < 1e-8

    def test_falls_back_to_march_from_best_iterate(self, monkeypatch):
        system = _newton_case("largenew")
        lam = 0.1
        v, _ = solve_discounted(system, lam)
        monkeypatch.setattr(ergodic, "_NEWTON_MAX_ITER", 3)
        v_fb, info = solve_discounted(system, lam)
        # from zeros, the global-flux start and the local solve use up 3 each
        assert info.fallback and info.newton_iterations == 2 * 3
        assert info.steps > 0 and info.final_residual < 1e-8
        assert lam * np.max(np.abs(v - v_fb)) <= 2e-8
        # the march from Newton's iterate is shorter than the march from zero
        _, steps, _, _ = _march(system, lam)
        assert info.steps < steps

    def test_schedule_rows_report_the_solver(self):
        result = estimate_ergodic_constant(_system(n=64), QUICK)
        for row in result.per_lambda:
            assert row["newton_iterations"] >= 1
            assert row["fallback"] is False
            assert row["steps"] == 0 and row["jumps"] == 0
        # warm starts need no more than a couple of iterations
        assert result.per_lambda[-1]["newton_iterations"] <= 3


class TestLongTimeConstant:
    def _linear_traj(self, cs, t_final=40.0, every=1.0):
        grid = Grid(dim=1, n=16)
        xs = grid.axis_coords()
        base = np.stack([np.cos(2 * np.pi * xs), np.sin(2 * np.pi * xs)])
        times = np.arange(0.0, t_final + 1e-9, every)
        cs = np.asarray(cs, dtype=float)
        values = [base - t * cs[:, None] for t in times]
        meta = {"identical_hamiltonians": False, "steps_at_snapshot": list(range(len(times)))}
        return Trajectory(grid=grid, times=times, values=values, meta=meta)

    def test_exact_on_linear_drift(self):
        cs = (0.75, -0.2)
        traj = self._linear_traj(cs)
        got = long_time_constant(traj)
        assert np.allclose(got, cs, atol=1e-10)

    def test_anchor_choice_irrelevant_for_pure_drift(self):
        traj = self._linear_traj((0.3, 0.3))
        a = long_time_constant(traj, anchor=(0.0,))
        b = long_time_constant(traj, anchor=(0.5,))
        assert np.allclose(a, b, atol=1e-10)

    def test_window_too_short(self):
        traj = self._linear_traj((0.3, 0.3), t_final=8.0)
        with pytest.raises(ConfigError):
            long_time_constant(traj)

    def test_too_few_snapshots(self):
        traj = self._linear_traj((0.3, 0.3), t_final=40.0, every=39.0)
        with pytest.raises(ConfigError):
            long_time_constant(traj)
