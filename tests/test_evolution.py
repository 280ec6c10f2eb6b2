"""System evolution: stepping, CFL policy, structure guards, and invariances."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from hjsys.catalog import fourier_function
from hjsys.coupling import CouplingMatrix
from hjsys.errors import ConfigError, DivergenceError, StructureError
from hjsys.evolution import (
    EvolutionConfig,
    HJSystem,
    SystemState,
    Trajectory,
    cfl_dt,
    comparison_check,
    lipschitz_check,
    solve,
    solve_batch,
    step,
)
from hjsys.grid import Grid, GridFunction, sample
from hjsys.hamiltonians import Hamiltonian, make_linear_eikonal, make_quadratic_eikonal

SYM = np.array([[1.0, -1.0], [-1.0, 1.0]])

F1 = {"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}
F2 = {"const": 2.0, "terms": [{"k": [1], "cos": -2.0}]}


def _zero_f(x):
    return np.zeros(np.asarray(x).shape[:-1])


def _pair_system(n=32, fs=(F1, F2), coupling=SYM, p_box=2.5):
    grid = Grid(dim=1, n=n)
    hams = tuple(
        make_quadratic_eikonal(fourier_function(f, 1), dim=1, p_box=p_box, params={"f": f})
        for f in fs
    )
    return HJSystem(hams=hams, coupling=CouplingMatrix(len(hams), entries=coupling), grid=grid)


def _free_system(n=32, m=2, coupling=None):
    # |p|^2 with no source, so spatially constant data evolve by the ODE alone
    grid = Grid(dim=1, n=n)
    H = make_quadratic_eikonal(_zero_f, dim=1, params={"f": "zero"})
    entries = np.zeros((m, m)) if coupling is None else coupling
    return HJSystem(hams=(H,) * m, coupling=CouplingMatrix(m, entries=entries), grid=grid)


def _constants(system, vals):
    return [
        GridFunction(system.grid, np.full(system.grid.shape, float(v))) for v in vals
    ]


class TestStructureGuards:
    def test_component_count_mismatch(self):
        grid = Grid(dim=1, n=16)
        H = make_quadratic_eikonal(_zero_f, dim=1)
        with pytest.raises(StructureError):
            HJSystem(hams=(H,), coupling=CouplingMatrix(2, entries=SYM), grid=grid)

    def test_dim_mismatch(self):
        grid = Grid(dim=2, n=16)
        H = make_quadratic_eikonal(_zero_f, dim=1)
        with pytest.raises(StructureError):
            HJSystem(hams=(H, H), coupling=CouplingMatrix(2, entries=SYM), grid=grid)

    def test_non_monotone_coupling_rejected(self):
        grid = Grid(dim=1, n=16)
        H = make_quadratic_eikonal(_zero_f, dim=1)
        bad = np.array([[1.0, -2.0], [-1.0, 1.0]])
        with pytest.raises(StructureError):
            HJSystem(hams=(H, H), coupling=CouplingMatrix(2, entries=bad), grid=grid)

    def test_initial_data_on_wrong_grid(self):
        sys2 = _pair_system(n=32)
        wrong = _constants(_pair_system(n=64), [0.0, 0.0])
        with pytest.raises((StructureError, ValueError)):
            solve(sys2, wrong, EvolutionConfig(t_final=0.1))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EvolutionConfig(t_final=-1.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(t_final=1.0, cfl=0.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(t_final=1.0, snapshot_every=0.0)
        with pytest.raises(ConfigError):
            EvolutionConfig(t_final=1.0, flux_mode="upwind")


class TestTimeStep:
    def test_cfl_formula_exact(self):
        grid = Grid(dim=1, n=64)
        H = Hamiltonian(
            dim=1, bind=lambda X: (lambda p: np.sum(p * p, axis=-1), None), lf_alpha=2.0
        )
        system = HJSystem(
            hams=(H, H), coupling=CouplingMatrix(2, entries=SYM), grid=grid
        )
        dt = cfl_dt(system, EvolutionConfig(t_final=1.0, cfl=0.5))
        assert dt == 0.5 * grid.h / 2.0  # grad bound, not the coupling, binds

    def test_coupling_bound_binds_for_stiff_coupling(self):
        grid = Grid(dim=1, n=64)
        H = Hamiltonian(
            dim=1, bind=lambda X: (lambda p: np.sum(p * p, axis=-1), None), lf_alpha=0.01
        )
        stiff = 50.0 * SYM
        system = HJSystem(
            hams=(H, H), coupling=CouplingMatrix(2, entries=stiff), grid=grid
        )
        dt = cfl_dt(system, EvolutionConfig(t_final=1.0, cfl=0.5))
        assert dt == pytest.approx(0.5 / 50.0)

    def test_override_honored(self):
        system = _pair_system()
        dt = cfl_dt(system, EvolutionConfig(t_final=1.0, dt_override=1e-3))
        assert dt == 1e-3

    def test_budget_guard_trips_on_huge_override(self):
        system = _pair_system()
        u0 = _constants(system, [0.0, 0.0])
        # constant data but an absurd dt: the per-step budget must refuse
        cfg = EvolutionConfig(t_final=40.0, dt_override=10.0)
        with pytest.raises(DivergenceError, match="CFL"):
            solve(system, u0, cfg)

    def test_gradient_outside_p_box_exceeds_local_budget(self):
        # the local flux steps with dt from lf_alpha, which is sampled over
        # |p| <= p_box; slopes up to pi leave a box of 0.5 on the first step
        grid = Grid(dim=1, n=16)
        hams = tuple(
            make_quadratic_eikonal(fourier_function(f, 1), dim=1, p_box=0.5) for f in (F1, F2)
        )
        system = HJSystem(hams=hams, coupling=CouplingMatrix(2, entries=SYM), grid=grid)
        steep = sample(fourier_function({"terms": [{"k": [1], "sin": 0.5}]}, 1), grid)
        cfg = EvolutionConfig(t_final=0.2, flux_mode="local")
        with pytest.raises(DivergenceError, match="CFL budget exceeded: dt\\*sum\\(alpha\\)/h"):
            solve(system, [steep, steep], cfg)

    def test_batch_names_the_member_outside_the_p_box(self):
        # the same steep data between two smooth members of one batch
        grid = Grid(dim=1, n=16)
        hams = tuple(
            make_quadratic_eikonal(fourier_function(f, 1), dim=1, p_box=0.5) for f in (F1, F2)
        )
        system = HJSystem(hams=hams, coupling=CouplingMatrix(2, entries=SYM), grid=grid)
        steep = sample(fourier_function({"terms": [{"k": [1], "sin": 0.5}]}, 1), grid)
        smooth = sample(fourier_function({"terms": [{"k": [1], "sin": 0.05}]}, 1), grid)
        members = [[smooth, smooth], [steep, steep], [smooth, smooth]]
        # two steps: the sources steepen smooth data past the box later on
        cfg = EvolutionConfig(t_final=0.05, flux_mode="local")
        with pytest.raises(DivergenceError, match="^member 1: CFL budget exceeded"):
            solve_batch(system, members, cfg)
        solve_batch(system, members[::2], cfg)  # the smooth members alone pass


class TestExactSolutions:
    def test_constant_data_uncoupled_is_stationary(self):
        system = _free_system(m=2)
        u0 = _constants(system, [0.7, -0.3])
        traj = solve(system, u0, EvolutionConfig(t_final=0.5))
        assert np.array_equal(traj.values[-1], traj.values[0])

    def test_single_euler_step_on_coupled_constants(self):
        system = _free_system(m=2, coupling=SYM)
        state = SystemState.from_functions(_constants(system, [1.0, 0.0]))
        dt = 0.01
        out = step(state, system, dt)
        assert np.allclose(out.values[0], 1.0 - dt, atol=1e-15)
        assert np.allclose(out.values[1], dt, atol=1e-15)
        assert out.t == dt

    def test_linear_growth_for_constant_source(self):
        # m = 1, H = |p| - 1, u0 = 0: the solution is u(t) = t.
        grid = Grid(dim=1, n=32)
        H = make_linear_eikonal(lambda x: np.ones(np.asarray(x).shape[:-1]), dim=1)
        system = HJSystem(
            hams=(H,), coupling=CouplingMatrix(1, entries=np.zeros((1, 1))), grid=grid
        )
        traj = solve(
            system,
            [GridFunction(grid, np.zeros(32))],
            EvolutionConfig(t_final=0.75, snapshot_every=0.25),
        )
        for k, t in enumerate(traj.times):
            assert np.allclose(traj.values[k], t, atol=1e-12)

    def test_ode_reduction_matches_expm(self):
        # spatially constant data reduce the PDE to u' = -Du; compare with
        # the matrix exponential at every snapshot
        system = _free_system(n=16, m=2, coupling=SYM)
        u0 = np.array([1.0, 0.0])
        cfg = EvolutionConfig(t_final=1.0, snapshot_every=0.25)
        traj = solve(system, _constants(system, u0), cfg)
        dt = traj.meta["dt"]
        for k, t in enumerate(traj.times):
            ref = scipy.linalg.expm(-t * SYM) @ u0
            got = traj.values[k][:, 0]
            assert np.max(np.abs(got - ref)) <= 5 * dt
            # the field stays exactly spatially constant
            assert float(np.ptp(traj.values[k], axis=-1).max()) == 0.0


class TestInvariances:
    def test_identical_components_stay_identical(self):
        system = _pair_system(fs=(F1, F1))
        grid = system.grid
        u = sample(lambda x: 0.2 * np.sin(2 * np.pi * x[..., 0]), grid)
        traj = solve(system, [u, u], EvolutionConfig(t_final=0.3))
        assert np.array_equal(traj.values[-1][0], traj.values[-1][1])

    def test_constant_shift_equivariance(self):
        system = _pair_system()
        grid = system.grid
        u = sample(lambda x: 0.1 * np.cos(2 * np.pi * x[..., 0]), grid)
        v = sample(lambda x: 0.1 * np.sin(2 * np.pi * x[..., 0]), grid)
        cfg = EvolutionConfig(t_final=0.5)
        base = solve(system, [u, v], cfg)
        kappa = 0.83
        shifted = solve(
            system,
            [GridFunction(grid, u.values + kappa), GridFunction(grid, v.values + kappa)],
            cfg,
        )
        gap = np.max(np.abs(shifted.values[-1] - base.values[-1] - kappa))
        assert gap <= 1e-12

    def test_component_permutation_symmetry(self):
        # swapping both the Hamiltonians and the data swaps the solution
        # exactly when the coupling is symmetric
        sys_ab = _pair_system(fs=(F1, F2))
        sys_ba = _pair_system(fs=(F2, F1))
        grid = sys_ab.grid
        u = sample(lambda x: 0.2 * np.cos(2 * np.pi * x[..., 0]), grid)
        v = sample(lambda x: np.zeros_like(x[..., 0]), grid)
        cfg = EvolutionConfig(t_final=0.4)
        t_ab = solve(sys_ab, [u, v], cfg)
        t_ba = solve(sys_ba, [v, u], cfg)
        assert np.array_equal(t_ab.values[-1][0], t_ba.values[-1][1])
        assert np.array_equal(t_ab.values[-1][1], t_ba.values[-1][0])

    @settings(max_examples=10)
    @given(st.integers(min_value=0, max_value=10_000))
    @example(seed=852)  # slopes up to 5.8: the default p_box 2.5 broke the CFL budget
    def test_comparison_principle(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(dim=1, n=32)
        xs = grid.axis_coords()

        def rand_field():
            out = np.zeros(32)
            for k in (1, 2):
                out += rng.uniform(-0.15, 0.15) * np.cos(2 * np.pi * k * xs)
                out += rng.uniform(-0.15, 0.15) * np.sin(2 * np.pi * k * xs)
            return out

        lows, highs = [], []
        for _ in range(2):
            base = rand_field()
            lift = rng.uniform(0.0, 0.3) + np.abs(rand_field())
            lows.append(GridFunction(grid, base))
            highs.append(GridFunction(grid, base + lift))
        # the Lax-Friedrichs bound must cover the data's one-sided slopes
        slope = max(np.max(np.abs(np.diff(u.values, append=u.values[0]))) / grid.h
                    for u in lows + highs)
        system = _pair_system(n=32, p_box=max(2.5, 1.25 * slope))
        cfg = EvolutionConfig(t_final=0.25, snapshot_every=0.05)
        traj_lo, traj_hi = solve_batch(system, [lows, highs], cfg)
        report = comparison_check(traj_lo, traj_hi)
        assert report.worst_violation <= report.slack_allowance(per_step=1e-10)

    def test_summed_cfl_budget_guards_the_comparison_principle(self):
        # each half of the budget passes on its own at dt = 0.1: the flux
        # dt * 2 lf_alpha / h = 0.873 and the damping dt * 9 = 0.9; their sum
        # 1.77 made one step take min(v - u) to -7.7e-4 from data v >= u
        grid = Grid(dim=1, n=8)
        hams = tuple(
            make_quadratic_eikonal(fourier_function(f, 1), dim=1, p_box=0.5) for f in (F1, F2)
        )
        system = HJSystem(
            hams=hams, coupling=CouplingMatrix(2, entries=9.0 * SYM), grid=grid
        )
        xs = grid.axis_coords()
        u = [GridFunction(grid, 0.05 * np.cos(2 * np.pi * xs)),
             GridFunction(grid, 0.05 * np.sin(2 * np.pi * xs))]
        v = [GridFunction(grid, u[0].values + 1e-3 * (np.arange(8) == 3)), u[1]]
        with pytest.raises(DivergenceError, match=r"dt\*sum\(alpha\)/h \+ dt\*\(max d_ii"):
            solve_batch(system, [u, v], EvolutionConfig(
                t_final=0.1, dt_override=0.1, flux_mode="global"))
        # half the step keeps the sum below 1, and the order with it
        lo, hi = solve_batch(system, [u, v], EvolutionConfig(
            t_final=0.1, dt_override=0.05, flux_mode="global"))
        report = comparison_check(lo, hi)
        assert report.worst_violation <= report.slack_allowance(per_step=1e-10)


class TestSnapshotsAndIO:
    def test_snapshot_times_clip_final(self):
        system = _pair_system(n=32)
        u0 = _constants(system, [0.0, 0.0])
        traj = solve(system, u0, EvolutionConfig(t_final=1.0, snapshot_every=0.3))
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_zero_horizon(self):
        system = _pair_system(n=32)
        u0 = _constants(system, [0.5, 0.5])
        traj = solve(system, u0, EvolutionConfig(t_final=0.0))
        assert list(traj.times) == [0.0]
        assert traj.meta["steps_total"] == 0

    def test_steps_bookkeeping(self):
        system = _pair_system(n=32)
        u0 = _constants(system, [0.0, 0.0])
        traj = solve(system, u0, EvolutionConfig(t_final=0.5, snapshot_every=0.1))
        steps = traj.meta["steps_at_snapshot"]
        assert steps[0] == 0
        assert steps[-1] == traj.meta["steps_total"]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_save_load_roundtrip(self, tmp_path):
        system = _pair_system(n=32)
        grid = system.grid
        # modest amplitude keeps gradients inside the sampled dissipation box
        u = sample(lambda x: 0.2 * np.cos(2 * np.pi * x[..., 0]), grid)
        v = sample(lambda x: 0.2 * np.sin(2 * np.pi * x[..., 0]), grid)
        traj = solve(system, [u, v], EvolutionConfig(t_final=0.2, snapshot_every=0.1))
        traj.save(tmp_path / "run")
        back = Trajectory.load(tmp_path / "run")
        assert np.array_equal(np.asarray(back.times), np.asarray(traj.times))
        for a, b in zip(back.values, traj.values):
            assert np.array_equal(a, b)
        assert back.meta["identical_hamiltonians"] == traj.meta["identical_hamiltonians"]
        assert back.grid == grid


class TestDiagnosticsHooks:
    def test_divergence_names_component_and_node(self):
        grid = Grid(dim=1, n=16)

        def poisoned(x, p):
            # finite flux everywhere except one node, which blows up
            return np.where(np.isclose(x[..., 0], 0.25), np.inf, 0.0) + 0.0 * np.sum(
                p, axis=-1
            )

        H = Hamiltonian(dim=1, bind=lambda X: (partial(poisoned, X), None), lf_alpha=1.0)
        system = HJSystem(
            hams=(H,), coupling=CouplingMatrix(1, entries=np.zeros((1, 1))), grid=grid
        )
        with pytest.raises(DivergenceError, match="component 0.*node"):
            solve(system, _constants(system, [0.0]), EvolutionConfig(t_final=0.1))

    def test_divergence_in_a_batch_names_the_member(self):
        grid = Grid(dim=1, n=16)
        # infinite where the midpoint slope passes 1: only the spiked member
        # meets it, at the nodes on either side of its spike
        H = Hamiltonian(
            dim=1,
            bind=lambda X: (lambda p: np.where(np.abs(p[..., 0]) > 1.0, np.inf, 0.0), None),
            lf_alpha=1.0,
        )
        system = HJSystem(
            hams=(H,), coupling=CouplingMatrix(1, entries=np.zeros((1, 1))), grid=grid
        )
        spike = np.zeros(16)
        spike[4] = 1.0
        members = [_constants(system, [0.0]), _constants(system, [0.5]), [GridFunction(grid, spike)]]
        with pytest.raises(DivergenceError, match=": member 2: component 0, node 3 at x"):
            solve_batch(system, members, EvolutionConfig(t_final=0.1))

    def test_lipschitz_report_on_linear_solution(self):
        grid = Grid(dim=1, n=32)
        H = make_linear_eikonal(lambda x: np.ones(np.asarray(x).shape[:-1]), dim=1)
        system = HJSystem(
            hams=(H,), coupling=CouplingMatrix(1, entries=np.zeros((1, 1))), grid=grid
        )
        traj = solve(
            system,
            [GridFunction(grid, np.zeros(32))],
            EvolutionConfig(t_final=1.0, snapshot_every=0.25),
        )
        rep = lipschitz_check(traj, c=-1.0)
        assert rep.sup_shifted <= 1e-12
        assert rep.sup_space_lipschitz <= 1e-12
        assert rep.sup_time_ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.within_cap
