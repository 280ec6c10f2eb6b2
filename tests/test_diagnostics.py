"""Oscillation functional, log transform, gap decay, and set evaluation."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from hjsys.catalog import fourier_function
from hjsys.coupling import CouplingMatrix
from hjsys.diagnostics import (
    build_report,
    component_gap_decay,
    evaluate_on_set,
    exp_transform,
    monotone_tail,
    p_eta,
    p_eta_table,
    profile_distances,
    shift_trajectory,
    undo_exp_transform,
)
from hjsys.errors import ConfigError, StructureError
from hjsys.evolution import EvolutionConfig, HJSystem, Trajectory, solve
from hjsys.grid import Grid, GridFunction, sample
from hjsys.hamiltonians import make_quadratic_eikonal

SYM = np.array([[1.0, -1.0], [-1.0, 1.0]])
F1 = {"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}
F2 = {"const": 2.0, "terms": [{"k": [1], "cos": -2.0}]}


def _traj_from_arrays(values, times, m_meta=None, n=16):
    grid = Grid(dim=1, n=n)
    meta = {"steps_at_snapshot": list(range(len(times)))}
    if m_meta:
        meta.update(m_meta)
    return Trajectory(
        grid=grid,
        times=np.asarray(times, dtype=float),
        values=[np.asarray(v, dtype=float) for v in values],
        meta=meta,
    )


def _drifting_traj(c=0.4, t_final=5.0, every=0.5, n=16):
    """One component drifting down at rate c: u(x, t) = -c t (flat profile)."""
    times = np.arange(0.0, t_final + 1e-9, every)
    values = [np.full((1, n), -c * t) for t in times]
    return _traj_from_arrays(values, times, n=n)


def _solved_pair(t_final=8.0, n=32, every=0.5):
    grid = Grid(dim=1, n=n)
    hams = tuple(
        make_quadratic_eikonal(fourier_function(f, 1), dim=1, params={"f": f})
        for f in (F1, F2)
    )
    system = HJSystem(hams=hams, coupling=CouplingMatrix(2, entries=SYM), grid=grid)
    u0 = [GridFunction(grid, np.zeros(n)) for _ in range(2)]
    traj = solve(system, u0, EvolutionConfig(t_final=t_final, snapshot_every=every))
    return system, traj


class TestOscillationFunctional:
    def test_zero_after_settling(self):
        # a perfectly settled (constant-in-time) field has no oscillation
        times = [0.0, 1.0, 2.0]
        values = [np.zeros((1, 16)) for _ in times]
        traj = _traj_from_arrays(values, times)
        for eta in (0.0, 0.1, 1.0):
            assert p_eta(traj, 0, eta, 0.0) == 0.0

    def test_linear_decay_closed_form(self):
        # phi(t) = -t: the bracket is (s - t)(1 - 2 eta), so the functional
        # equals (T - t)(1 - 2 eta) for eta < 1/2 and 0 beyond.
        times = np.arange(0.0, 5.0 + 1e-9, 0.5)
        traj = _traj_from_arrays([np.full((1, 16), -t) for t in times], times)
        assert p_eta(traj, 0, 0.25, 1.0) == pytest.approx((5.0 - 1.0) * 0.5, abs=1e-12)
        assert p_eta(traj, 0, 0.6, 1.0) == 0.0
        assert p_eta(traj, 0, 0.5, 1.0) == 0.0

    def test_rejects_negative_eta(self):
        traj = _drifting_traj()
        with pytest.raises(ConfigError):
            p_eta(traj, 0, -0.1, 0.0)

    def test_table_and_pointwise_reject_negative_or_nan_eta(self):
        traj = _drifting_traj()
        for bad in (-0.5, float("nan")):
            with pytest.raises(ConfigError, match="eta must be nonnegative"):
                p_eta_table(traj, (0.1, bad))
            with pytest.raises(ConfigError, match="eta must be nonnegative"):
                p_eta(traj, 0, bad, 0.0)

    def test_rejects_t_beyond_horizon(self):
        traj = _drifting_traj(t_final=5.0)
        with pytest.raises(ConfigError):
            p_eta(traj, 0, 0.1, 6.0)

    def test_nonincreasing_in_eta(self):
        _, traj = _solved_pair()
        c = 0.25  # any drift; monotonicity in eta holds regardless
        shifted = shift_trajectory(traj, c)
        vals = [p_eta(shifted, 0, eta, 2.0) for eta in (0.0, 0.05, 0.1, 0.3)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_table_matches_pointwise_calls(self):
        rng = np.random.default_rng(17)
        times = np.arange(0.0, 3.0 + 1e-9, 0.5)
        values = [rng.standard_normal((2, 16)) for _ in times]
        traj = _traj_from_arrays(values, times)
        etas = (0.0, 0.1, 0.4)
        rows = p_eta_table(traj, etas)
        for eta, t, val in rows:
            ref = max(p_eta(traj, i, eta, t) for i in range(2))
            assert val == pytest.approx(ref, abs=1e-12)

    def test_bounded_by_twice_tail_distance(self):
        # phi(x,t) - phi(x,s) <= d(t) + d(s) <= 2 max tail distance, and the
        # eta term only lowers the bracket
        _, traj = _solved_pair()
        from hjsys.ergodic import long_time_constant

        c = long_time_constant(traj, min_window=3.0)
        shifted = shift_trajectory(traj, c)
        dists = dict(profile_distances(traj, c))
        for t in (4.0, 5.0, 6.0):
            tail = max(d for s, d in dists.items() if s >= t - 1e-9)
            for eta in (0.05, 0.2):
                for i in range(2):
                    assert p_eta(shifted, i, eta, t) <= 2 * tail + 1e-12


class TestTransforms:
    def test_shift_trajectory_applies_per_component_drift(self):
        times = [0.0, 1.0, 2.0]
        base = np.stack([np.zeros(16), np.ones(16)])
        traj = _traj_from_arrays([base - t * np.array([[0.3], [0.7]]) for t in times], times)
        shifted = shift_trajectory(traj, (0.3, 0.7))
        for k in range(3):
            assert np.allclose(shifted.values[k], base, atol=1e-14)

    def test_exp_transform_settled_field_is_zero(self):
        # u + c t identically 1 transforms to w = log(1 + kappa) with the
        # trajectory minimum pinned so kappa = 0, hence w = 0
        times = [0.0, 0.5, 1.0]
        traj = _traj_from_arrays([np.full((1, 16), 1.0 - 0.3 * t) for t in times], times)
        w = exp_transform(traj, 0.3)
        for k in range(3):
            assert np.allclose(w.values[k], 0.0, atol=1e-14)
        assert w.meta["kappa"] == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        times = np.arange(0.0, 2.0 + 1e-9, 0.5)
        values = [rng.uniform(-1.0, 1.0, size=(2, 16)) for _ in times]
        traj = _traj_from_arrays(values, times)
        back = undo_exp_transform(exp_transform(traj, (0.2, -0.4)))
        for k in range(len(times)):
            assert np.allclose(back.values[k], traj.values[k], atol=1e-12)

    def test_undo_requires_metadata(self):
        traj = _drifting_traj()
        with pytest.raises(ConfigError):
            undo_exp_transform(traj)

    def test_transform_preserves_ordering(self):
        times = [0.0, 1.0]
        lo = np.zeros((1, 16))
        hi = np.ones((1, 16)) * 0.5
        traj = _traj_from_arrays([np.concatenate([lo, hi]), np.concatenate([lo, hi])], times)
        w = exp_transform(traj, (0.0, 0.0))
        for k in range(2):
            assert np.all(w.values[k][1] >= w.values[k][0])


class TestGapDecay:
    def _ode_traj(self, u0=(1.0, 0.0), t_final=4.0, every=0.25):
        # spatially constant components driven by u' = -Du have gap
        # Phi(t) = Phi(0) exp(-2 t) for the symmetric pair
        times = np.arange(0.0, t_final + 1e-9, every)
        vals = []
        for t in times:
            ut = scipy.linalg.expm(-t * SYM) @ np.asarray(u0)
            vals.append(np.repeat(ut[:, None], 16, axis=1))
        meta = {
            "identical_hamiltonians": True,
            "system": {"coupling": {"entries": SYM.tolist()}},
        }
        return _traj_from_arrays(vals, times, m_meta=meta)

    def test_rate_recovered_exactly_on_exponential_data(self):
        gd = component_gap_decay(self._ode_traj())
        assert gd.fitted_rate == pytest.approx(2.0, abs=1e-9)
        assert gd.coupling_rate == pytest.approx(2.0, abs=1e-12)
        assert gd.window is not None

    def test_identical_data_rate_undefined(self):
        gd = component_gap_decay(self._ode_traj(u0=(0.5, 0.5)))
        assert gd.fitted_rate is None
        assert any("initial gap is zero" in n for n in gd.notes)

    def test_requires_identical_hamiltonians_flag(self):
        traj = self._ode_traj()
        traj.meta["identical_hamiltonians"] = False
        with pytest.raises(StructureError):
            component_gap_decay(traj)

    def test_requires_two_components(self):
        with pytest.raises(StructureError):
            component_gap_decay(
                _traj_from_arrays(
                    [np.zeros((1, 16))], [0.0], m_meta={"identical_hamiltonians": True}
                )
            )

    def test_gap_bounded_by_certified_exponential(self):
        gd = component_gap_decay(self._ode_traj())
        phi0 = gd.gap_table[0][1]
        for t, phi in gd.gap_table:
            assert phi <= phi0 * np.exp(-gd.coupling_rate * t) + 1e-12


class TestTailChecks:
    def test_monotone_tail_on_increasing_field(self):
        times = np.arange(0.0, 4.0 + 1e-9, 0.5)
        traj = _traj_from_arrays([np.full((1, 16), np.sqrt(t)) for t in times], times)
        ok, worst = monotone_tail(traj, 0.0, tol=0.0)
        assert ok and worst == 0.0

    def test_monotone_tail_flags_decrease(self):
        times = np.arange(0.0, 4.0 + 1e-9, 0.5)
        traj = _traj_from_arrays([np.full((1, 16), -0.1 * t) for t in times], times)
        ok, worst = monotone_tail(traj, 0.0, tol=1e-3)
        assert not ok
        assert worst == pytest.approx(-0.05, abs=1e-12)

    def test_profile_distances_end_at_zero(self):
        _, traj = _solved_pair(t_final=4.0)
        rows = profile_distances(traj, 0.25)
        assert rows[-1][1] == 0.0
        assert all(d >= 0.0 for _, d in rows)


class TestSetEvaluation:
    def _fs(self, n=64):
        grid = Grid(dim=1, n=n)
        return grid, [
            sample(fourier_function(F1, 1), grid),
            sample(fourier_function(F2, 1), grid),
        ]

    def test_common_min_is_origin(self):
        grid, fs = self._fs()
        vs = [sample(lambda x: x[..., 0] * 0 + 2.0, grid) for _ in range(2)]
        ev = evaluate_on_set(vs, "S", fs=fs)
        assert not ev.empty
        assert ev.points == [[0.0]]
        assert ev.values[0] == [2.0]

    def test_flat_min_empty_when_levels_differ(self):
        # both sources minimize at 0 but with values 0.5 vs 0: F is empty
        grid, fs = self._fs()
        vs = [sample(lambda x: x[..., 0], grid) for _ in range(2)]
        ev = evaluate_on_set(vs, "F", fs=fs)
        assert ev.empty
        assert any("levels differ" in n for n in ev.notes)

    def test_flat_min_nonempty_for_equal_sources(self):
        grid = Grid(dim=1, n=64)
        f = sample(fourier_function(F1, 1), grid)
        vs = [sample(lambda x: np.cos(2 * np.pi * x[..., 0]), grid)]
        ev = evaluate_on_set(vs, "flat_min", fs=[f, f])
        assert not ev.empty
        assert ev.points == [[0.0]]

    def test_custom_points_interpolate(self):
        grid = Grid(dim=1, n=64)
        v = sample(lambda x: x[..., 0] * 0 + 1.5, grid)
        ev = evaluate_on_set([v], "custom", points=[[0.123]])
        assert ev.values[0][0] == pytest.approx(1.5, abs=1e-12)

    def test_custom_requires_points(self):
        grid = Grid(dim=1, n=16)
        v = sample(lambda x: x[..., 0], grid)
        with pytest.raises(ConfigError):
            evaluate_on_set([v], "custom")

    def test_unknown_kind(self):
        grid = Grid(dim=1, n=16)
        v = sample(lambda x: x[..., 0], grid)
        with pytest.raises(ConfigError):
            evaluate_on_set([v], "argmax", fs=[v])


class TestReports:
    def test_build_report_fields_and_save(self, tmp_path):
        system, traj = _solved_pair(t_final=6.0)
        from hjsys.ergodic import long_time_constant

        c = long_time_constant(traj, min_window=2.0)
        report = build_report(traj, c, gap=False)
        assert report.monotone_tail_ok
        assert report.snapshot_cadence == pytest.approx(0.5)
        assert report.profile_distances[-1][1] == 0.0
        report.save(tmp_path)
        payload = json.loads((tmp_path / "convergence.json").read_text())
        assert payload["c_used"] == list(np.asarray(c, dtype=float))
        assert (tmp_path / "profile_distances.csv").exists()
        assert (tmp_path / "p_eta.csv").exists()

    def test_build_report_with_gap_table(self, tmp_path):
        grid = Grid(dim=1, n=32)
        f = fourier_function(F1, 1)
        H = make_quadratic_eikonal(f, dim=1, params={"f": F1})
        system = HJSystem(
            hams=(H, H), coupling=CouplingMatrix(2, entries=SYM), grid=grid
        )
        u0 = [
            GridFunction(grid, 0.2 * np.cos(2 * np.pi * grid.axis_coords())),
            GridFunction(grid, np.zeros(32)),
        ]
        traj = solve(system, u0, EvolutionConfig(t_final=6.0, snapshot_every=0.25))
        report = build_report(traj, 0.0, gap=True)
        assert report.gap_table is not None
        report.save(tmp_path)
        assert (tmp_path / "gap.csv").exists()
