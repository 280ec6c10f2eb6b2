"""Mode-switching path simulation and its agreement with the PDE side."""

from __future__ import annotations

import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjsys import catalog, switching
from hjsys.coupling import validate_monotone
from hjsys.errors import ConfigError, StructureError
from hjsys.evolution import EvolutionConfig, HJSystem, solve
from hjsys.grid import Grid, GridFunction
from hjsys.switching import (
    ConstantPolicy,
    GreedyGradientPolicy,
    SwitchingProcessSpec,
    _advance,
    _one_call,
    _run_batch,
    _wrap,
    coupling_from_spec,
    estimate_value,
    estimate_values,
    hamiltonian_from_spec,
    simulate_trajectory,
)

SYM_RATES = np.array([[0.0, 1.0], [1.0, 0.0]])


def _still_spec(costs=None, terminal=None, rates=None, control=None):
    """Two modes, no drift; good for closed-form cost checks."""
    zero_b = lambda x, a: np.zeros_like(x)
    costs = costs or (lambda x, a: np.zeros(x.shape[:-1]), lambda x, a: np.ones(x.shape[:-1]))
    terminal = terminal or (lambda x: np.zeros(x.shape[:-1]), lambda x: np.zeros(x.shape[:-1]))
    return SwitchingProcessSpec(
        m=2,
        dynamics=(zero_b, zero_b),
        costs=costs,
        rates=SYM_RATES if rates is None else rates,
        control_set=np.array([[0.0]]) if control is None else control,
        terminal=terminal,
        dim=1,
    )


def _drift_spec(shift=0.0, rates=SYM_RATES):
    """Mode 0 drifts right, mode 1 drifts left; cost is x plus a shift.
    Each mode has its own dynamics and cost callable."""
    return SwitchingProcessSpec(
        m=2,
        dynamics=(
            lambda x, a: np.full_like(x, 0.3),
            lambda x, a: np.full_like(x, -0.3),
        ),
        costs=(
            lambda x, a: x[..., 0] + shift,
            lambda x, a: 1.0 - x[..., 0] + shift,
        ),
        rates=rates,
        control_set=np.array([[0.0]]),
        terminal=(lambda x: np.zeros(x.shape[:-1]), lambda x: np.zeros(x.shape[:-1])),
        dim=1,
    )


class TestSpecValidation:
    def test_negative_offdiagonal_rate(self):
        with pytest.raises(StructureError):
            _still_spec(rates=np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_nonfinite_rate(self):
        with pytest.raises(ConfigError):
            _still_spec(rates=np.array([[0.0, np.nan], [1.0, 0.0]]))

    def test_empty_control_set(self):
        with pytest.raises(ConfigError):
            _still_spec(control=np.zeros((0, 1)))

    def test_component_count_checks(self):
        zero_b = lambda x, a: np.zeros_like(x)
        with pytest.raises(ConfigError):
            SwitchingProcessSpec(
                m=2,
                dynamics=(zero_b,),
                costs=(lambda x, a: 0.0, lambda x, a: 0.0),
                rates=SYM_RATES,
                control_set=np.array([[0.0]]),
                terminal=(lambda x: 0.0, lambda x: 0.0),
            )

    def test_total_rates(self):
        spec = _still_spec(rates=np.array([[0.0, 2.5], [0.5, 0.0]]))
        assert np.allclose(spec.total_rates(), [2.5, 0.5])

    def test_lipschitz_ratio(self):
        spec = _drift_spec()
        assert spec.lipschitz_ratio_check() == 0.0  # drift independent of x

    def test_lipschitz_ratio_matches_per_action_loop(self):
        # x-dependent drifts; the check calls each mode once on a stack of
        # actions, the reference once per action.  The largest action is the
        # last one, so a check that read only the first would fall short.
        spec = SwitchingProcessSpec(
            m=2,
            dynamics=(
                lambda x, a: a * np.sin(2 * np.pi * x),
                lambda x, a: 0.5 * a * np.cos(2 * np.pi * x),
            ),
            costs=(lambda x, a: np.zeros(x.shape[:-1]),) * 2,
            rates=SYM_RATES,
            control_set=np.linspace(-0.5, 1.0, 17)[:, None],
            terminal=(lambda x: np.zeros(x.shape[:-1]),) * 2,
        )
        rng = np.random.default_rng(5)
        xs = rng.random((200, 1))
        ys = xs + rng.normal(0, 0.05, xs.shape)
        ys = ys - np.floor(ys)
        d = np.abs(xs - ys)
        d = np.minimum(d, 1 - d)
        dist = np.sqrt(np.sum(d * d, axis=1))
        keep = dist > 1e-12
        worst = 0.0
        for b in spec.dynamics:
            for a in spec.control_set[::2]:
                num = np.sqrt(np.sum((b(xs, a) - b(ys, a)) ** 2, axis=1))
                worst = max(worst, float(np.max(num[keep] / dist[keep])))
        assert spec.lipschitz_ratio_check() == worst
        assert 5.0 < worst <= 2 * np.pi + 1e-12

    @pytest.mark.parametrize("which, bad", [
        ("dynamics", lambda x, a: np.full_like(x, a[0])),
        ("cost", lambda x, a: a[0] * x[..., 0]),
        ("cost", lambda x, a: 0.5 * a[0] ** 2),  # same at the set's two ends
    ])
    def test_rejects_callables_reading_one_action_row(self, which, bad):
        # written for a single action row: a[0] is then the first path's row
        good = dict(dynamics=lambda x, a: a * np.ones_like(x), cost=lambda x, a: x[..., 0])
        fns = {**good, which: bad}
        with pytest.raises(ConfigError, match=f"mode 1 {which} must take one action row"):
            SwitchingProcessSpec(
                m=2,
                dynamics=(good["dynamics"], fns["dynamics"]),
                costs=(good["cost"], fns["cost"]),
                rates=SYM_RATES,
                control_set=np.linspace(-1.0, 1.0, 4)[:, None],
                terminal=(lambda x: np.zeros(x.shape[:-1]),) * 2,
            )

    def test_catalog_processes_pass_the_action_row_check(self):
        ball = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], SYM_RATES, 16)
        idle = catalog.idle_process([0.0, 1.0], SYM_RATES)
        assert len(ball.control_set) == 16 and len(idle.control_set) == 1

    @pytest.mark.parametrize("dt_sim", [0.0, np.inf, np.nan])
    def test_nonfinite_or_nonpositive_dt_sim(self, dt_sim):
        with pytest.raises(ConfigError, match="dt_sim must be positive and finite"):
            SwitchingProcessSpec(
                m=1,
                dynamics=(lambda x, a: np.zeros_like(x),),
                costs=(lambda x, a: np.zeros(x.shape[:-1]),),
                rates=np.zeros((1, 1)),
                control_set=np.zeros((1, 1)),
                terminal=(lambda x: np.zeros(x.shape[:-1]),),
                dt_sim=dt_sim,
            )

    def test_mode0_out_of_range(self):
        with pytest.raises(ConfigError):
            simulate_trajectory(_still_spec(), ConstantPolicy(0), [0.0], 2, 1.0, seed=0)

    def test_nonpositive_horizon(self):
        with pytest.raises(ConfigError):
            simulate_trajectory(_still_spec(), ConstantPolicy(0), [0.0], 0, 0.0, seed=0)

    @pytest.mark.parametrize(
        "bad", [dict(horizon=np.inf), dict(horizon=np.nan), dict(dt_sim=0.0),
                dict(dt_sim=np.inf), dict(x0=[np.nan]), dict(dt_sim=1e-320)]
    )
    def test_nonfinite_or_nonpositive_run_arguments(self, bad):
        # an infinite horizon or a zero step would never return
        kw = dict(x0=[0.0], mode0=0, horizon=1.0, seed=0, dt_sim=0.5)
        with pytest.raises(ConfigError):
            simulate_trajectory(_still_spec(), ConstantPolicy(0), **{**kw, **bad})


IDLE = catalog.idle_process([0.75], [[0.0]])


class TestArgumentErrors:
    """Bad arguments of a run raise a ConfigError naming the argument, and
    for estimate_values the start, never a numpy error."""

    @pytest.mark.parametrize(
        "bad, match",
        [(dict(x=[0.1, 0.2]), r"x0 must have shape \(1,\), got \(2,\)"),
         (dict(x=0.1), r"x0 must have shape \(1,\), got \(\)"),
         (dict(n_samples=100.5), "n_samples must be an integer of at least 100, got 100.5"),
         (dict(n_samples=99), "n_samples must be an integer of at least 100, got 99"),
         (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
         (dict(seed=1.0), "seed must be a nonnegative integer, got 1.0"),
         (dict(mode=0.0), r"mode must be an integer in \[0, 1\), got 0.0")],
    )
    def test_estimate_value(self, bad, match):
        kw = dict(x=[0.1], mode=0, horizon=0.5, n_samples=100, seed=1, dt_sim=0.25)
        with pytest.raises(ConfigError, match=match):
            estimate_value(IDLE, ConstantPolicy(0), **{**kw, **bad})

    @pytest.mark.parametrize(
        "bad, match",
        [(dict(x0=[0.1, 0.2]), r"x0 must have shape \(1,\), got \(2,\)"),
         (dict(x0=[[0.1]]), r"x0 must have shape \(1,\), got \(1, 1\)"),
         (dict(seed=-1), "seed must be a nonnegative integer, got -1"),
         (dict(seed=2.5), "seed must be a nonnegative integer, got 2.5")],
    )
    def test_simulate_trajectory(self, bad, match):
        kw = dict(x0=[0.1], mode0=0, horizon=0.5, seed=1, dt_sim=0.25)
        with pytest.raises(ConfigError, match=match):
            simulate_trajectory(IDLE, ConstantPolicy(0), **{**kw, **bad})

    @pytest.mark.parametrize(
        "bad, match",
        [(dict(starts=[([0.1], 0), ([0.1, 0.2], 0)]), r"start 1: x0 must have shape \(1,\)"),
         (dict(starts=[([0.1], 0), ([np.nan], 0)]), "start 1: x0 must be finite"),
         (dict(starts=[([0.1], 1), ([0.1], 0)]), r"start 0: mode must be an integer in \[0, 1\)"),
         (dict(seeds=[1, -1]), "start 1: seed must be a nonnegative integer, got -1"),
         (dict(seeds=[1.5, 2]), "start 0: seed must be a nonnegative integer, got 1.5"),
         (dict(n_samples=100.5), "n_samples must be an integer of at least 100, got 100.5"),
         (dict(starts=[], seeds=[]), "at least one start, got 0 starts and 0 seeds"),
         (dict(seeds=[1]), "one seed per start .* got 2 starts and 1 seeds"),
         (dict(seeds=[1, 2, 3]), "one seed per start .* got 2 starts and 3 seeds")],
    )
    def test_estimate_values(self, bad, match):
        kw = dict(starts=[([0.1], 0), ([0.4], 0)], horizon=0.5, n_samples=100, seeds=[1, 2],
                  dt_sim=0.25)
        with pytest.raises(ConfigError, match=match):
            estimate_values(IDLE, ConstantPolicy(0), **{**kw, **bad})


    @pytest.mark.parametrize("rates, horizon", [
        ([[0.0, 1e308], [1e308, 0.0]], 0.5),  # every clock below one ulp of the time
        ([[0.0, 1.0], [1.0, 0.0]], 1e300)])  # 10 steps, about 1e300 switches
    @pytest.mark.parametrize("run", [
        lambda spec, h: estimate_value(spec, ConstantPolicy(0), [0.1], 0, h, 100, 1, h / 10),
        lambda spec, h: simulate_trajectory(spec, ConstantPolicy(0), [0.1], 0, h, 1, h / 10),
        lambda spec, h: estimate_values(spec, ConstantPolicy(0), [([0.1], 0)], h, 100, [1],
                                        h / 10)], ids=["value", "trajectory", "values"])
    def test_switches_past_the_step_budget(self, rates, horizon, run):
        # such runs never finished; each switch splits a step
        spec = catalog.idle_process([0.0, 1.0], rates)
        message = rf"rates and horizon {re.escape(repr(horizon))}: .* expected switches per path"
        with pytest.raises(ConfigError, match=message + r" .* exceed the budget of 100,000,000"):
            run(spec, horizon)


    @pytest.mark.parametrize("rates, mode0, value", [
        ([[0.0, 2e8], [0.0, 0.0]], 0, 1.0),  # mode 1 never leaves: one switch at most
        ([[0.0, 2e8], [0.0, 0.0]], 1, 1.0),
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 2e8], [0.0, 2e8, 0.0]], 0, 0.0)])  # the cycle is out of reach
    def test_switches_that_end_at_once_are_not_refused(self, rates, mode0, value):
        # the budget took the horizon times the largest total rate, 2e8
        spec = catalog.idle_process([0.0, 1.0, 2.0][: len(rates)], rates)
        est = estimate_value(spec, ConstantPolicy(0), [0.1], mode0, 1.0, 100, 1)
        assert est.mean == pytest.approx(value, abs=1e-6)

    def test_switches_on_a_reachable_fast_cycle_are_refused(self):
        spec = catalog.idle_process([0.0, 1.0, 2.0], [[0.0, 1.0, 0.0], [0.0, 0.0, 2e8],
                                                      [0.0, 2e8, 0.0]])
        with pytest.raises(ConfigError, match=r"2e\+08 expected switches per path"):
            estimate_value(spec, ConstantPolicy(0), [0.1], 0, 1.0, 100, 1)


class TestSinglePath:
    def test_frozen_path_without_rates(self):
        # no switching and no drift: the path sits still and pays l(x0) T
        spec = _still_spec(
            costs=(lambda x, a: x[..., 0], lambda x, a: x[..., 0]),
            terminal=(lambda x: 10.0 * x[..., 0], lambda x: np.zeros(x.shape[:-1])),
            rates=np.zeros((2, 2)),
        )
        path = simulate_trajectory(
            spec, ConstantPolicy(0), [0.25], 0, horizon=2.0, seed=7, dt_sim=0.5
        )
        assert path.n_switches == 0
        assert np.allclose(path.positions, 0.25)
        assert path.cost == pytest.approx(0.25 * 2.0 + 2.5, rel=1e-14)
        assert path.times[-1] == pytest.approx(2.0)

    def test_seed_determinism(self):
        spec = _drift_spec()
        a = simulate_trajectory(spec, ConstantPolicy(0), [0.1], 0, 3.0, seed=42)
        b = simulate_trajectory(spec, ConstantPolicy(0), [0.1], 0, 3.0, seed=42)
        c = simulate_trajectory(spec, ConstantPolicy(0), [0.1], 0, 3.0, seed=43)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.modes, b.modes)
        assert a.cost == b.cost
        assert not (a.cost == c.cost and np.array_equal(a.modes, c.modes))

    def test_switch_counts_follow_exponential_clocks(self):
        # every mode leaves at rate 1, so switch counts over [0, T] are
        # Poisson(T); check the sample mean within 3 standard errors
        spec = _still_spec()
        T, n = 3.0, 4000
        counts = [
            simulate_trajectory(
                spec, ConstantPolicy(0), [0.0], 0, T, seed=s, dt_sim=T
            ).n_switches
            for s in range(n)
        ]
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1)) / np.sqrt(n)
        assert abs(mean - T) <= 3 * se

    def test_cost_shift_moves_value_not_paths(self):
        base = _drift_spec(shift=0.0)
        lifted = _drift_spec(shift=0.77)
        pa = simulate_trajectory(base, ConstantPolicy(0), [0.6], 1, 2.0, seed=11, dt_sim=1 / 64)
        pb = simulate_trajectory(lifted, ConstantPolicy(0), [0.6], 1, 2.0, seed=11, dt_sim=1 / 64)
        assert np.array_equal(pa.times, pb.times)
        assert np.array_equal(pa.positions, pb.positions)
        assert np.array_equal(pa.modes, pb.modes)
        assert pb.cost - pa.cost == pytest.approx(0.77 * 2.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_path_is_one_path_of_the_batch_loop(self, seed):
        # at rate 3 the path switches inside 1/8 steps and finishes each such
        # step from its switch time, as every path of an estimate does: its
        # cost is that of a batch of one on the same generator, bit for bit
        rates = np.array([[0.0, 3.0], [3.0, 0.0]])
        spec = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], rates, 8)
        args = (spec, ConstantPolicy(6), [0.3], 0, 1.0)
        path = simulate_trajectory(*args, seed, dt_sim=0.125)
        assert path.cost == _reference_batch(*args, 0.125, np.random.default_rng(seed), 1)[0]
        # rows at t = 0, on the 1/8 grid and at each switch, where the mode changes
        on_grid = np.isin(path.times, np.arange(9) / 8)
        assert path.times[0] == 0.0 and path.positions[0, 0] == 0.3 and path.times[-1] == 1.0
        assert np.all(np.diff(path.times) > 0) and np.sum(on_grid) == 9
        assert path.n_switches == np.sum(~on_grid) > 0
        assert np.all(path.modes[1:][~on_grid[1:]] != path.modes[:-1][~on_grid[1:]])
        assert np.all(path.actions == 6) and len(path.actions) == len(path.times)


class TestValueEstimation:
    def test_requires_enough_samples(self):
        with pytest.raises(ConfigError):
            estimate_value(_still_spec(), ConstantPolicy(0), [0.0], 0, 1.0, 99, seed=0)

    @pytest.mark.parametrize(
        "bad",
        [dict(mode=2), dict(mode=-1), dict(horizon=0.0), dict(dt_sim=0.0),
         dict(horizon=np.inf), dict(horizon=np.nan), dict(dt_sim=1e400), dict(x=[np.inf]),
         dict(dt_sim=1e-320)],
    )
    def test_rejects_out_of_range_arguments(self, bad):
        kw = dict(x=[0.0], mode=0, horizon=1.0, n_samples=200, seed=1, dt_sim=0.5)
        with pytest.raises(ConfigError):
            estimate_value(_still_spec(), ConstantPolicy(0), **{**kw, **bad})

    def test_constant_cost_is_exact(self):
        # l = kappa in both modes and b = 0: every path costs exactly
        # kappa T + u0(x0), so the spread collapses to zero
        kappa = 0.4
        spec = _still_spec(
            costs=(
                lambda x, a: np.full(x.shape[:-1], kappa),
                lambda x, a: np.full(x.shape[:-1], kappa),
            ),
            terminal=(
                lambda x: np.cos(2 * np.pi * x[..., 0]),
                lambda x: np.cos(2 * np.pi * x[..., 0]),
            ),
        )
        est = estimate_value(
            spec, ConstantPolicy(0), [0.35], 0, 2.0, 400, seed=3, dt_sim=0.25
        )
        expect = kappa * 2.0 + np.cos(2 * np.pi * 0.35)
        assert est.mean == pytest.approx(expect, abs=1e-12)
        # switch times differ per path, so summation order leaves a few ulp
        assert est.std_error <= 1e-15
        assert est.samples == 400

    @pytest.mark.parametrize("dt_sim", [0.2, 1e13])
    def test_a_step_past_the_horizon_is_one_step(self, dt_sim):
        # a constant cost rate and no switching: every path costs exactly
        # rate * horizon, also when dt_sim exceeds the horizon 1e12 times
        spec = catalog.idle_process([0.75], [[0.0]])
        est = estimate_value(spec, ConstantPolicy(0), [0.25], 0, 0.125, 100, 3, dt_sim=dt_sim)
        assert est.mean == 0.75 * 0.125 and est.std_error == 0.0

    def test_huge_dt_sim_matches_a_step_just_past_the_horizon(self):
        spec = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], SYM_RATES)
        run = lambda dt: estimate_value(spec, ConstantPolicy(0), [0.25], 0, 0.1, 200, 5, dt_sim=dt)
        # one Euler step from x = 0.25, where both running costs are at least 1.5
        assert run(1e13) == run(0.2)
        assert run(0.2).mean >= 0.15

    def test_occupation_time_closed_form(self):
        # pay 1 while in mode 1, start in mode 0, symmetric rate-1 switching:
        # E[cost] = T/2 - (1 - e^{-2T})/4
        spec = _still_spec()
        T = 2.0
        exact = T / 2 - (1 - np.exp(-2 * T)) / 4
        for n in (1000, 10_000):
            est = estimate_value(
                spec, ConstantPolicy(0), [0.0], 0, T, n, seed=2026, dt_sim=T / 4
            )
            assert abs(est.mean - exact) <= 3 * est.std_error

    def test_value_monotone_in_terminal_data(self):
        spec_lo = _still_spec()
        spec_hi = _still_spec(
            terminal=(
                lambda x: np.full(x.shape[:-1], 0.5),
                lambda x: np.full(x.shape[:-1], 0.5),
            )
        )
        lo = estimate_value(spec_lo, ConstantPolicy(0), [0.0], 0, 1.0, 500, seed=5, dt_sim=0.25)
        hi = estimate_value(spec_hi, ConstantPolicy(0), [0.0], 0, 1.0, 500, seed=5, dt_sim=0.25)
        # same seed, pathwise identical: the lift passes straight through
        assert hi.mean - lo.mean == pytest.approx(0.5, abs=1e-12)

    def test_one_start_of_estimate_values_is_estimate_value(self):
        spec = _fast_spec()
        args = (spec, _greedy(spec, 0.25))
        est = estimate_value(*args, [0.3], 1, 0.25, 300, 9, dt_sim=1 / 1024)
        (one,) = estimate_values(*args, [([0.3], 1)], 0.25, 300, [9], dt_sim=1 / 1024)
        assert one.mean == est.mean and one.std_error == est.std_error
        assert one == est

    def test_several_starts_match_separate_estimates(self):
        # five probes in one loop, as appendix-mc runs them, each bit for bit
        # its own estimate_value on its own seed
        spec = _fast_spec()
        args = (spec, _greedy(spec, 0.25))
        probes = [([0.1], 0), ([0.3], 1), ([0.5], 0), ([0.7], 1), ([0.9], 0)]
        seeds = [2026 + k for k in range(len(probes))]
        got = estimate_values(*args, probes, 0.25, 400, seeds, dt_sim=1 / 1024)
        for (x, mode), seed, one in zip(probes, seeds, got):
            assert one == estimate_value(*args, x, mode, 0.25, 400, seed, dt_sim=1 / 1024)

    def test_policy_id_recorded(self):
        est = estimate_value(
            _still_spec(), ConstantPolicy(0), [0.0], 0, 1.0, 200, seed=1, dt_sim=0.5
        )
        assert est.policy_id == "constant[0]"


def _reference_velocity_cost(spec, x, modes, a_idx):
    v = np.empty_like(x)
    c = np.empty(len(x))
    codes = np.asarray(modes) * len(spec.control_set) + np.asarray(a_idx)
    for code in np.unique(codes):
        sel = codes == code
        i, ai = divmod(int(code), len(spec.control_set))
        a = spec.control_set[ai]
        v[sel] = np.broadcast_to(
            np.asarray(spec.dynamics[i](x[sel], a), dtype=float), x[sel].shape
        )
        c[sel] = np.broadcast_to(
            np.asarray(spec.costs[i](x[sel], a), dtype=float), (int(np.sum(sel)),)
        )
    return v, c


def _reference_destinations(spec, modes, u):
    out = np.empty(len(modes), dtype=int)
    R = spec.total_rates()
    for i in np.unique(modes):
        sel = modes == i
        row = spec.rates[i].copy()
        row[i] = 0.0
        out[sel] = np.searchsorted(np.cumsum(row / R[i]), u[sel], side="right")
    return np.minimum(out, spec.m - 1)


def _one_start(spec, policy, x0, mode0, horizon, dt, rng, n):
    """The batch loop's costs of n paths from one start."""
    (costs,) = _run_batch(spec, policy, [(x0, mode0)], horizon, dt, [rng], n)
    return costs


def _reference_batch(spec, policy, x0, mode0, horizon, dt, rng, size):
    """The masked sub-step loop: every pass looks up and evaluates all paths,
    then keeps the results of the paths that move."""
    R = spec.total_rates()
    x = np.broadcast_to(
        np.atleast_1d(np.asarray(x0, dtype=float)) % 1.0, (size, spec.dim)
    ).copy()
    modes = np.full(size, int(mode0))
    cost = np.zeros(size)
    cur = np.zeros(size)
    draw = rng.exponential(size=size)
    with np.errstate(divide="ignore"):
        next_switch = np.where(R[modes] > 0, draw / R[modes], np.inf)
    for k in range(max(1, int(np.ceil(horizon / dt - 1e-12)))):
        t1 = min((k + 1) * dt, horizon)
        while True:
            seg = np.maximum(np.minimum(next_switch, t1) - cur, 0.0)
            live = seg > 0
            if np.any(live):
                a_idx = policy.action_indices(x, modes, horizon - cur)
                v, c = _reference_velocity_cost(spec, x, modes, a_idx)
                cost[live] += c[live] * seg[live]
                x[live] = (x[live] + seg[live, None] * v[live]) % 1.0
                cur += seg
            switching = (next_switch <= t1 - 1e-15) & (cur >= next_switch - 1e-15)
            if not np.any(switching):
                break
            u = rng.random(int(np.sum(switching)))
            modes[switching] = _reference_destinations(spec, modes[switching], u)
            draw = rng.exponential(size=int(np.sum(switching)))
            Rsel = R[modes[switching]]
            with np.errstate(divide="ignore"):
                next_switch[switching] = cur[switching] + np.where(
                    Rsel > 0, draw / Rsel, np.inf
                )
        cur[:] = t1
    for i in np.unique(modes):
        sel = modes == i
        cost[sel] += np.broadcast_to(
            np.asarray(spec.terminal[i](x[sel]), dtype=float), (int(np.sum(sel)),)
        )
    return cost


FAST_RATES = np.array([[0.0, 40.0], [40.0, 0.0]])
RATES_3 = np.array([[0.0, 30.0, 10.0], [5.0, 0.0, 35.0], [20.0, 20.0, 0.0]])


def _fast_spec(rates=FAST_RATES):
    """Unit-ball motion whose running cost depends on the action and on x."""
    base = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], rates, 16)
    return SwitchingProcessSpec(
        m=2,
        dynamics=base.dynamics,
        costs=tuple(
            (lambda x, a, c=c: c(x, a) + 0.5 * a[..., 0] ** 2 + a[..., 0] * x[..., 0])
            for c in base.costs
        ),
        rates=rates,
        control_set=base.control_set,
        terminal=(lambda x: np.sin(2 * np.pi * x[..., 0]), lambda x: x[..., 0]),
    )


def _greedy(spec, horizon):
    grid = Grid(dim=1, n=32)
    hams = tuple(hamiltonian_from_spec(spec, i) for i in range(spec.m))
    system = HJSystem(hams=hams, coupling=coupling_from_spec(spec), grid=grid)
    u0 = [GridFunction(grid, np.zeros(32)) for _ in range(spec.m)]
    traj = solve(system, u0, EvolutionConfig(t_final=horizon, snapshot_every=horizon / 4))
    return GreedyGradientPolicy(spec, traj)


class TestBatchLoop:
    """The batch loop evaluates only the paths that move in each pass; it
    must reproduce, bit for bit, the masked loop that evaluates every path,
    on the same single generator."""

    def _assert_matches_reference(self, spec, policy, mode0, dt, horizon=0.25, n=300, x0=(0.3,)):
        x0, seed = list(x0), 9
        est = estimate_value(spec, policy, x0, mode0, horizon, n, seed, dt_sim=dt)
        args = (spec, policy, x0, mode0, horizon, dt)
        got = _one_start(*args, np.random.default_rng(seed), n)
        ref = _reference_batch(*args, np.random.default_rng(seed), n)
        assert got.tobytes() == ref.tobytes()
        assert est.mean == float(np.mean(ref))
        assert est.std_error == float(np.std(ref, ddof=1) / np.sqrt(len(ref)))

    @pytest.mark.parametrize("dt", [1 / 1024, 0.003])
    def test_greedy_policy(self, dt):
        # at rate 40 about 12 of 300 paths switch in a 1/1024 step, so most
        # steps end with a sub-step on a few live paths
        spec = _fast_spec()
        self._assert_matches_reference(spec, _greedy(spec, 0.25), 0, dt)

    @pytest.mark.parametrize("dt", [1 / 1024, 0.003])
    def test_constant_policy(self, dt):
        self._assert_matches_reference(_fast_spec(), ConstantPolicy(5), 1, dt)

    @pytest.mark.parametrize("n", [300, 4096])
    def test_one_block(self, n):
        # one generator drives every path of an estimate, however many
        spec = _fast_spec()
        self._assert_matches_reference(spec, _greedy(spec, 0.25), 0, 1 / 1024, n=n)

    def test_single_group_batch(self):
        # mode 1 falls into mode 0 at rate 40 and mode 0 never leaves: after
        # the first steps every path plays one action in mode 0, so the full
        # passes are a single (mode, action) group
        spec = _fast_spec(np.array([[0.0, 0.0], [40.0, 0.0]]))
        self._assert_matches_reference(spec, ConstantPolicy(11), 1, 1 / 512)
        self._assert_matches_reference(spec, _greedy(spec, 0.25), 1, 1 / 512)

    def test_three_modes_with_an_absorbing_mode(self):
        # destinations are drawn from a per-mode table; mode 2 never leaves
        rates = np.array([[0.0, 30.0, 10.0], [5.0, 0.0, 35.0], [0.0, 0.0, 0.0]])
        base = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2, catalog.F1], rates, 8)
        spec = SwitchingProcessSpec(
            m=3,
            dynamics=base.dynamics,
            costs=(
                lambda x, a: x[..., 0] * a[..., 0],
                lambda x, a: np.cos(2 * np.pi * x[..., 0]) + a[..., 0],
                lambda x, a: a[..., 0] ** 2 + 0.0 * x[..., 0],
            ),
            rates=rates,
            control_set=base.control_set,
            terminal=base.terminal,
        )
        self._assert_matches_reference(spec, ConstantPolicy(2), 0, 1 / 256)

    @pytest.mark.parametrize("x0", [0.02, 0.98])
    @pytest.mark.parametrize("dt", [1 / 1024, 0.003])
    def test_one_dynamics_callable_per_mode(self, x0, dt):
        # the catalog processes share one dynamics callable across modes and
        # call it once on all the rows; here each mode has its own dynamics
        # and cost, gathered and scattered per mode.  Starting next to 0 or
        # 1, the paths of one mode wrap around the torus.
        spec = _drift_spec(0.25, FAST_RATES)
        self._assert_matches_reference(spec, ConstantPolicy(0), 0, dt, x0=(x0,))

    def test_callables_shared_by_some_modes(self):
        # modes 0 and 2 share a dynamics callable and modes 0 and 1 a cost:
        # neither role has one callable for every mode, so both run per mode
        base = _fast_spec()

        def swirl(x, a):
            return a * np.cos(2 * np.pi * x)

        spec = SwitchingProcessSpec(
            m=3,
            dynamics=(base.dynamics[0], swirl, base.dynamics[0]),
            costs=(base.costs[0], base.costs[0], base.costs[1]),
            rates=RATES_3,
            control_set=base.control_set,
            terminal=base.terminal + (base.terminal[0],),
        )
        self._assert_matches_reference(spec, ConstantPolicy(12), 2, 1 / 512, x0=(0.95,))

    def test_one_call_per_distinct_callable(self):
        # both modes present: the shared dynamics runs once on every row,
        # each mode's cost once on that mode's rows
        calls = []

        def counted(name, fn):
            def wrapped(x, a):
                calls.append((name, len(x)))
                return fn(x, a)
            return wrapped

        base = _fast_spec()
        dynamics = counted("dynamics", base.dynamics[0])
        spec = SwitchingProcessSpec(
            m=2,
            dynamics=(dynamics, dynamics),
            costs=tuple(counted(f"cost{i}", c) for i, c in enumerate(base.costs)),
            rates=FAST_RATES,
            control_set=base.control_set,
            terminal=base.terminal,
        )
        x = np.linspace(0.0, 1.0, 10, endpoint=False)[:, None]
        modes = np.array([0, 1, 1, 0, 1, 1, 1, 0, 0, 1])
        seg = np.full(10, 0.01)
        seg[3] = 0.0  # a path that does not move is neither looked up nor evaluated
        calls.clear()
        roles = [_one_call(spec.dynamics), _one_call(spec.costs)]
        _advance(spec, roles, ConstantPolicy(4), x, modes, np.zeros(10), seg, 0.5)
        assert sorted(calls) == [("cost0", 3), ("cost1", 6), ("dynamics", 9)]

    @pytest.mark.parametrize("n", [300, 4096])
    @pytest.mark.parametrize("dt", [1 / 1024, 0.003])
    @pytest.mark.parametrize("policy", ["greedy", "constant"])
    @pytest.mark.parametrize(
        "fs, rates",
        [([catalog.F1, catalog.F2], FAST_RATES), ([catalog.F1, catalog.F2, catalog.F1], RATES_3)],
        ids=["F1/F2", "F1/F2/F1"],
    )
    def test_catalog_costs_are_one_stacked_call(self, fs, rates, policy, dt, n):
        # the catalog sources differ only in their coefficients, so one
        # Fourier call with coefficients taken by mode serves every path
        spec = catalog.unit_ball_eikonal_process(fs, rates, 16)
        assert _one_call(spec.costs) is not None
        policy = _greedy(spec, 0.25) if policy == "greedy" else ConstantPolicy(11)
        self._assert_matches_reference(spec, policy, 1, dt, n=n)

    @pytest.mark.parametrize(
        "other",
        [{"const": 2.0, "terms": [{"k": [1], "cos": -2.0, "sin": 0.5}]},
         {"const": 2.0, "terms": [{"k": [2], "cos": -2.0}]},
         {"const": 2.0, "terms": [{"k": [1], "cos": 0.0}]}],
        ids=["sin term", "other frequency", "zero coefficient"],
    )
    def test_costs_of_another_structure_fall_back(self, other):
        # a term the other mode lacks, or skips as zero, is not stacked:
        # each mode's cost runs on its own rows
        spec = catalog.unit_ball_eikonal_process([catalog.F1, other], FAST_RATES, 16)
        assert _one_call(spec.costs) is None
        self._assert_matches_reference(spec, _greedy(spec, 0.25), 0, 1 / 1024)

    def test_keywords_that_do_not_compare_fall_back(self):
        # two-entry arrays as frequencies (x.k then sums x twice) make the
        # modes' terms fail to compare with ==, so each mode runs on its rows
        base = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], FAST_RATES, 16)
        costs = tuple(
            partial(catalog.fourier_series, coef=c.keywords["coef"],
                    terms=tuple((np.array(k * 2), i, j) for k, i, j in c.keywords["terms"]))
            for c in base.costs
        )
        spec = SwitchingProcessSpec(
            m=2, dynamics=base.dynamics, costs=costs, rates=FAST_RATES,
            control_set=base.control_set, terminal=base.terminal,
        )
        assert _one_call(spec.costs) is None
        self._assert_matches_reference(spec, ConstantPolicy(3), 0, 1 / 1024)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_catalog_process_never_groups_by_mode(self, monkeypatch, stacked):
        other = catalog.F2 if stacked else {"const": 2.0, "terms": [{"k": [1], "sin": 1.0}]}
        spec = catalog.unit_ball_eikonal_process([catalog.F1, other], FAST_RATES, 16)
        policy = _greedy(spec, 0.25)

        def forbidden(*args, **kwargs):
            raise AssertionError("mode grouping reached")

        monkeypatch.setattr(switching, "_per_callable", forbidden)
        monkeypatch.setattr(np, "bincount", forbidden)
        run = lambda: estimate_value(spec, policy, [0.3], 0, 0.25, 300, 9, dt_sim=1 / 1024)
        if stacked:
            assert run().samples == 300
        else:
            with pytest.raises(AssertionError, match="mode grouping reached"):
                run()


class _ChosenDraws:
    """Stands in for a generator: the first ``exponential`` call returns the
    chosen draws, every later draw comes from a seeded generator."""

    def __init__(self, first, seed=3):
        self._first, self._rng = np.asarray(first, dtype=float), np.random.default_rng(seed)

    def exponential(self, size):
        if self._first is None:
            return self._rng.exponential(size=size)
        out, self._first = self._first, None
        assert out.shape == (size,)
        return out

    def random(self, size):
        return self._rng.random(size)


def _wavy_spec(rates, dim=1):
    """Distinct x-dependent dynamics and costs per mode, in any dimension."""
    m = len(rates)
    return SwitchingProcessSpec(
        m=m,
        dynamics=tuple(
            (lambda x, a, i=i: a * np.cos(2 * np.pi * (x + 0.1 * i))) for i in range(m)
        ),
        costs=tuple(
            (lambda x, a, i=i: np.sin(2 * np.pi * x[..., 0]) * (1 + i) + a[..., -1] ** 2
             + 0.5 * x[..., -1])
            for i in range(m)
        ),
        rates=rates,
        control_set=np.linspace(-1.0, 1.0, 5)[:, None] * np.ones(dim),
        terminal=tuple((lambda x, i=i: np.cos(2 * np.pi * x[..., -1]) + i) for i in range(m)),
        dim=dim,
    )


class _PointwisePolicy:
    """An action that depends on the position, the mode and the time to go,
    row by row, so the cohort's copies must agree with every path."""

    policy_id = "pointwise"

    def action_indices(self, x, modes, time_to_go):
        ttg = np.broadcast_to(time_to_go, np.shape(modes))
        return (np.rint(x[:, 0] * 7).astype(int) + modes + (ttg > 0.1)) % 5


class TestCohortEdges:
    """Paths share the cohort row until their first clock rings.  Against
    the masked reference loop on the same chosen first clocks, the costs
    must agree bit for bit where a clock meets a step end, rings at once,
    never rings or rings past the horizon."""

    # total rate 4 in every mode, so a draw d gives the clock d / 4 exactly
    RATES = np.array([[0.0, 4.0], [4.0, 0.0]])

    def _assert_matches(self, spec, first_clocks, horizon, dt, mode0=0, x0=(0.3,), policy=None):
        draws = np.asarray(first_clocks, dtype=float) * 4.0
        args = (spec, policy or _PointwisePolicy(), list(x0), mode0, horizon, dt)
        got = _one_start(*args, _ChosenDraws(draws), len(draws))
        ref = _reference_batch(*args, _ChosenDraws(draws), len(draws))
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "shift", [0.0, -5e-16, 5e-16], ids=["on a step end", "5e-16 below", "5e-16 above"]
    )
    def test_first_clock_at_a_step_end(self, shift):
        # dt = 1/8: clocks at 1/8, 2/8 and 5/8 (plus the shift) among plain ones
        clocks = np.linspace(0.01, 0.99, 300)
        clocks[[7, 100, 200]] = np.array([1, 2, 5]) / 8 + shift
        self._assert_matches(_wavy_spec(self.RATES), clocks, 1.0, 1 / 8)

    def test_first_clock_at_zero(self):
        clocks = np.linspace(0.0, 0.4, 200)
        clocks[[50, 199]] = 0.0
        self._assert_matches(_wavy_spec(self.RATES), clocks, 0.5, 1 / 16)

    def test_first_clocks_past_the_horizon(self):
        # no path switches: every cost is the cohort's
        spec = _wavy_spec(self.RATES)
        clocks = np.linspace(0.5, 3.0, 150)
        self._assert_matches(spec, clocks, 0.5, 1 / 16)
        got = _one_start(spec, _PointwisePolicy(), [0.3], 0, 0.5, 1 / 16, _ChosenDraws(clocks * 4), 150)
        assert np.all(got == got[0])

    def test_absorbing_start_mode(self):
        # mode 1 never leaves, so no first clock rings, whatever was drawn
        rates = np.array([[0.0, 4.0], [0.0, 0.0]])
        self._assert_matches(_wavy_spec(rates), np.linspace(0.01, 1.0, 120), 0.5, 1 / 16, mode0=1)

    @pytest.mark.parametrize("clock", [0.0, 0.125, 0.2, 0.4])
    def test_one_path(self, clock):
        self._assert_matches(_wavy_spec(self.RATES), [clock], 0.3, 1 / 8)

    def test_step_that_does_not_divide_the_horizon(self):
        # horizon 0.3 with dt 1/8: the last step ends at the horizon, 0.05 long
        clocks = np.concatenate([np.linspace(0.0, 0.35, 250), [0.25, 0.3 - 5e-16, 0.3]])
        self._assert_matches(_wavy_spec(self.RATES, dim=2), clocks, 0.3, 1 / 8, x0=(0.3, 0.9))

    def test_clocks_between_the_last_step_end_and_the_horizon(self):
        # horizon / dt is 3 + 8e-14, so the loop takes 3 steps and stops 1e-14
        # short of the horizon: the 200 clocks rung in between never switch
        # and never join the prefix
        clocks = np.concatenate([np.linspace(0.0, 0.37, 130), np.full(200, 0.375 + 5e-15)])
        self._assert_matches(_wavy_spec(self.RATES), clocks, 0.375 + 1e-14, 1 / 8)

    def test_more_switching_paths_than_one_block(self):
        # 600 paths, nearly all ringing in the first steps: the prefix grows
        # past several blocks and the switch rounds hold many rows
        spec = _wavy_spec(np.array([[0.0, 4.0, 0.0], [0.0, 0.0, 4.0], [4.0, 0.0, 0.0]]))
        clocks = np.random.default_rng(1).exponential(size=600) / 40.0
        self._assert_matches(spec, clocks, 0.25, 1 / 64)

    @given(
        data=st.data(),
        dim=st.sampled_from([1, 2]),
        n=st.integers(1, 160),
        dt=st.sampled_from([1 / 64, 1 / 16, 0.03, 0.1, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_matches_the_reference(self, data, dim, n, dt, seed):
        m = data.draw(st.integers(1, 3))
        rate = st.sampled_from([0.0, 0.5, 3.0, 40.0])
        rates = np.array([[data.draw(rate) for _ in range(m)] for _ in range(m)])
        x0 = [data.draw(st.floats(-1.5, 2.5)) for _ in range(dim)]
        mode0 = data.draw(st.integers(0, m - 1))
        spec = _wavy_spec(rates, dim)
        args = (spec, _PointwisePolicy(), x0, mode0, 0.25, dt)
        got = _one_start(*args, np.random.default_rng(seed), n)
        ref = _reference_batch(*args, np.random.default_rng(seed), n)
        assert got.tobytes() == ref.tobytes()

    def test_first_clocks_that_tie_across_starts(self):
        # dt = 1/8: the starts share clocks on the step ends 1/8, 2/8 and 5/8
        # (start 0 twice at 1/8) and every clock of their common linspace,
        # so tied clocks of different starts must get rows of their own,
        # the lower start first, and move as their own paths do
        clocks = [np.linspace(0.01, 0.99, 300) for _ in range(3)]
        clocks[0][[7, 8]] = 1 / 8
        for c in clocks:
            c[[100, 150, 200]] = np.array([1, 2, 5]) / 8
        clocks[2][[20, 30]] = clocks[1][[20, 30]] = 0.0
        spec = _wavy_spec(self.RATES)
        starts = [([0.3], 0), ([0.3], 0), ([0.8], 1)]
        draws = lambda: [_ChosenDraws(c * 4.0, seed=k) for k, c in enumerate(clocks)]
        policy = _PointwisePolicy()
        policy.seen = []
        policy.action_indices = lambda x, *args: (
            policy.seen.append(x[:, 0].copy()) or _PointwisePolicy.action_indices(policy, x, *args)
        )
        got = list(_run_batch(spec, policy, starts, 1.0, 1 / 8, draws(), 300))
        for (x0, mode0), rng, costs in zip(starts, draws(), got):
            ref = _reference_batch(spec, _PointwisePolicy(), x0, mode0, 1.0, 1 / 8, rng, 300)
            assert costs.tobytes() == ref.tobytes()
        # the first two starts share x0 and mode0 but not their later draws
        assert got[0].tobytes() != got[1].tobytes()
        # the first pass moves the three cohort rows, then (the clocks at 0
        # do not move) the rows of the first 7 clocks of the linspace, each
        # tied across the three starts, in start order
        assert policy.seen[0][:24].tolist() == [0.3, 0.3, 0.8] * 8

    def test_no_pass_is_longer_than_one_start_alone(self):
        # five starts hold all their rows at once, but a pass looks up at
        # most the prefix that the start with the most switching paths fills
        # alone, so their temporaries are those of one start
        spec = _wavy_spec(self.RATES)
        starts = [([0.1 * k], k % 2) for k in range(5)]
        rngs = lambda: [np.random.default_rng(k) for k in range(5)]
        policy = _PointwisePolicy()
        policy.rows = []
        policy.action_indices = lambda x, *args: (
            policy.rows.append(len(x)) or _PointwisePolicy.action_indices(policy, x, *args)
        )
        list(_run_batch(spec, policy, starts, 0.25, 1 / 64, rngs(), 200))
        switched = [int(np.sum(rng.exponential(size=200) / 4.0 < 0.25)) for rng in rngs()]
        assert max(policy.rows) <= 5 + max(switched) < 5 + sum(switched)

    @given(
        data=st.data(),
        dim=st.sampled_from([1, 2]),
        n=st.integers(1, 120),
        dt=st.sampled_from([1 / 64, 1 / 16, 0.03, 0.1, 0.3]),
        n_starts=st.integers(1, 4),
    )
    @settings(max_examples=30)
    def test_each_start_matches_its_own_reference(self, data, dim, n, dt, n_starts):
        # the starts share the spec and the loop, each with its own x0, mode0
        # and generator; a small seed pool makes starts with equal first
        # clocks, and an absorbing mode or zero rates start no clock at all
        m = data.draw(st.integers(1, 3))
        rate = st.sampled_from([0.0, 0.5, 3.0, 40.0])
        rates = np.array([[data.draw(rate) for _ in range(m)] for _ in range(m)])
        if data.draw(st.booleans()):
            rates[data.draw(st.integers(0, m - 1))] = 0.0
        spec = _wavy_spec(rates, dim)
        point = st.lists(st.floats(-1.5, 2.5), min_size=dim, max_size=dim)
        starts = [(data.draw(point), data.draw(st.integers(0, m - 1))) for _ in range(n_starts)]
        seed = st.one_of(st.integers(0, 2), st.integers(0, 2**32 - 1))
        seeds = [data.draw(seed) for _ in range(n_starts)]
        rngs = [np.random.default_rng(s) for s in seeds]
        got = list(_run_batch(spec, _PointwisePolicy(), starts, 0.25, dt, rngs, n))
        assert len(got) == n_starts
        for (x0, mode0), s, costs in zip(starts, seeds, got):
            ref = _reference_batch(spec, _PointwisePolicy(), x0, mode0, 0.25, dt,
                                   np.random.default_rng(s), n)
            assert costs.tobytes() == ref.tobytes()


class TestWrap:
    """Positions are wrapped with y - floor(y), which must equal y % 1.0
    bit for bit on every finite input."""

    def test_matches_remainder_on_uniform_draws(self):
        y = np.random.default_rng(11).uniform(-3.0, 4.0, 1_000_000)
        assert _wrap(y).tobytes() == (y % 1.0).tobytes()

    def test_matches_remainder_at_the_edges(self):
        tiny = np.nextafter(0.0, 1.0)  # 5e-324, the smallest subnormal
        y = np.array(
            [-0.0, 0.0, 1.0, -1.0, 3.0, -3.0, 1e-300, -1e-300, 1 - 2.0**-53, -(1 - 2.0**-53),
             1e17, -1e17, -tiny, tiny]
        )
        assert _wrap(y).tobytes() == (y % 1.0).tobytes()
        # -0.0 wraps to +0.0, and a tiny negative rounds up to 1.0 both ways
        assert not np.signbit(_wrap(y)[0])
        assert _wrap(y)[-2] == 1.0

    def test_non_finite_stays_non_finite(self):
        with np.errstate(invalid="ignore"):
            assert not np.any(np.isfinite(_wrap(np.array([np.nan, np.inf, -np.inf]))))


class TestPdeBridge:
    def _unit_ball_spec(self, f_params=None):
        # dx/dt = a with |a| <= 1 discretized to 64 points, cost f(x):
        # the PDE Hamiltonian is |p| - f(x)
        f = lambda x: 1.5 - np.cos(2 * np.pi * x[..., 0])
        acts = np.linspace(-1.0, 1.0, 64)[:, None]
        return SwitchingProcessSpec(
            m=2,
            dynamics=(lambda x, a: a * np.ones_like(x), lambda x, a: a * np.ones_like(x)),
            costs=(lambda x, a: f(x), lambda x, a: f(x)),
            rates=SYM_RATES,
            control_set=acts,
            terminal=(lambda x: np.zeros(x.shape[:-1]), lambda x: np.zeros(x.shape[:-1])),
            dim=1,
        )

    def test_matches_linear_eikonal(self):
        spec = self._unit_ball_spec()
        H = hamiltonian_from_spec(spec, 0)
        xs = np.linspace(0, 1, 13)[:, None]
        for pv in (-2.0, -0.5, 0.0, 0.7, 1.9):
            p = np.full((13, 1), pv)
            ref = abs(pv) - (1.5 - np.cos(2 * np.pi * xs[:, 0]))
            assert np.allclose(H(xs, p), ref, atol=1e-12)

    def test_direction_resolution_bound_2d(self):
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        spec = SwitchingProcessSpec(
            m=1,
            dynamics=(lambda x, a: a * np.ones_like(x),),
            costs=(lambda x, a: np.zeros(x.shape[:-1]),),
            rates=np.zeros((1, 1)),
            control_set=dirs,
            terminal=(lambda x: np.zeros(x.shape[:-1]),),
            dim=2,
        )
        H = hamiltonian_from_spec(spec, 0)
        rng = np.random.default_rng(8)
        x = rng.random((40, 2))
        p = rng.uniform(-2, 2, (40, 2))
        got = H(x, p)
        pn = np.sqrt(np.sum(p * p, axis=-1))
        gap_bound = 2 * (1 - np.cos(np.pi / 64)) * pn
        assert np.all(got <= pn + 1e-12)
        assert np.all(got >= pn - gap_bound - 1e-12)

    def test_single_action_is_linear(self):
        spec = _drift_spec()
        H = hamiltonian_from_spec(spec, 0)
        x = np.array([[0.2]])
        for pv in (-1.0, 0.0, 2.0):
            expect = -0.3 * pv - 0.2
            assert np.isclose(H(x, np.array([[pv]]))[0], expect, atol=1e-13)

    def test_unit_ball_hamiltonian_is_coercive(self):
        H = hamiltonian_from_spec(self._unit_ball_spec(), 0)
        assert "coercive" in H.class_tags

    def test_unit_ball_speed_bound(self):
        # lf_alpha is 1.05 times the largest |b| over the actions and probe points
        ball = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], SYM_RATES)
        for spec in (self._unit_ball_spec(), ball):
            for i in range(2):
                assert hamiltonian_from_spec(spec, i).lf_alpha == 1.05

    def test_idle_hamiltonian_not_coercive(self):
        H = hamiltonian_from_spec(_still_spec(), 0)
        assert "coercive" not in H.class_tags

    def test_mode_out_of_range(self):
        with pytest.raises(ConfigError):
            hamiltonian_from_spec(_still_spec(), 5)

    def test_coupling_from_rates(self):
        D = coupling_from_spec(self._unit_ball_spec())
        assert np.array_equal(D.entries, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        ok, _ = validate_monotone(D)
        assert ok

    def test_greedy_tables_match_per_action_loop(self):
        # the policy scores all actions at once from the Hamiltonian's action
        # tables; the reference scores one action at a time.  The running
        # cost depends on the action, so both terms of the score matter.
        base = catalog.unit_ball_eikonal_process([catalog.F1, catalog.F2], SYM_RATES, 16)
        spec = SwitchingProcessSpec(
            m=2,
            dynamics=base.dynamics,
            costs=tuple(
                (lambda x, a, c=c: c(x, a) + 0.5 * a[..., 0] ** 2) for c in base.costs
            ),
            rates=SYM_RATES,
            control_set=base.control_set,
            terminal=base.terminal,
        )
        grid = Grid(dim=1, n=64)
        hams = tuple(hamiltonian_from_spec(spec, i) for i in range(2))
        system = HJSystem(hams=hams, coupling=coupling_from_spec(spec), grid=grid)
        u0 = [GridFunction(grid, np.zeros(64)) for _ in range(2)]
        traj = solve(system, u0, EvolutionConfig(t_final=0.5, snapshot_every=0.125))
        policy = GreedyGradientPolicy(spec, traj)
        nodes = grid.nodes()
        for k in range(len(traj.times)):
            for i in range(2):
                u = traj.values[k][i]
                grad = ((np.roll(u, -1) - np.roll(u, 1)) / (2 * grid.h))[:, None]
                scores = np.empty((len(nodes), len(spec.control_set)))
                for ai, a in enumerate(spec.control_set):
                    b = np.broadcast_to(spec.dynamics[i](nodes, a), nodes.shape)
                    scores[:, ai] = -np.sum(b * grad, axis=1) - spec.costs[i](nodes, a)
                assert np.array_equal(policy._tables[k, i], np.argmax(scores, axis=1))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_greedy_lookup_at_one_and_off_the_torus(self, dim):
        # the nearest node is rint(x n) modulo n per axis: x = 1.0 (which
        # _wrap can return) reads node 0, as do points off [0, 1)
        n, grid = 8, Grid(dim=dim, n=8)
        spec = _wavy_spec(SYM_RATES, dim)
        values = np.random.default_rng(4).random((3, 2) + grid.shape)
        traj = SimpleNamespace(grid=grid, times=np.array([0.0, 0.25, 0.5]), values=values)
        policy = GreedyGradientPolicy(spec, traj)
        coords = [1.0, 0.0, 1 - 1e-17, 0.9999, -1e-17, -0.3, -1.0, 1.7, 3.06, -2.49, 0.5625]
        x = np.array(coords)[:, None] * np.ones(dim)
        if dim == 2:
            x[:, 1] = np.roll(coords, 3)
        modes = np.arange(len(x)) % 2
        ttg = np.linspace(0.0, 0.5, len(x))
        idx = np.rint(x * n).astype(int) % n
        node = idx[:, 0] if dim == 1 else idx[:, 0] * n + idx[:, 1]
        expect = policy._tables[policy._snapshot(ttg), modes, node]
        assert np.array_equal(policy.action_indices(x, modes, ttg), expect)
        for k in range(len(x)):
            assert policy.action_indices(x[k : k + 1], modes[k : k + 1], 0.3) == \
                policy._tables[policy._snapshot(0.3), modes[k], node[k]]

    def test_greedy_policy_runs_against_pde_solution(self):
        spec = self._unit_ball_spec()
        grid = Grid(dim=1, n=64)
        hams = tuple(hamiltonian_from_spec(spec, i) for i in range(2))
        system = HJSystem(hams=hams, coupling=coupling_from_spec(spec), grid=grid)
        u0 = [GridFunction(grid, np.zeros(64)) for _ in range(2)]
        traj = solve(system, u0, EvolutionConfig(t_final=1.0, snapshot_every=0.25))
        policy = GreedyGradientPolicy(spec, traj)
        acts = policy.action_indices(
            np.array([[0.1], [0.6]]), np.array([0, 1]), np.array([0.5, 0.5])
        )
        assert acts.shape == (2,)
        assert np.all((0 <= acts) & (acts < len(spec.control_set)))
        est = estimate_value(
            spec, policy, [0.3], 0, 1.0, 300, seed=4, dt_sim=1 / 64
        )
        assert np.isfinite(est.mean)
        assert est.policy_id == "greedy-gradient"
