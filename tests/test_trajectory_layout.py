"""One snapshot array per trajectory, and the time-axis reductions over it.

``Trajectory.values`` is one float array shaped (K, m) + grid.shape.  The
diagnostics reduce over its time axis; each is checked here on raw bytes
against the per-snapshot loop it replaced, kept below as a reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from hjsys.catalog import build_hamiltonian
from hjsys.coupling import CouplingMatrix
from hjsys.diagnostics import (
    component_gap_decay,
    exp_transform,
    monotone_tail,
    p_eta_table,
    profile_distances,
    shift_trajectory,
    undo_exp_transform,
)
from hjsys.ergodic import long_time_constant
from hjsys.evolution import (
    EvolutionConfig,
    HJSystem,
    Trajectory,
    comparison_check,
    lipschitz_check,
    solve,
    solve_batch,
)
from hjsys.grid import Grid, GridFunction, diff_arrays, sample

C = np.array([0.3, -0.7, 1.1])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same(a, b) -> bool:
    """Equal Python results; repr tells -0.0 from 0.0."""
    return repr(a) == repr(b)


def _random_traj(dim, K=9, m=3, seed=0):
    grid = Grid(dim, 12 if dim == 1 else 8)
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, K - 1))])
    values = rng.normal(size=(K, m) + grid.shape) - 0.3 * times.reshape((-1,) + (1,) * (dim + 1))
    meta = {"identical_hamiltonians": True, "dt": 0.01, "steps_at_snapshot": list(range(K))}
    return Trajectory(grid, times, list(values), meta)


def _solved_pair(dim):
    grid = Grid(dim, 16 if dim == 1 else 8)
    f = {"const": 1.5, "terms": [{"k": [1] * dim, "cos": -1.0}]}
    ham = build_hamiltonian("quadratic_eikonal", {"f": f}, dim=dim)
    entries = np.array([[1.0, -1.0], [-1.0, 1.0]])
    system = HJSystem(hams=(ham, ham), coupling=CouplingMatrix.constant(entries), grid=grid)
    u0 = [sample(lambda x: 0.2 * np.cos(2 * np.pi * x[..., 0]), grid),
          GridFunction(grid, np.full(grid.shape, 0.5))]
    return solve(system, u0, EvolutionConfig(t_final=3.0, snapshot_every=0.25))


TRAJECTORIES = {
    "random-1d": lambda: _random_traj(1),
    "random-2d": lambda: _random_traj(2, seed=1),
    "solved-1d": lambda: _solved_pair(1),
    "solved-2d": lambda: _solved_pair(2),
}


@pytest.fixture(params=sorted(TRAJECTORIES))
def traj(request):
    return TRAJECTORIES[request.param]()


# the per-snapshot loops the time-axis reductions replaced


def _ref_shifted(traj, cv, k):
    shape = (traj.m,) + (1,) * traj.grid.dim
    return traj.values[k] + cv.reshape(shape) * float(traj.times[k])


def _ref_comparison(traj_u, traj_v):
    rhs = max(0.0, float(np.max(traj_u.values[0] - traj_v.values[0])))
    return [float(np.max(traj_u.values[k] - traj_v.values[k])) - rhs
            for k in range(len(traj_u.times))]


def _ref_lipschitz(traj, c):
    cvec = np.broadcast_to(np.asarray(c, dtype=float), (traj.m,))
    sup_shift = sup_lip = sup_rate = 0.0
    for k, t in enumerate(traj.times):
        shifted = traj.values[k] + cvec.reshape((-1,) + (1,) * traj.grid.dim) * float(t)
        sup_shift = max(sup_shift, float(np.max(np.abs(shifted))))
        dminus, _ = diff_arrays(traj.values[k], traj.grid)
        sup_lip = max(sup_lip, float(np.max(np.abs(dminus))))
        if k:
            dtk = float(traj.times[k] - traj.times[k - 1])
            sup_rate = max(
                sup_rate, float(np.max(np.abs(traj.values[k] - traj.values[k - 1]))) / dtk
            )
    return sup_shift, sup_lip, sup_rate


def _ref_exp(traj, cv):
    shifted = [_ref_shifted(traj, cv, k) for k in range(len(traj.times))]
    kappa = 1.0 - min(float(np.min(s)) for s in shifted)
    return [np.log(s + kappa) for s in shifted], kappa


def _ref_undo(traj_w):
    kappa = float(traj_w.meta["kappa"])
    cv = np.asarray(traj_w.meta["drift_shift"], dtype=float)
    shape = (traj_w.m,) + (1,) * traj_w.grid.dim
    return [np.exp(traj_w.values[k]) - kappa - cv.reshape(shape) * float(traj_w.times[k])
            for k in range(len(traj_w.times))]


def _ref_p_eta_table(traj, etas, ts=None, components=None):
    times = np.asarray(traj.times, dtype=float)
    K = len(times)
    if components is None:
        components = range(traj.m)
    kidx = list(range(K)) if ts is None else [int(np.searchsorted(times, t - 1e-9)) for t in ts]
    gap = np.full((len(components), K, K), -np.inf)
    for ci, i in enumerate(components):
        flat = np.stack([traj.values[k][i].ravel() for k in range(K)])
        for k in range(K):
            gap[ci, k, k:] = np.max(flat[k][None, :] - flat[k:], axis=1)
    rows = []
    for eta in etas:
        for k in kidx:
            lag = times[k:] - times[k]
            val = max(
                float(np.max(gap[ci, k, k:] - 2 * float(eta) * lag))
                for ci in range(len(components))
            )
            rows.append((float(eta), float(times[k]), max(0.0, val)))
    return rows


def _ref_gaps(traj):
    pairs = [(i, j) for i in range(traj.m) for j in range(i + 1, traj.m)]
    return np.asarray(
        [max(float(np.max(np.abs(v[i] - v[j]))) for i, j in pairs) for v in traj.values]
    )


def _ref_monotone_worst(traj, cv):
    k_start = max(0, int(np.ceil(0.75 * (len(traj.times) - 1))))
    worst = 0.0
    for k in range(k_start, len(traj.times) - 1):
        inc = float(np.min(_ref_shifted(traj, cv, k + 1) - _ref_shifted(traj, cv, k)))
        worst = min(worst, inc)
    return worst


def _ref_profile_distances(traj, cv):
    last = _ref_shifted(traj, cv, len(traj.times) - 1)
    return [(float(traj.times[k]), float(np.max(np.abs(_ref_shifted(traj, cv, k) - last))))
            for k in range(len(traj.times))]


def _ref_long_time_constant(traj, min_window):
    times = np.asarray(traj.times, dtype=float)
    idx = traj.grid.node_index(np.zeros(traj.grid.dim))
    sel = times >= times[-1] - 0.5 * (times[-1] - times[0]) - 1e-12
    out = np.empty(traj.m)
    for i in range(traj.m):
        ys = np.array([-traj.values[k][i][idx] for k in np.flatnonzero(sel)])
        out[i] = np.polyfit(times[sel], ys, 1)[0]
    return out


def _c(traj):
    return C[: traj.m]


def test_values_is_one_float_array(traj):
    assert isinstance(traj.values, np.ndarray) and traj.values.dtype == np.float64
    assert traj.values.shape == (len(traj.times), traj.m) + traj.grid.shape
    assert _same_bits(traj.values[-1][1], traj.values[-1, 1])
    assert _same_bits(traj.component(1, 2).values, traj.values[2, 1])


def test_a_list_of_snapshots_is_stacked():
    grid = Grid(1, 8)
    snaps = [np.full((2, 8), k, dtype=int) for k in range(3)]
    traj = Trajectory(grid, [0, 1, 2], snaps)
    assert _same_bits(traj.values, np.stack(snaps).astype(float))
    assert _same_bits(traj.times, np.array([0.0, 1.0, 2.0]))


def test_shift_is_the_per_snapshot_shift(traj):
    cv = _c(traj)
    want = [_ref_shifted(traj, cv, k) for k in range(len(traj.times))]
    assert _same_bits(traj.shifted(cv), want)
    assert _same_bits(shift_trajectory(traj, cv).values, want)
    # one constant for every component
    scalar = [_ref_shifted(traj, np.full(traj.m, 0.4), k) for k in range(len(traj.times))]
    assert _same_bits(traj.shifted(0.4), scalar)


def test_exp_transform_and_its_inverse(traj):
    cv = _c(traj)
    w = exp_transform(traj, cv)
    want, kappa = _ref_exp(traj, cv)
    assert _same_bits(w.values, want) and _same(w.meta["kappa"], kappa)
    assert _same_bits(undo_exp_transform(w).values, _ref_undo(w))


def test_p_eta_table(traj):
    w = exp_transform(traj, _c(traj))
    etas = (0.0, 0.05, 0.2)
    assert _same(p_eta_table(w, etas), _ref_p_eta_table(w, etas))
    ts = [float(t) for t in traj.times[-3:]] + [float(traj.times[2]) - 0.01]
    assert _same(p_eta_table(w, (0.1,), ts=ts, components=[1]),
                 _ref_p_eta_table(w, (0.1,), ts=ts, components=[1]))


def test_component_gaps(traj):
    gd = component_gap_decay(traj)
    want = _ref_gaps(traj)
    assert _same(gd.gap_table, [(float(t), float(p)) for t, p in zip(traj.times, want)])


def test_monotone_tail_and_profile_distances(traj):
    cv = _c(traj)
    worst = _ref_monotone_worst(traj, cv)
    assert _same(monotone_tail(traj, cv, tol=0.5), (worst >= -0.5, worst))
    assert _same(profile_distances(traj, cv), _ref_profile_distances(traj, cv))


def test_comparison_and_lipschitz_checks(traj):
    lower = Trajectory(traj.grid, traj.times, traj.values - 0.25 * np.cos(traj.values), traj.meta)
    for u, v in ((lower, traj), (traj, lower)):
        rep = comparison_check(u, v)
        want = _ref_comparison(u, v)
        assert _same(rep.per_snapshot, want) and _same(rep.worst_violation, max(want))
    for c in (_c(traj), 0.25):
        rep = lipschitz_check(traj, c)
        assert _same((rep.sup_shifted, rep.sup_space_lipschitz, rep.sup_time_ratio),
                     _ref_lipschitz(traj, c))


def test_long_time_constant(traj):
    got = long_time_constant(traj, min_window=1.0)
    assert _same_bits(got, _ref_long_time_constant(traj, min_window=1.0))


def test_one_snapshot():
    traj = Trajectory(Grid(1, 8), [0.0], [np.ones((2, 8))])
    assert lipschitz_check(traj, 0.0).sup_time_ratio == 0.0
    assert monotone_tail(traj, 0.0) == (True, 0.0)
    assert profile_distances(traj, 0.0) == [(0.0, 0.0)]


@pytest.mark.parametrize("dim", (1, 2))
def test_batch_members_are_rows_of_one_snapshot_array(dim):
    grid = Grid(dim, 8)
    ham = build_hamiltonian("quadratic_eikonal", {"f": {"const": 1.0}}, dim=dim)
    system = HJSystem(hams=(ham, ham), coupling=CouplingMatrix.constant(np.zeros((2, 2))),
                      grid=grid)
    members = [[GridFunction(grid, np.full(grid.shape, float(b + i))) for i in range(2)]
               for b in range(3)]
    config = EvolutionConfig(t_final=0.5, snapshot_every=0.25)
    batch = solve_batch(system, members, config)
    base = batch[0].values.base
    assert base is not None and base.shape == (3, 3, 2) + grid.shape
    for b, traj in enumerate(batch):
        assert traj.values.base is base
        assert traj.values.shape == (3, 2) + grid.shape
        assert np.shares_memory(traj.values, base[b])
        assert _same_bits(traj.values, solve(system, members[b], config).values)


@pytest.mark.parametrize("traj_name", ("random-2d", "solved-1d"))
def test_save_load_round_trips_values_bytes(tmp_path, traj_name):
    traj = TRAJECTORIES[traj_name]()
    traj.save(tmp_path / "run")
    back = Trajectory.load(tmp_path / "run")
    assert _same_bits(back.values, traj.values)
    assert _same_bits(back.times, traj.times)
