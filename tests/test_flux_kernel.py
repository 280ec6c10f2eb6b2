"""The grid-bound flux kernel reproduces the reference flux bit for bit.

The reference is the public per-component path: ``diff_arrays`` of one
component, ``numerical_flux`` of its Hamiltonian, and ``np.tensordot`` for
the coupling.  Equality is asserted on the raw bytes, which is stricter than
``np.array_equal`` (it also tells -0.0 from 0.0).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjsys.catalog import build_hamiltonian, fourier_function, quadratic_eikonal_pair
from hjsys.coupling import CouplingMatrix
from hjsys.errors import DivergenceError
from hjsys.evolution import (
    EvolutionConfig,
    FluxKernel,
    HJSystem,
    SystemState,
    cfl_dt,
    march_chunk,
    solve,
    solve_batch,
    step,
)
from hjsys.grid import Grid, GridFunction, diff_arrays, sample
from hjsys.ergodic import _FD_STEP, _jacobian, _residual
from hjsys.evolution import _CHUNK, _advance, _snapshot_times
from hjsys.hamiltonians import Hamiltonian, numerical_flux, sum_p
from hjsys.switching import SwitchingProcessSpec, hamiltonian_from_spec

D = np.array([[1.0, -1.0], [-2.0, 2.0]])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _source(dim, const, amp=-1.0):
    return {"const": const, "terms": [{"k": [1] * dim, "cos": amp}]}


def _switching_hams(dim):
    if dim == 1:
        acts = np.linspace(-1.0, 1.0, 9)[:, None]
    else:
        th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        acts = np.stack([np.cos(th), np.sin(th)], axis=-1)
    fs = [fourier_function(_source(dim, c), dim) for c in (1.0, 1.5)]
    spec = SwitchingProcessSpec(
        m=2,
        dynamics=((lambda x, a: a * np.ones_like(x)),) * 2,
        costs=tuple((lambda x, a, f=f: f(x)) for f in fs),
        rates=[[-1.0, 1.0], [2.0, -1.0]],
        control_set=acts,
        terminal=tuple((lambda x: np.zeros(np.shape(x)[:-1])) for _ in range(2)),
        dim=dim,
    )
    return tuple(hamiltonian_from_spec(spec, i) for i in range(2))


def _custom_hams(dim):
    # hand-written binds: one with a local bound, one without, which gets
    # the global flux in both modes
    def ev(x, p):
        return np.sum(p * p, axis=-1) * (1.2 + 0.5 * np.sin(2 * np.pi * x[..., 0])) - 0.5

    with_alpha = Hamiltonian(
        dim=dim, bind=lambda X: (partial(ev, X), partial(np.multiply, 3.4)), lf_alpha=9.0
    )
    without_alpha = Hamiltonian(
        dim=dim,
        bind=lambda X: (lambda p: np.sqrt(np.sum(p * p, axis=-1)) - 0.2, None),
        lf_alpha=1.1,
    )
    return (with_alpha, without_alpha)


def _hams(family, dim):
    if family == "switching":
        return _switching_hams(dim)
    if family == "custom":
        return _custom_hams(dim)
    ham_id = {
        "quadratic": "quadratic_eikonal",
        "linear": "linear_eikonal",
        "nonconvex": "nonconvex_bs00",
    }[family]
    out = []
    for i in range(2):
        params = {"f": _source(dim, 1.0 + 0.5 * i)}
        if family == "nonconvex":
            params["q"] = [{"terms": [{"k": [1] * dim, "sin": 0.3 - 0.1 * i}]}] * dim
        out.append(build_hamiltonian(ham_id, params, dim))
    return tuple(out)


def _system(family, dim):
    grid = Grid(dim, 24 if dim == 1 else 12)
    return HJSystem(hams=_hams(family, dim), coupling=CouplingMatrix(2, entries=D), grid=grid)


def _values(grid, seed, m=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(m):
        a, b = 0.1 * rng.normal(size=2)
        spec = {
            "const": float(rng.normal()),
            "terms": [{"k": [1] * grid.dim, "cos": float(a), "sin": float(b)}],
        }
        out.append(sample(fourier_function(spec, grid.dim), grid).values.copy())
    # a flat plateau of exact zeros exercises the kinks at p = 0 and the sign
    # of zero without steepening the data
    mid = np.median(out[1])
    out[1] = np.maximum(out[1], mid) - mid
    return np.stack(out)


FAMILIES = ("quadratic", "linear", "nonconvex", "switching", "custom")
CASES = [(f, d, mode) for f in FAMILIES for d in (1, 2) for mode in ("local", "global")]


@pytest.mark.parametrize("family,dim,mode", CASES)
def test_flux_stack_matches_numerical_flux(family, dim, mode):
    system = _system(family, dim)
    X = system.grid.mesh()
    kernel = system.flux_kernel(mode)
    for seed in range(3):
        values = _values(system.grid, seed)
        flux, alpha_sums = kernel(values)
        for i, ham in enumerate(system.hams):
            ref = numerical_flux(ham, X, *diff_arrays(values[i], system.grid), mode=mode)
            assert _same_bits(flux[i], ref)
        assert len(alpha_sums) == system.m


@pytest.mark.parametrize("family,dim,mode", CASES)
def test_batched_flux_matches_one_call_per_member(family, dim, mode):
    system = _system(family, dim)
    kernel = system.flux_kernel(mode)
    batch = np.stack([_values(system.grid, seed) for seed in range(3)])
    flux, alpha_sums = kernel(batch)
    assert alpha_sums.shape == batch.shape
    for b in range(3):
        one, sums = kernel(batch[b])
        assert _same_bits(flux[b], one)
        assert _same_bits(alpha_sums[b], sums)


def _sup(p, B, L):
    # one module-level evaluator shared by two custom Hamiltonians; its
    # tables lead with the action axis, so stacking them would be wrong
    a = (slice(None),) + (None,) * (p.ndim + 1 - B.ndim)
    return np.maximum.reduce(-np.add.reduce(B[a] * p, axis=-1) - L[a], axis=0)


def _action_first_hams(dim):
    acts = np.array([-1.0, 0.5, 1.0])

    def ham(shift):
        def bind(X):
            B = np.multiply.outer(acts, np.ones(X.shape))
            L = np.multiply.outer(acts**2, 1.0 + 0.5 * np.cos(2 * np.pi * X[..., 0])) + shift
            return partial(_sup, B=B, L=L), np.ones_like

        return Hamiltonian(dim=dim, bind=bind, lf_alpha=1.1)

    return (ham(0.0), ham(0.3))


def _grouping_system(name, dim):
    if name == "mixed":
        quad, nonconvex = _hams("quadratic", dim), _hams("nonconvex", dim)
        hams = (quad[0], nonconvex[0], _custom_hams(dim)[0], quad[1], nonconvex[1])
    elif name == "nonconvex-profiles":
        hams = tuple(
            build_hamiltonian("nonconvex_bs00", {"F": F, "p_box": p_box}, dim)
            for F, p_box in (({"const": 1.0, "angle": [{"j": 1, "cos": 0.3}]}, 2.5),
                             ({"const": 1.5, "angle": [{"j": 2, "sin": -0.4}]}, 3.0))
        )
    else:
        hams = _action_first_hams(dim)
    m = len(hams)
    entries = np.eye(m) - np.roll(np.eye(m), 1, axis=1)
    grid = Grid(dim, 24 if dim == 1 else 12)
    return HJSystem(hams=hams, coupling=CouplingMatrix(m, entries=entries), grid=grid)


def _group_count(name, dim, mode):
    """A group is a run of consecutive components of one family: the
    interleaved "mixed" families stand alone, and the 1D nonconvex pair
    stacks in local mode only; their global lf_alpha differ, and 2D
    nonconvex and custom components stand alone."""
    if name == "action-first":
        return 2
    if name == "nonconvex-profiles":
        return 1 if dim == 1 and mode == "local" else 2
    return 5


def _reference_alpha_sum(ham, X, dminus, dplus, mode):
    alpha = ham.bind(X)[1]
    if mode == "global" or alpha is None:
        return np.full(X.shape[:-1], ham.lf_alpha * X.shape[-1])
    return np.sum(alpha(np.maximum(np.abs(dminus), np.abs(dplus))), axis=-1)


GROUPINGS = [
    (name, d, mode)
    for name in ("mixed", "nonconvex-profiles", "action-first")
    for d in (1, 2)
    for mode in ("local", "global")
]


@pytest.mark.parametrize("name,dim,mode", GROUPINGS)
def test_grouped_flux_matches_numerical_flux(name, dim, mode):
    system = _grouping_system(name, dim)
    grid, X = system.grid, system.grid.mesh()
    kernel = system.flux_kernel(mode)
    assert len(kernel.groups) == _group_count(name, dim, mode)
    members = np.stack([_values(grid, seed, system.m) for seed in range(3)])
    # one member as solve marches it (no batch axis), then B = 1 and B = 3
    for values in (members[0], members[:1], members):
        flux, alpha_sums = kernel(values)
        assert flux.shape == values.shape
        assert alpha_sums.shape == values.shape
        batch = values.reshape((-1,) + members.shape[1:])
        flux, alpha_sums = flux.reshape(batch.shape), alpha_sums.reshape(batch.shape)
        for b, member in enumerate(batch):
            for i, ham in enumerate(system.hams):
                dm, dp = diff_arrays(member[i], grid)
                assert _same_bits(flux[b, i], numerical_flux(ham, X, dm, dp, mode=mode))
                assert np.array_equal(alpha_sums[b, i], _reference_alpha_sum(ham, X, dm, dp, mode))


def test_action_first_evaluators_are_never_stacked():
    for dim in (1, 2):
        for mode in ("local", "global"):
            kernel = _grouping_system("action-first", dim).flux_kernel(mode)
            assert [sel for sel, *_ in kernel.groups] == [0, 1]


@pytest.mark.parametrize("family,dim", [("quadratic", 2), ("linear", 1), ("nonconvex", 1)])
def test_one_family_makes_one_evaluator_call_per_step(family, dim):
    system = _system(family, dim)
    kernel = system.flux_kernel("local")
    [(sel, H, alpha, lf_alpha)] = kernel.groups
    shapes = []

    def counted(p):
        shapes.append(p.shape)
        return H(p)

    kernel.groups[0] = (sel, counted, alpha, lf_alpha)
    u0 = [GridFunction(system.grid, v) for v in _values(system.grid, 0)]
    traj = solve(system, u0, EvolutionConfig(t_final=0.05))
    assert len(shapes) == traj.meta["steps_total"] > 1
    assert set(shapes) == {(system.m,) + system.grid.shape + (dim,)}


def _reference_step(system, state, dt, mode):
    """The step ``solve`` used to take once per time step: the public
    per-component flux, ``np.tensordot`` for the coupling, and a fresh
    ``SystemState``."""
    grid = system.grid
    X = grid.mesh()
    flux = np.stack(
        [
            numerical_flux(ham, X, *diff_arrays(state.values[i], grid), mode=mode)
            for i, ham in enumerate(system.hams)
        ]
    )
    coupling = np.tensordot(system.coupling.entries, state.values, axes=(1, 0))
    new = state.values - dt * (flux + coupling)
    assert np.isfinite(new).all()
    return SystemState(t=state.t + dt, values=new, grid=grid)


def _reference_solve(system, u0, config, times):
    """The per-solve loop: snapshots at ``times`` and the step count at each."""
    dt = cfl_dt(system, config)
    state = SystemState(t=0.0, values=u0, grid=system.grid)
    snapshots, steps = [u0], [0]
    for k in range(1, len(times)):
        span = times[k] - times[k - 1]
        nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
        for _ in range(nsteps):
            state = _reference_step(system, state, span / nsteps, config.flux_mode)
        snapshots.append(state.values)
        steps.append(steps[-1] + nsteps)
    return snapshots, steps


@pytest.mark.parametrize("family,dim,mode", CASES)
def test_solve_matches_reference_loop(family, dim, mode):
    # solve, and each member of a batch of three, against the per-solve loop
    # on every snapshot
    system = _system(family, dim)
    grid = system.grid
    dt = cfl_dt(system, EvolutionConfig(t_final=1.0, flux_mode=mode))
    config = EvolutionConfig(
        t_final=200 * dt, snapshot_every=70 * dt, dt_override=dt, flux_mode=mode
    )
    u0s = [_values(grid, seed) for seed in (7, 8, 9)]
    members = [[GridFunction(grid, v) for v in u0] for u0 in u0s]
    batch = solve_batch(system, members, config)
    assert len(batch) == 3
    for u0, member, batched in zip(u0s, members, batch):
        alone = solve(system, member, config)
        assert alone.meta["steps_total"] == 200
        snapshots, steps = _reference_solve(system, u0, config, alone.times)
        for traj in (alone, batched):
            assert _same_bits(traj.times, alone.times)
            assert traj.meta["steps_at_snapshot"] == steps
            assert len(traj.values) == len(snapshots) == 4
            for got, want in zip(traj.values, snapshots):
                assert _same_bits(got, want)


@pytest.mark.parametrize("name,dim,mode", GROUPINGS)
def test_grouped_batch_matches_reference_loop(name, dim, mode):
    # three members march on one step plan; in the "mixed" system, whose
    # families interleave, the first quadratic is a group of its own that
    # writes through views of the plan's buffers, and its x-data are
    # materialized at the batch shape
    system = _grouping_system(name, dim)
    grid = system.grid
    dt = cfl_dt(system, EvolutionConfig(t_final=1.0, flux_mode=mode))
    config = EvolutionConfig(
        t_final=60 * dt, snapshot_every=25 * dt, dt_override=dt, flux_mode=mode
    )
    u0s = [_values(grid, seed, system.m) for seed in (4, 5, 6)]
    batch = solve_batch(system, [SystemState(0.0, u0, grid) for u0 in u0s], config)
    for u0, traj in zip(u0s, batch):
        snapshots, steps = _reference_solve(system, u0, config, traj.times)
        assert traj.meta["steps_at_snapshot"] == steps and steps[-1] == 60
        for got, want in zip(traj.values, snapshots):
            assert _same_bits(got, want)
    if name == "mixed":
        plan = system.flux_kernel(mode).plan((3,) + u0s[0].shape)
        views, H, *_ = plan.groups[0]
        assert all(np.shares_memory(v, b) for v, b in zip(views, plan.buffers[2:], strict=True))
        assert H.keywords["fx"].shape == (3,) + grid.shape


def test_cfl_error_names_the_member_that_breaks_it_in_a_later_group():
    # member 2 breaks the budget only in component 2, the custom group,
    # which comes after the quadratic and nonconvex groups
    system = _grouping_system("mixed", 1)
    kernel, grid = system.flux_kernel("local"), system.grid
    assert all(2 not in np.atleast_1d(np.arange(system.m)[sel]) for sel, *_ in kernel.groups[:2])
    v = np.stack([_values(grid, seed, system.m) for seed in (1, 2, 3)])
    v[2, 2] += 0.5 * np.sin(2 * np.pi * grid.axis_coords())
    budgets = np.max(kernel(v)[1], axis=-1) / grid.h + kernel.dmax
    dt = 1.01 / budgets[2, 2]
    assert np.argwhere(dt * budgets > 1.0 + 1e-9).tolist() == [[2, 2]]
    with pytest.raises(DivergenceError, match="^member 2: CFL budget exceeded"):
        _advance(kernel, v, dt, 0.1)


@pytest.mark.parametrize("family", FAMILIES)
def test_step_matches_reference_step_and_leaves_its_state_alone(family):
    system = _system(family, 1)
    values = _values(system.grid, 4)
    state = SystemState(t=0.5, values=values, grid=system.grid)
    out = step(state, system, 1e-3)
    assert state.values is values and state.t == 0.5
    assert _same_bits(values, _values(system.grid, 4))
    want = _reference_step(system, SystemState(0.5, values.copy(), system.grid), 1e-3, "local")
    assert _same_bits(out.values, want.values) and out.t == want.t


@pytest.mark.parametrize("dim", (1, 2))
def test_difference_buffers_keep_the_shift_identity(dim):
    system = _system("quadratic", dim)
    kernel = system.flux_kernel("local")
    values = _values(system.grid, 3)
    buffers = kernel.plan(values.shape).buffers[:2]
    dminus, dplus = diff_arrays(values, system.grid, out=buffers)
    for k in range(dim):
        assert _same_bits(np.roll(dplus[..., k], 1, axis=1 + k), dminus[..., k])
    ref = [diff_arrays(values[i], system.grid) for i in range(system.m)]
    assert _same_bits(dminus, np.stack([r[0] for r in ref]))
    assert _same_bits(dplus, np.stack([r[1] for r in ref]))
    assert dminus is buffers[0] and dplus is buffers[1]  # written into the plan's buffers
    again = diff_arrays(values, system.grid, out=kernel.plan(values.shape).buffers[:2])
    assert again[0] is dminus and again[1] is dplus  # preallocated, reused


def test_kernel_is_built_once_per_mode():
    system = _system("nonconvex", 1)
    local = system.flux_kernel("local")
    assert system.flux_kernel("local") is local
    assert system.flux_kernel("global") is not local
    assert system.flux_kernel("global") is system.flux_kernel("global")


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", ["local", "global"])
def test_jacobian_matches_finite_differences(family, mode):
    # the colored assembly against one central difference per node; n = 10,
    # 11 and 12 leave one, two and no nodes outside the mod-3 colors
    lam, eps = 0.1, _FD_STEP
    for n in (10, 11, 12):
        system = HJSystem(
            hams=_hams(family, 1), coupling=CouplingMatrix(2, entries=D), grid=Grid(1, n)
        )
        kernel = system.flux_kernel(mode)
        values = 0.3 * np.random.default_rng(n).normal(size=(system.m, n))
        want = np.zeros((system.m, n, system.m, n))
        want[:, range(n), :, range(n)] = D + lam * np.eye(system.m)
        for i in range(system.m):
            for k in range(n):
                bumped = values.copy()
                bumped[i, k] += eps
                up = kernel(bumped)[0][i].copy()
                bumped[i, k] = values[i, k] - eps
                want[i, :, i, k] += (up - kernel(bumped)[0][i]) / (2 * eps)
        assert _same_bits(_jacobian(kernel, lam, values), want)


# -- fewer reductions per step, same bits ------------------------------------

SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.5e-308,
           1.0, -1.5, 1e308, -1e308]


@pytest.mark.parametrize("dim", (1, 2))
def test_sum_p_is_add_reduce_on_raw_bytes(dim):
    # every special value in every slot of the p axis, behind leading axes
    rows = np.array(np.meshgrid(*[SPECIAL] * dim, indexing="ij")).reshape(dim, -1).T
    rng = np.random.default_rng(1)
    for a in (rows, np.stack([rows, -rows[::-1]]), rng.normal(size=(2, 3, 5, dim))):
        got, want = sum_p(a), np.add.reduce(a, axis=-1)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()  # NaN != NaN
    assert sum_p(np.array([[-0.0]])).tobytes() == np.array([0.0]).tobytes()


def _per_member_check_cfl(kernel, alpha_sums, dt):
    """``check_cfl``'s decision taken the long way: one summed budget per
    member, then the largest."""
    worst = dt * (np.maximum.reduce(alpha_sums, axis=(-2, -1)) / kernel.grid.h + kernel.dmax)
    if np.maximum.reduce(worst, axis=None) > 1.0 + 1e-9:
        k = int(np.flatnonzero(worst > 1.0 + 1e-9)[0])
        raise DivergenceError(
            (f"member {k}: " if worst.size > 1 else "") + "CFL budget exceeded: "
            f"dt*sum(alpha)/h + dt*(max d_ii + lambda) = {float(worst.flat[k])!r}; "
            "enlarge lf_alpha/p_box or shrink dt"
        )


def _cfl_outcome(check, alpha_sums, dt):
    try:
        check(alpha_sums, dt)
    except DivergenceError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 2)])
def test_cfl_decision_at_the_boundary(shape):
    kernel = _system("quadratic", 1).flux_kernel("local")
    h = kernel.grid.h
    rng = np.random.default_rng(2)
    edge = np.full(shape + kernel.grid.shape, 4.0 * h)
    edge.flat[-1] = 8.0 * h  # the last member's last component sets the budget
    assert kernel.dmax == 2.0
    dt = (1.0 + 1e-9) / 10.0  # dt * (8 h / h + max d_ii) lands exactly on 1 + 1e-9
    assert dt * (np.max(edge) / h + kernel.dmax) == 1.0 + 1e-9
    kernel.check_cfl(edge, dt)
    above = np.nextafter(dt, np.inf)
    with pytest.raises(DivergenceError, match="CFL budget exceeded"):
        kernel.check_cfl(edge, above)
    member = f"member {shape[0] - 1}: " if len(shape) == 2 and shape[0] > 1 else ""
    assert _cfl_outcome(kernel.check_cfl, edge, above).startswith(member + "CFL budget")
    # against the per-member decision, one ulp at a time around the boundary
    # of random sums
    for _ in range(50):
        sums = rng.uniform(0.5, 3.0, size=shape + kernel.grid.shape)
        edge_dt = (1.0 + 1e-9) / (np.max(sums) / h + kernel.dmax)
        for dt in edge_dt * (1.0 + np.arange(-4, 5) * 2.0**-52):
            want = _cfl_outcome(partial(_per_member_check_cfl, kernel), sums, dt)
            assert _cfl_outcome(kernel.check_cfl, sums, dt) == want


def test_nan_in_one_member_names_it():
    system = _system("quadratic", 1)
    kernel, grid = system.flux_kernel("local"), system.grid
    v = np.stack([_values(grid, seed) for seed in (1, 2, 3)])
    v[1, 0, 5] = np.nan
    # the stencil carries the NaN to nodes 4 and 6, and the coupling to component 1
    x = grid.nodes()[4].tolist()
    with pytest.raises(DivergenceError) as exc:
        _advance(kernel, v, 1e-3, 0.25)
    assert str(exc.value) == f"non-finite value after step to t = 0.25: member 1: component 0, node 4 at x = {x}"
    alone = v[1].copy()
    alone[:] = _values(grid, 2)
    alone[0, 5] = np.nan
    with pytest.raises(DivergenceError) as exc:
        _advance(kernel, alone, 1e-3, 0.5)
    assert str(exc.value).startswith("non-finite value after step to t = 0.5: component 0, node 4")


def test_finite_state_whose_sum_overflows_does_not_raise():
    # flat data: no gradient, and the symmetric coupling's rows sum to zero
    system, _ = quadratic_eikonal_pair(24)
    big = [[GridFunction(system.grid, np.full(system.grid.shape, s * 1e308)) for _ in range(2)]
           for s in (1.0, -1.0)]
    with np.errstate(over="ignore"):  # the sum that overflows warns, it does not raise
        trajs = solve_batch(system, big, EvolutionConfig(t_final=0.05))
        final = np.stack([traj.values[-1] for traj in trajs])
        assert not np.isfinite(np.add.reduce(final, axis=None))
    assert np.all(np.isfinite(final)) and trajs[0].meta["steps_total"] > 1


def test_kernel_outputs_are_reused_and_residuals_are_not():
    system = _system("nonconvex", 1)
    kernel = system.flux_kernel("local")
    v1, v2 = _values(system.grid, 1), _values(system.grid, 2)
    residual, _ = _residual(kernel, 0.1, v1)
    kept = residual.copy()
    flux, alpha_sums = kernel(v1)
    again, sums = _residual(kernel, 0.1, v2)
    assert _same_bits(residual, kept)
    assert kernel(v2)[0] is flux and kernel(v1)[1] is alpha_sums  # the plan's buffers
    plan = kernel.plan(v1.shape)
    assert flux is plan.buffers[5] and alpha_sums is plan.buffers[6]


def test_alternating_residual_and_jacobian_calls_keep_their_buffers():
    # Newton alternates (m, n) residuals with (2 colors, m, n) Jacobian
    # stacks: each shape keeps its own plan and its seven buffers, built once
    system = _system("nonconvex", 1)
    kernel = system.flux_kernel("local")
    v = _values(system.grid, 1)
    F, _ = _residual(kernel, 0.1, v)
    J = _jacobian(kernel, 0.1, v)
    kept = {shape: (plan, list(plan.buffers)) for shape, plan in kernel._plans.items()}
    assert len(kept) == 2 and v.shape in kept
    for _ in range(2):
        assert _same_bits(_residual(kernel, 0.1, v)[0], F)
        assert _same_bits(_jacobian(kernel, 0.1, v), J)
    assert kernel._plans.keys() == kept.keys()
    for shape, (plan, buffers) in kept.items():
        assert kernel._plans[shape] is plan
        assert len(buffers) == 7
        assert all(a is b for a, b in zip(kernel._plans[shape].buffers, buffers))


# -- decisions once per chunk, a failing chunk replayed ----------------------


def _reference_march(system, u0s, config):
    """The march with both decisions after every step, as ``solve_batch``
    took them before it took them once per chunk: the (B, K, m) + grid.shape
    snapshots and the steps at each."""
    kernel = system.flux_kernel(config.flux_mode)
    v = np.stack([np.array(u0, dtype=float) for u0 in u0s])
    dt = cfl_dt(system, config)
    times = _snapshot_times(config)
    snapshots, steps_at, t = [v.copy()], [0], 0.0
    march = v[0] if len(v) == 1 else v
    for k in range(1, len(times)):
        span = times[k] - times[k - 1]
        nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
        sub = span / nsteps
        for _ in range(nsteps):
            t += sub
            _advance(kernel, march, sub, t)
        t = float(times[k])
        snapshots.append(v.copy())
        steps_at.append(steps_at[-1] + nsteps)
    return np.stack(snapshots, axis=1), steps_at


@settings(max_examples=40)
@given(
    family=st.sampled_from(FAMILIES),
    dim=st.sampled_from((1, 2)),
    mode=st.sampled_from(("local", "global")),
    members=st.integers(1, 3),
    span=st.integers(1, 2 * _CHUNK + 5),
    spans=st.integers(1, 3),
    cadence=st.booleans(),
    seed=st.integers(0, 1000),
    lam=st.sampled_from((0.0, 0.1)),
)
def test_chunked_march_equals_the_per_step_march(family, dim, mode, members, span, spans,
                                                 cadence, seed, lam):
    # spans shorter and longer than a chunk; without a cadence the whole
    # horizon is one span
    system = _system(family, dim)
    grid = system.grid
    dt = cfl_dt(system, EvolutionConfig(t_final=1.0, flux_mode=mode))
    config = EvolutionConfig(t_final=span * spans * dt, dt_override=dt, flux_mode=mode,
                             snapshot_every=span * dt if cadence else None)
    u0s = [_values(grid, seed + b) for b in range(members)]
    if lam:  # the discounted march: one chunk against the update with lam v written out
        kernel = system.flux_kernel(mode)
        got, want = np.stack(u0s), np.stack(u0s)
        for _ in range(span * spans):
            flux, _ = kernel(want)
            want -= dt * (lam * want + flux + kernel.coupling_term(want))
        march_chunk(kernel, got, dt, 0.0, span * spans, lam)
        assert _same_bits(got, want)
        return
    want, steps = _reference_march(system, u0s, config)
    got = solve_batch(system, [SystemState(0.0, u0, grid) for u0 in u0s], config)
    for b, traj in enumerate(got):
        assert traj.meta["steps_at_snapshot"] == steps
        assert _same_bits(traj.values, want[b])


def _tripwire_system(kind, member, dim=1):
    """A quadratic pair whose second component trips at the one step whose
    one-sided gradients have the armed bytes: its alpha jumps to 1e3 (kind
    "cfl") or its H turns NaN (kind "nan") at node 5 of ``member``.  A
    replayed step meets the same bytes, so it trips again."""
    wire = {"armed": None, "seen": []}
    bad = {"cfl": 1e3, "nan": np.nan}[kind]
    f = fourier_function(_source(dim, 1.5), dim)

    def bind(X):
        fx = f(X)

        def trip(p, out, when):
            # the evaluator that trips records every input it sees
            if when == kind:
                wire["seen"].append(p.tobytes())
                if p.tobytes() == wire["armed"]:
                    out[(member,) * (p.ndim - dim - 1) + (5,) * dim] = bad
            return out

        def H(p):
            return trip(p, np.sum(p * p, axis=-1) - fx, "nan")

        def alpha(pabs):
            return trip(pabs, 2.0 * pabs, "cfl")

        return H, alpha

    ham = Hamiltonian(dim=dim, bind=bind, lf_alpha=5.5)
    grid = Grid(dim, 24 if dim == 1 else 12)
    system = HJSystem(hams=(_hams("quadratic", dim)[0], ham), coupling=CouplingMatrix(2, entries=D),
                      grid=grid)
    return system, wire


def _counted_outcome(monkeypatch, run):
    """``run()``'s error text and the kernel calls it made."""
    calls = []
    call = FluxKernel.__call__
    monkeypatch.setattr(FluxKernel, "__call__", lambda self, *a: calls.append(1) or call(self, *a))
    try:
        run()
    except DivergenceError as exc:
        return str(exc), len(calls)
    finally:
        monkeypatch.setattr(FluxKernel, "__call__", call)
    return None, len(calls)


@pytest.mark.parametrize("kind", ["cfl", "nan"])
@pytest.mark.parametrize("step_no,members,member,cadence,dim", [
    (_CHUNK + _CHUNK // 2, 1, 0, None, 1),  # the middle of the second chunk
    (2 * _CHUNK, 1, 0, None, 1),  # the last step of a chunk
    (_CHUNK + 1, 1, 0, None, 1),  # the first step of a chunk
    (_CHUNK + 7, 3, 2, None, 1),  # member 2 of a batch
    (40, 3, 1, 30, 1),  # the tenth step of the second 30-step span
    (_CHUNK + 7, 3, 2, None, 2),  # member 2 of a 2D batch
])
def test_failing_chunk_replays_to_the_per_step_error(monkeypatch, kind, step_no, members, member,
                                                    cadence, dim):
    system, wire = _tripwire_system(kind, member, dim)
    grid = system.grid
    dt = cfl_dt(system, EvolutionConfig(t_final=1.0))
    config = EvolutionConfig(t_final=3 * _CHUNK * dt, dt_override=dt,
                             snapshot_every=None if cadence is None else cadence * dt)
    u0s = [_values(grid, 3 + b) for b in range(members)]
    _reference_march(system, u0s, config)  # unarmed: every step's gradients
    assert len(wire["seen"]) >= step_no and wire["seen"].count(wire["seen"][step_no - 1]) == 1
    wire["armed"] = wire["seen"][step_no - 1]
    want, ref_calls = _counted_outcome(monkeypatch, lambda: _reference_march(system, u0s, config))
    assert ref_calls == step_no
    named = f"member {member}: " if members > 1 else ""
    if kind == "cfl":
        assert want.startswith(named + "CFL budget exceeded")
    else:
        node = 5 if dim == 1 else 5 * system.grid.n + 5
        assert want.startswith("non-finite value") and f"{named}component 1, node {node} " in want
    states = [SystemState(0.0, u0, grid) for u0 in u0s]
    got, calls = _counted_outcome(monkeypatch, lambda: solve_batch(system, states, config))
    assert got == want
    assert ref_calls < calls <= ref_calls + _CHUNK
