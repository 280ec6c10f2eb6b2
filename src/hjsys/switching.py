"""Controlled piecewise-deterministic dynamics with random mode switching.

A path holds a position on the torus and a discrete mode.  The position
follows dx/dt = b_mode(x, a) under the path's own action row a (the spec's
callables take one row per path); the mode jumps with exact exponential
clocks: in mode i the next switch arrives at rate R_i = sum_{j != i}
gamma_ij and lands on j with probability gamma_ij / R_i.
Clocks are sampled exactly (no per-step Bernoulli), so the switching law
carries no time-step bias; only the position integration is explicit Euler.

Path cost is the running integral of l_mode(x, a) plus a terminal payment,
matching the value functions solved by the PDE side (``bridge``) with

    H_i(x, p) = max over actions a of [-<b_i(x, a), p> - l_i(x, a)],
    d_ii = sum_{j != i} gamma_ij,   d_ij = -gamma_ij.

``estimate_value`` runs all its paths in one time loop, vectorized over the
sample axis, and draws every clock and destination from one generator
seeded by its ``seed``, so seeded results are reproducible.
``simulate_trajectory`` runs that loop on one path and records it.

Each (sub-)step of that loop looks up the moving paths' actions with one
gather from the policy table, evaluates the dynamics and the costs with
one call each where ``_one_call`` allows, else per mode, and wraps
positions with ``_wrap``.  Callables must therefore be pointwise.

Between switches a path follows a deterministic flow, and every path starts
at one (x0, mode0), so until its first clock rings a path is the same as
every other such path.  The loop moves them all as one cohort row, and a
path's own row joins the passes in the step its first clock rings.  A pass
covers a prefix of the rows: the cohort, the paths that have switched and
padding rows, paths not yet switched that stay exact copies of the cohort.
As the callables and the policy are pointwise, a row's result does not
depend on the other rows, so seeded results are those of one row per path,
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import action_tables, coupling_from_spec, hamiltonian_from_spec
from .errors import ConfigError, StructureError, check_step_budget

__all__ = [
    "SwitchingProcessSpec",
    "Path",
    "ValueEstimate",
    "ConstantPolicy",
    "GreedyGradientPolicy",
    "simulate_trajectory",
    "estimate_value",
    "hamiltonian_from_spec",
    "coupling_from_spec",
]


def _wrap(y):
    """Positions y taken onto the torus [0, 1); bit for bit ``y % 1.0`` for
    finite y (numpy's remainder is the exact fmod plus at most one rounded
    + 1, and so is y - floor(y)), at a fraction of its cost."""
    return y - np.floor(y)


@dataclass(frozen=True)
class SwitchingProcessSpec:
    """Modes, dynamics, running costs, switching rates, and the action list.

    ``rates[i, j]`` is the i -> j switching intensity for j != i; the
    diagonal is bookkeeping only and is stored as -1.  ``control_set`` rows
    are the admissible actions (the continuum action set discretized to a
    finite list).  ``dynamics[i](x, a)`` and ``costs[i](x, a)`` take points
    x (..., dim) and action rows a (..., adim) whose leading axes broadcast
    against each other, as in the 1D drift ``lambda x, a: a * np.sin(2 * np.pi
    * x)``: the Monte Carlo passes one row per path, the PDE side the control
    set shaped (A, 1, ..., 1, adim).  They must be pointwise (row k of the
    result depends on row k of x and of a only), since the Monte Carlo calls
    them on varying subsets of its paths, and calls a callable that several
    modes share once on the rows of all of them.  So are partials of one
    function that differ only in the keyword its ``mode_keyword`` names: that
    keyword then gets the value of each row's mode along a trailing axis.
    """

    m: int
    dynamics: tuple
    costs: tuple
    rates: np.ndarray
    control_set: np.ndarray
    terminal: tuple
    dim: int = 1
    dt_sim: float = 1.0 / 1024.0  # quarter of the default companion grid spacing

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ConfigError("need at least one mode")
        if len(self.dynamics) != self.m or len(self.costs) != self.m:
            raise ConfigError("need one dynamics and one cost callable per mode")
        if len(self.terminal) != self.m:
            raise ConfigError("need one terminal function per mode")
        g = np.array(self.rates, dtype=float)
        if g.shape != (self.m, self.m):
            raise ConfigError(f"rates must be {self.m}x{self.m}, got {g.shape}")
        off = g[~np.eye(self.m, dtype=bool)]
        if not np.all(np.isfinite(off)):
            raise ConfigError("switching rates must be finite")
        if np.any(off < 0):
            raise StructureError("off-diagonal switching rates must be nonnegative")
        np.fill_diagonal(g, -1.0)
        g.setflags(write=False)
        object.__setattr__(self, "rates", g)
        A = np.atleast_2d(np.array(self.control_set, dtype=float))
        if A.shape[0] == 0 or not np.all(np.isfinite(A)):
            raise ConfigError("control set must be a nonempty list of finite action rows")
        A.setflags(write=False)
        object.__setattr__(self, "control_set", A)
        if not 0 < self.dt_sim < np.inf:
            raise ConfigError(f"dt_sim must be positive and finite, got {self.dt_sim!r}")
        # callables must read one action row per point: at three probe points
        # under the first, middle and last rows (the middle one tells apart a
        # symmetric set's ends), a batched call agrees with one call per row
        x, a = np.array([[0.3], [0.55], [0.8]]) * np.ones(self.dim), A[[0, len(A) // 2, -1]]
        for i in range(self.m):
            for what, fn in (("dynamics", self.dynamics[i]), ("cost", self.costs[i])):
                rows = [np.asarray(fn(x[k], a[k]), dtype=float) for k in range(3)]
                if not np.allclose(fn(x, a), rows, rtol=1e-12, atol=1e-12, equal_nan=True):
                    raise ConfigError(
                        f"mode {i} {what} must take one action row per point: "
                        "a (..., adim) broadcast against x (..., dim)"
                    )

    def total_rates(self) -> np.ndarray:
        out = self.rates.copy()
        np.fill_diagonal(out, 0.0)
        return out.sum(axis=1)

    def lipschitz_ratio_check(self, n_pairs: int = 200, seed: int = 5) -> float:
        """Worst |b(x,a) - b(y,a)| / dist(x,y) over random pairs and actions."""
        rng = np.random.default_rng(seed)
        xs = rng.random((n_pairs, self.dim))
        ys = xs + rng.normal(0, 0.05, xs.shape)
        ys = _wrap(ys)
        d = np.abs(xs - ys)
        d = np.minimum(d, 1 - d)
        dist = np.sqrt(np.sum(d * d, axis=1))
        keep = dist > 1e-12
        a = self.control_set[:: max(1, len(self.control_set) // 8), None]
        worst = 0.0
        for b in self.dynamics:
            diff = np.asarray(b(xs, a), dtype=float) - np.asarray(b(ys, a), dtype=float)
            num = np.sqrt(np.sum(np.broadcast_to(diff, (len(a),) + xs.shape) ** 2, axis=-1))
            worst = max(worst, float(np.max(num[:, keep] / dist[keep])))
        return worst


@dataclass
class Path:
    times: np.ndarray
    positions: np.ndarray  # (len(times), dim)
    modes: np.ndarray
    actions: np.ndarray  # action index applied on [t_k, t_{k+1}); last repeats
    cost: float

    @property
    def n_switches(self) -> int:
        return int(np.sum(self.modes[1:] != self.modes[:-1]))


@dataclass(frozen=True)
class ValueEstimate:
    mean: float
    std_error: float
    samples: int
    policy_id: str


class ConstantPolicy:
    """Always plays one fixed row of the control set."""

    def __init__(self, action_index: int):
        self.action_index = int(action_index)
        self.policy_id = f"constant[{self.action_index}]"

    def action_indices(self, x, modes, time_to_go) -> np.ndarray:
        return np.full(np.shape(modes), self.action_index, dtype=int)


class GreedyGradientPolicy:
    """Plays the pointwise maximizer against a PDE gradient field.

    For each stored snapshot (read as a value function indexed by time to
    go) and each mode, the best action at every grid node is precomputed:
    argmax over a of [-<b(x, a), Du(x)> - l(x, a)] with Du by central
    differences.  At run time the nearest node and the nearest snapshot in
    time-to-go are looked up.
    """

    def __init__(self, spec: SwitchingProcessSpec, traj):
        self.spec = spec
        self.grid = traj.grid
        self.snapshot_ttg = np.asarray(traj.times, dtype=float)
        self.policy_id = "greedy-gradient"
        dim = self.grid.dim
        nodes = self.grid.nodes()
        tables = np.empty((len(traj.times), spec.m, len(nodes)), dtype=np.int64)
        for i in range(spec.m):
            B, L = action_tables(spec, i, nodes, nodes.shape)
            for k in range(len(traj.times)):
                u = traj.values[k, i]
                grad = np.stack(
                    [
                        (np.roll(u, -1, axis=ax) - np.roll(u, 1, axis=ax))
                        / (2 * self.grid.h)
                        for ax in range(dim)
                    ],
                    axis=-1,
                ).reshape(len(nodes), dim)
                tables[k, i] = np.argmax(-np.add.reduce(B * grad, axis=-1) - L, axis=0)
        self._tables = tables
        # the lookup copy repeats node 0 as node n at the end of each axis
        on_grid = tables.reshape(tables.shape[:2] + self.grid.shape)
        self._lookup = np.pad(on_grid, [(0, 0)] * 2 + [(0, 1)] * dim, mode="wrap").reshape(-1)

    def _node_index(self, x: np.ndarray) -> np.ndarray:
        """Nearest node rint(x n) per axis in the lookup copy, where n stands
        for node 0; a point off [0, 1] is taken modulo n first."""
        n = self.grid.n
        idx = np.rint(np.atleast_2d(x) * n).astype(np.int64)
        if idx.view(np.uint64).max(initial=0) > n:  # a negative index reads huge
            idx %= n
        if self.grid.dim == 1:
            return idx[:, 0]
        return idx[:, 0] * (n + 1) + idx[:, 1]

    def _snapshot(self, time_to_go):
        """Index of the snapshot nearest in time to go (the earlier one on a
        tie); scalar arithmetic when ``time_to_go`` is one number."""
        ttg = self.snapshot_ttg
        if np.ndim(time_to_go) == 0:
            snap = min(int(np.searchsorted(ttg, time_to_go)), len(ttg) - 1)
            if snap > 0 and abs(ttg[snap - 1] - time_to_go) <= abs(ttg[snap] - time_to_go):
                snap -= 1
            return snap
        snap = np.minimum(np.searchsorted(ttg, time_to_go), len(ttg) - 1)
        lower = np.maximum(snap - 1, 0)
        pick_lower = np.abs(ttg[lower] - time_to_go) <= np.abs(ttg[snap] - time_to_go)
        return np.where(pick_lower & (snap > 0), lower, snap)

    def action_indices(self, x, modes, time_to_go) -> np.ndarray:
        # one gather from the flat (snapshot, mode, node) lookup copy
        m, n_nodes = self._tables.shape[1], (self.grid.n + 1) ** self.grid.dim
        rows = (self._snapshot(time_to_go) * m + np.asarray(modes, dtype=int)) * n_nodes
        return self._lookup.take(rows + self._node_index(x))


def _run_step(spec, x0, mode, horizon, dt_sim) -> float:
    """Check the arguments of a run from (x0, mode) to the horizon; returns
    its time step."""
    if not (0 <= mode < spec.m):
        raise ConfigError(f"mode must be in [0, {spec.m}), got {mode}")
    if not np.all(np.isfinite(np.asarray(x0, dtype=float))):
        raise ConfigError(f"start point must be finite, got {x0!r}")
    dt = float(spec.dt_sim if dt_sim is None else dt_sim)
    for what, value in (("horizon", horizon), ("dt_sim", dt)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{what} must be positive and finite, got {value!r}")
    check_step_budget(float(horizon) / dt, f"dt_sim = {dt!r} (horizon {horizon!r})")
    return dt


def _destination_cdf(spec, R):
    """Row i: cumulative probabilities of the modes a switch out of mode i
    lands on.  Rows of modes that never switch (R_i = 0) are unused."""
    g = spec.rates.copy()
    np.fill_diagonal(g, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.cumsum(g / R[:, None], axis=1)


def _draw_destinations(cdf, modes, u):
    """Destination modes for switching paths; u uniform in [0,1)."""
    out = np.sum(cdf[modes] <= u[:, None], axis=1)
    return np.minimum(out, len(cdf) - 1)


def simulate_trajectory(
    spec: SwitchingProcessSpec,
    policy,
    x0,
    mode0: int,
    horizon: float,
    seed: int,
    dt_sim: float | None = None,
) -> Path:
    """One path of ``estimate_value``'s time loop, drawn from
    ``np.random.default_rng(seed)``, with a full record."""
    dt = _run_step(spec, x0, mode0, horizon, dt_sim)
    record = []
    cost = _run_batch(spec, policy, x0, mode0, horizon, dt, np.random.default_rng(seed), 1, record)
    times, positions, modes, actions = map(np.asarray, zip(*record))
    return Path(times, positions, modes, actions, float(cost[0]))


def _advance(spec, roles, policy, x, modes, cost, seg, time_to_go):
    """Move the paths with seg > 0 along their actions for seg and charge
    their running cost, in place; returns those paths' action indices.
    Only those paths are looked up and evaluated; ``time_to_go`` is one
    number or one entry per path, and ``roles`` the ``_one_call`` of the
    dynamics and of the costs."""
    live = seg > 0
    if np.all(live):
        idx = slice(None)
    else:
        idx = np.flatnonzero(live)
        if not len(idx):
            return
        if np.ndim(time_to_go):
            time_to_go = time_to_go[idx]
    xs, ms, s = x[idx], modes[idx], seg[idx]
    a_idx = policy.action_indices(xs, ms, time_to_go)
    a = spec.control_set.take(a_idx, axis=0)
    v, c = (
        _per_callable(fns, ms, xs, a, shape) if role is None
        else role[0](xs, a, **({role[1]: role[2].take(ms, axis=-1)} if role[1] else {}))
        for fns, role, shape in zip((spec.dynamics, spec.costs), roles, (xs.shape, (len(xs),)))
    )
    cost[idx] += c * s
    x[idx] = _wrap(xs + s[:, None] * v)
    return a_idx


def _one_call(fns):
    """(fn, key, stack) if one call of fn = fns[0] serves every mode: all
    modes share fn (key None), or their partials differ only in the keyword
    ``key`` named by the function's ``mode_keyword``, stacked on a trailing
    mode axis in ``stack``; else None."""
    fn = fns[0]
    key = getattr(getattr(fn, "func", None), "mode_keyword", None)
    try:
        if all(g is fn or key and (g.func, {**g.keywords, key: 0})
               == (fn.func, {**fn.keywords, key: 0}) for g in fns):
            return fn, key, key and np.stack([g.keywords[key] for g in fns], axis=-1)
    except (AttributeError, ValueError):  # not partials, or arrays that do not compare
        pass
    return None


def _per_callable(fns, ms, x, a, shape):
    """Each present mode's callable on its rows, gathered and scattered."""
    out = np.empty(shape)
    for i in np.flatnonzero(np.bincount(ms)).tolist():
        sel = np.flatnonzero(ms == i)
        out[sel] = fns[i](x.take(sel, axis=0), a.take(sel, axis=0))
    return out


def _clock(R, draw):
    """Times to the next switch at rates R from standard exponential draws."""
    with np.errstate(divide="ignore"):
        return np.where(R > 0, draw / R, np.inf)


_PAD = 128  # the live prefix grows in blocks of this many rows


def _run_batch(spec, policy, x0, mode0, horizon, dt, rng, n, record=None) -> np.ndarray:
    """Costs of n paths from (x0, mode0), advanced in one time loop; every
    random number comes from ``rng``.  A ``record`` list, for n = 1, gets the
    path's (t, x, mode, action) where each of its moves starts, and at the end.
    Row 0 is the cohort (clock inf), row r > 0 the path with the r-th earliest
    first clock before the horizon; a pass covers the rows [:L] whose clock
    rings before the step end, padded to a multiple of ``_PAD``."""
    R = spec.total_rates()
    cdf = _destination_cdf(spec, R)
    first = _clock(R[mode0], rng.exponential(size=n))
    ids = sorted(np.flatnonzero(first < horizon).tolist(), key=first.item)
    path_of, rows, L = [-1] + ids, 1 + len(ids), 0
    arrive = first[ids]
    x = np.broadcast_to(_wrap(np.atleast_1d(np.asarray(x0, dtype=float))), (rows, spec.dim)).copy()
    modes = np.full(rows, int(mode0))
    cost = np.zeros(rows)
    next_switch = np.concatenate(([np.inf], arrive))
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    roles = [_one_call(spec.dynamics), _one_call(spec.costs)]

    def move(seg, t):
        # the rows with seg > 0 move from time t, one number or one per row;
        # a recorded path is the last row, always in the prefix
        row = record is not None and seg[-1] > 0 and (np.ravel(t)[-1], xs[-1].copy(), ms[-1])
        a_idx = _advance(spec, roles, policy, xs, ms, cs, seg, horizon - t)
        if row:
            record.append(row + (a_idx[-1],))

    t0 = 0.0
    for k in range(n_steps):
        t1 = min((k + 1) * dt, horizon)
        grown = min(-(-(1 + int(arrive.searchsorted(t1))) // _PAD) * _PAD, rows)
        if grown > L:
            x[L:grown], cost[L:grown] = x[0], cost[0]
            L = grown
        xs, ms, cs, ns = x[:L], modes[:L], cost[:L], next_switch[:L]
        # every row starts the step at t0, so the time to go is one number
        seg = np.maximum(np.minimum(ns, t1) - t0, 0.0)
        move(seg, t0)
        cur = t0 + seg
        while True:
            # the few rows whose clock rang inside the step switch mode and
            # finish the step from their own switch time, drawing in path order
            cand = np.flatnonzero(ns <= t1 - 1e-15)
            switching = cand[cur[cand] >= ns[cand] - 1e-15]
            if not len(switching):
                break
            switching = np.array(sorted(switching.tolist(), key=path_of.__getitem__))
            u = rng.random(len(switching))
            ms[switching] = _draw_destinations(cdf, ms[switching], u)
            ns[switching] = cur[switching] + _clock(
                R[ms[switching]], rng.exponential(size=len(switching))
            )
            seg = np.maximum(np.minimum(ns, t1) - cur, 0.0)
            move(seg, cur)
            cur += seg
        t0 = t1
    # back to path order; a path whose row never entered the prefix is row 0
    row_of = np.zeros(n, dtype=np.intp)
    row_of[ids] = np.arange(1, rows)
    row_of[row_of >= L] = 0
    x, modes, cost = x[row_of], modes[row_of], cost[row_of]
    for i in range(spec.m):  # not np.unique: a first sort maps ~1 MB of numpy's code
        sel = modes == i
        if sel.any():
            cost[sel] += spec.terminal[i](x[sel])
    if record is not None:
        record.append((t0, x[0].copy(), modes[0], record[-1][3]))
    return cost


def estimate_value(
    spec: SwitchingProcessSpec,
    policy,
    x,
    mode: int,
    horizon: float,
    n_samples: int,
    seed: int,
    dt_sim: float | None = None,
) -> ValueEstimate:
    """Monte Carlo path-cost mean of ``n_samples`` paths, all drawn from the
    one generator ``np.random.default_rng(seed)``."""
    dt = _run_step(spec, x, mode, horizon, dt_sim)
    if n_samples < 100:
        raise ConfigError("need at least 100 samples")
    costs = _run_batch(spec, policy, x, mode, horizon, dt, np.random.default_rng(seed), n_samples)
    mean = float(np.mean(costs))
    std_error = float(np.std(costs, ddof=1) / np.sqrt(len(costs)))
    return ValueEstimate(
        mean=mean, std_error=std_error, samples=len(costs), policy_id=policy.policy_id
    )
