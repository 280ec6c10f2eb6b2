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

``estimate_values`` runs the paths of several starts (x0, mode0), which
share the spec, the policy, the horizon and the time step, in one time
loop, vectorized over the sample axis; start k draws every clock and
destination from its own generator, seeded by ``seeds[k]``, so seeded
results are reproducible and each start's estimate is that of
``estimate_value``, the loop's one-start case, on its own seed.
``simulate_trajectory`` runs that loop on one path and records it.  The
policies live in ``bridge`` and are re-exported here.

Each (sub-)step of that loop looks up the moving paths' actions with one
gather from the policy table, evaluates the dynamics and the costs with
one call each where ``_one_call`` allows, else per mode, and wraps
positions with ``_wrap``.  Callables must therefore be pointwise.

Between switches a path follows a deterministic flow, and the paths of one
start begin at one (x0, mode0), so until its first clock rings a path is
the same as every other such path of its start.  The loop moves them all
as their start's cohort row, and a path's own row joins the passes in the
step its first clock rings.  A step covers a prefix of the rows: the
cohorts and the paths that have switched, of every start, in the order of
their first clocks; it does so in passes no longer than the prefix of the
start with the most such paths.  As the callables and the policy are
pointwise, a row's result does not depend on the other rows, so seeded
results are those of one row per path, bit for bit.  A run whose paths
would switch more often than the step budget allows is refused.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import ConstantPolicy, GreedyGradientPolicy, coupling_from_spec, hamiltonian_from_spec
from .errors import STEP_BUDGET, ConfigError, StructureError, check_step_budget

__all__ = [
    "SwitchingProcessSpec",
    "Path",
    "ValueEstimate",
    "ConstantPolicy",
    "GreedyGradientPolicy",
    "simulate_trajectory",
    "estimate_value",
    "estimate_values",
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
    ``terminal[i](x)`` is the payment at the horizon in mode i, pointwise
    too: it is charged on the rows, cohorts included, before they are put
    back in path order.
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


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _run_step(spec, starts, seeds, horizon, dt_sim) -> float:
    """Check the arguments of runs from each (x0, mode) of ``starts``, start
    k seeded by ``seeds[k]``, to the horizon; returns their time step.  With
    several starts, an error about start k begins with "start k: "."""
    if not len(starts) or len(seeds) != len(starts):
        raise ConfigError(f"need one seed per start and at least one start, got "
                          f"{len(starts)} starts and {len(seeds)} seeds")
    for k, ((x0, mode), seed) in enumerate(zip(starts, seeds)):
        where = f"start {k}: " if len(starts) > 1 else ""
        if not _is_integer(mode) or not 0 <= mode < spec.m:
            raise ConfigError(f"{where}mode must be an integer in [0, {spec.m}), got {mode!r}")
        if np.shape(x0) != (spec.dim,):
            raise ConfigError(f"{where}x0 must have shape ({spec.dim},), got {np.shape(x0)}")
        if not np.all(np.isfinite(np.asarray(x0, dtype=float))):
            raise ConfigError(f"{where}x0 must be finite, got {x0!r}")
        if not _is_integer(seed) or seed < 0:
            raise ConfigError(f"{where}seed must be a nonnegative integer, got {seed!r}")
    dt = float(spec.dt_sim if dt_sim is None else dt_sim)
    for what, value in (("horizon", horizon), ("dt_sim", dt)):
        if not 0 < value < np.inf:
            raise ConfigError(f"{what} must be positive and finite, got {value!r}")
    check_step_budget(float(horizon) / dt, f"dt_sim = {dt!r} (horizon {horizon!r})")
    # each switch splits a step, so a path's switches count against the budget
    # too: one into each mode it can reach, and in the reached modes on a cycle
    # of the rate graph about the horizon times their largest total rate
    edges = (spec.rates > 0) & ~np.eye(spec.m, dtype=bool)
    reach = np.linalg.matrix_power(edges | np.eye(spec.m, dtype=bool), spec.m)  # i leads to j
    reached = np.any(reach[[mode for _, mode in starts]], axis=0)
    rate = float(np.max(spec.total_rates()[reached & np.diag(edges @ reach)], initial=0.0))
    switches = float(horizon) * rate + np.count_nonzero(reached)
    if not switches <= STEP_BUDGET:
        raise ConfigError(
            f"rates and horizon {horizon!r}: {switches:.3g} expected switches per path (one "
            f"per reachable mode and the horizon times the largest total rate on a cycle, "
            f"{rate!r}) exceed the budget of {STEP_BUDGET:,}"
        )
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
    start = [(x0, mode0)]
    dt = _run_step(spec, start, [seed], horizon, dt_sim)
    record = []
    (cost,) = _run_batch(spec, policy, start, horizon, dt, [np.random.default_rng(seed)], 1, record)
    times, positions, modes, actions = map(np.asarray, zip(*record))
    return Path(times, positions, modes, actions, float(cost[0]))


def _advance(spec, roles, policy, x, modes, cost, seg, time_to_go, idx=slice(0, None)):
    """Move the paths ``idx`` (a slice or ascending indices of the rows of
    x, modes and cost) with seg > 0 along their actions for seg and charge
    their running cost, in place; returns those paths' action indices.
    Only those paths are looked up and evaluated; seg and ``time_to_go``
    (one number or one entry per path) follow ``idx``, and ``roles`` is the
    ``_one_call`` of the dynamics and of the costs."""
    live = seg > 0
    if not np.all(live):
        live = np.flatnonzero(live)
        if not len(live):
            return
        idx = idx[live] if isinstance(idx, np.ndarray) else live + idx.start
        seg = seg[live]
        if np.ndim(time_to_go):
            time_to_go = time_to_go[live]
    xs, ms, s = x[idx], modes[idx].astype(int), seg
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


def _first_rows(R, starts, rngs, n, horizon):
    """The rows of ``_run_batch`` past the cohorts: each start's paths whose
    first clock rings before the horizon, in the order of that clock, a tie
    to the lower start.  Returns every row's key and clock, and the most
    such paths of one start.  Path i of start p has the key p n + i, the
    order of its draws; cohort p has p n and clock inf."""
    P, arrive, keys = len(starts), [], []
    for p, ((_, mode0), rng) in enumerate(zip(starts, rngs)):
        first = _clock(R[mode0], rng.exponential(size=n))
        ids = np.array(sorted(np.flatnonzero(first < horizon).tolist(), key=first.item), dtype=int)
        arrive.append(first[ids])
        keys.append(ids + p * n)
    rows = P + sum(map(len, arrive))
    key, clock = np.empty(rows, np.int32 if P * n < 2**31 else int), np.full(rows, np.inf)
    key[:P] = np.arange(P) * n
    # merge the sorted clocks without a sort (a first numpy sort maps ~1 MB
    # of its code): a clock's row is P plus its index among its start's
    # clocks plus the other starts' clocks before it
    for p, a in enumerate(arrive):
        row = P + np.arange(len(a)) + sum(
            b.searchsorted(a, "right" if q < p else "left") for q, b in enumerate(arrive) if q != p
        )
        key[row], clock[row] = keys[p], a
    return key, clock, max(map(len, arrive))


def _run_batch(spec, policy, starts, horizon, dt, rngs, n, record=None):
    """Yields, start by start, the costs of n paths from each of the P
    (x0, mode0) of ``starts``, all advanced in one time loop; start p draws
    every random number from ``rngs[p]``, in its own path order.  A
    ``record`` list, for one start and n = 1, gets the path's (t, x, mode,
    action) where each of its moves starts, and at the end.

    The rows are those of ``_first_rows``.  A step covers the rows [:L],
    the cohorts and the rows whose first clock rings before the step end,
    in passes of at most ``block`` rows, the prefix that the start with the
    most such paths fills alone: several starts need no larger temporaries
    than one.
    Modes are held in the narrowest integer type, keys in 32 bits where they
    fit, so the rows of several starts cost little more than those of one."""
    P, R = len(starts), spec.total_rates()
    cdf = _destination_cdf(spec, R)
    key, next_switch, most = _first_rows(R, starts, rngs, n, horizon)
    rows, L, block = len(key), 0, P + most
    x, cost = np.empty((rows, spec.dim)), np.zeros(rows)
    modes = np.zeros(rows, np.min_scalar_type(spec.m - 1))
    x[:P] = _wrap(np.array([x0 for x0, _ in starts], dtype=float))
    modes[:P] = [mode0 for _, mode0 in starts]
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    roles = [_one_call(spec.dynamics), _one_call(spec.costs)]

    def move(seg, t, idx):
        # the rows idx with seg > 0 move from time t, one number or one per
        # row; a recorded path is the last row, always in the prefix
        row = record is not None and seg[-1] > 0 and np.arange(L)[idx][-1] == L - 1 and (
            np.ravel(t)[-1], x[L - 1].copy(), int(modes[L - 1]))
        a_idx = _advance(spec, roles, policy, x, modes, cost, seg, horizon - t, idx)
        if row:
            record.append(row + (a_idx[-1],))

    t0 = 0.0
    for k in range(n_steps):
        t1 = min((k + 1) * dt, horizon)
        lo = max(L, P)  # the rows [lo:] still hold their first clocks, in order
        grown = lo + int(next_switch[lo:].searchsorted(t1))
        if grown > L:  # the joining rows start as copies of their start's cohort
            own = key[:P].searchsorted(key[L:grown], "right") - 1
            x[L:grown], modes[L:grown], cost[L:grown] = x[own], modes[own], cost[own]
            L = grown
        # every row starts the step at t0, so the time to go is one number;
        # act: the rows that may still move (time cur < t1) or switch (clock
        # before t1) in the step, cur their time
        act, cur = [], []
        for a in range(0, L, block):
            ns = next_switch[a:min(a + block, L)]
            seg = np.maximum(np.minimum(ns, t1) - t0, 0.0)
            move(seg, t0, slice(a, a + len(ns)))
            seg += t0
            hit = np.flatnonzero(np.minimum(seg, ns) < t1)
            act.append(hit + a)
            cur.append(seg[hit])
        act, cur = np.concatenate(act), np.concatenate(cur)
        act_key = key[act]
        while True:
            # the few rows whose clock rang inside the step switch mode and
            # finish the step from their own switch time; each start draws
            # from its own generator, in its own path order
            ns = next_switch[act]
            cand = np.flatnonzero(ns <= t1 - 1e-15)
            switching = cand[cur[cand] >= ns[cand] - 1e-15].tolist()
            if not switching:
                break
            switching.sort(key=act_key.item)
            counts = [0] * P
            for j in switching:
                counts[act_key.item(j) // n] += 1
            switching = np.array(switching)
            u, e = map(np.concatenate, zip(*[
                (rng.random(c), rng.exponential(size=c)) for rng, c in zip(rngs, counts) if c
            ]))
            sw = act[switching]
            modes[sw] = _draw_destinations(cdf, modes[sw], u)
            ns[switching] = next_switch[sw] = cur[switching] + _clock(R[modes[sw]], e)
            seg = np.maximum(np.minimum(ns, t1) - cur, 0.0)
            move(seg, cur, act)
            cur += seg
        t0 = t1
    del next_switch  # each array is freed once done with, to lower the peak
    # the terminal payment, a pass of rows at a time; modes and keys are
    # widened to int64 first, as `==` on a large uint8 array and `-` on int32
    # map 64 kB of numpy's code that nothing else in a run touches
    for a in range(0, L, block):
        ms = modes[a:a + block].astype(int)
        for i in range(spec.m):  # not np.unique: a first sort maps ~1 MB of numpy's code
            sel = np.flatnonzero(ms == i) + a
            if len(sel):
                cost[sel] += spec.terminal[i](x[sel])
    if record is not None:
        record.append((t0, x[L - 1].copy(), int(modes[L - 1]), record[-1][3]))
    del x, modes
    # each start's costs in path order, one start at a time: a path whose row
    # never entered the prefix is its start's cohort row
    start = key[:P].searchsorted(key[P:L], "right") - 1
    for p in range(P):
        mine = np.flatnonzero(start == p) + P
        out = np.full(n, cost[p])
        out[key[mine].astype(int) - p * n] = cost[mine]
        yield out


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
    return estimate_values(spec, policy, [(x, mode)], horizon, n_samples, [seed], dt_sim)[0]


def estimate_values(
    spec: SwitchingProcessSpec,
    policy,
    starts,
    horizon: float,
    n_samples: int,
    seeds,
    dt_sim: float | None = None,
) -> list:
    """``estimate_value`` at each (x0, mode0) of ``starts``, start k drawn
    from ``np.random.default_rng(seeds[k])``, with all the paths advanced in
    one time loop; each estimate is bit for bit that of its own
    ``estimate_value`` call."""
    dt = _run_step(spec, starts, seeds, horizon, dt_sim)
    if not _is_integer(n_samples) or n_samples < 100:
        raise ConfigError(f"n_samples must be an integer of at least 100, got {n_samples!r}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return [
        ValueEstimate(
            mean=float(np.mean(costs)),
            std_error=float(np.std(costs, ddof=1) / np.sqrt(len(costs))),
            samples=len(costs),
            policy_id=policy.policy_id,
        )
        for costs in _run_batch(spec, policy, starts, horizon, dt, rngs, n_samples)
    ]
