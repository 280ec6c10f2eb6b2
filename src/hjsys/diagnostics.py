"""Post-processing of trajectories: drift-compensated profiles, the backward
oscillation functional, the log transform, and component-gap decay.

Everything here consumes an immutable trajectory and a drift vector c (one
constant per component, cost-rate units) and works with the shifted field

    phi_i(x, t) = u_i(x, t) + c_i t,

which is the quantity expected to settle; ``Trajectory.shifted`` computes
it.  Trajectory values are one (K, m) + grid.shape array for K snapshots,
and everything here but the reference ``p_eta`` reduces over its time
axis.  The oscillation functional

    P_eta[phi](t) = max over grid x and snapshot times s >= t of
                    [phi(x, t) - phi(x, s) - 2 eta (s - t)],  clamped at 0,

measures how far phi is from being nondecreasing in time up to slope 2 eta;
it vanishes identically once the profile has converged.  It is evaluated at
snapshot times only, so the snapshot cadence bounds its resolution and is
recorded in reports.

The log transform replaces phi by w = log(phi + kappa) with the single
constant kappa chosen to make min phi + kappa = 1 over the whole trajectory;
w is the canonical input for the oscillation functional in the nonconvex
setting (the transform preserves ordering and turns multiplicative structure
of the gradient terms into additive one).

Component gaps: Phi(t) = max_{i != j} sup_x |u_i - u_j| contracts at the
coupling's certified rate when the Hamiltonians are identical; the fitted
exponential rate is extracted by least squares on log Phi over the window
where Phi sits between 10x the numerical floor and half its initial value.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .coupling import delta_rate
from .errors import ConfigError, DivergenceError, StructureError
from .evolution import Trajectory
from .grid import GridFunction, interp_periodic, save_json, save_table

__all__ = [
    "shift_trajectory",
    "exp_transform",
    "undo_exp_transform",
    "p_eta",
    "p_eta_table",
    "component_gap_decay",
    "GapDecay",
    "monotone_tail",
    "profile_distances",
    "evaluate_on_set",
    "SetEvaluation",
    "ConvergenceReport",
    "build_report",
]


def _c_vector(traj: Trajectory, c) -> np.ndarray:
    cv = np.atleast_1d(np.asarray(c, dtype=float))
    if cv.size == 1:
        cv = np.full(traj.m, float(cv[0]))
    if cv.shape != (traj.m,):
        raise ConfigError(f"need one drift constant per component, got {cv.shape}")
    return cv


def shift_trajectory(traj: Trajectory, c) -> Trajectory:
    """New trajectory holding u_i + c_i t."""
    cv = _c_vector(traj, c)
    meta = dict(traj.meta)
    meta["drift_shift"] = cv.tolist()
    return Trajectory(grid=traj.grid, times=traj.times, values=traj.shifted(cv), meta=meta)


def exp_transform(traj: Trajectory, c) -> Trajectory:
    """Log of the shifted field, raised by one constant so its min is 1.

    Returns w with exp(w) = u + c t + kappa; kappa and c are kept in
    ``meta`` so the transform can be undone exactly.
    """
    cv = _c_vector(traj, c)
    shifted = traj.shifted(cv)
    kappa = 1.0 - float(np.min(shifted))
    vals = np.log(shifted + kappa)
    if not np.all(np.isfinite(vals)):
        raise DivergenceError("log transform produced non-finite values")
    meta = dict(traj.meta)
    meta["kappa"] = kappa
    meta["drift_shift"] = cv.tolist()
    return Trajectory(grid=traj.grid, times=traj.times, values=vals, meta=meta)


def undo_exp_transform(traj_w: Trajectory) -> Trajectory:
    """Inverse of :func:`exp_transform`, using the constants in meta."""
    if "kappa" not in traj_w.meta or "drift_shift" not in traj_w.meta:
        raise ConfigError("trajectory lacks kappa/drift_shift metadata")
    kappa = float(traj_w.meta["kappa"])
    cv = np.asarray(traj_w.meta["drift_shift"], dtype=float)
    # u = (u + c t) - c t: the shift by -c of exp(w) - kappa
    vals = Trajectory(traj_w.grid, traj_w.times, np.exp(traj_w.values) - kappa).shifted(-cv)
    meta = {k: v for k, v in traj_w.meta.items() if k not in ("kappa", "drift_shift")}
    return Trajectory(grid=traj_w.grid, times=traj_w.times, values=vals, meta=meta)


def _snapshot_at_or_after(times: np.ndarray, t: float) -> int:
    if t > times[-1] + 1e-9:
        raise ConfigError(
            f"t = {t} lies beyond the last snapshot at {float(times[-1])}"
        )
    return int(np.searchsorted(times, t - 1e-9))


def p_eta(traj: Trajectory, component: int, eta: float, t: float) -> float:
    """Backward oscillation of component i of an already-shifted trajectory.

    The input must be the field expected to settle (u + c t, or its log
    transform); no drift is applied here.
    """
    if not eta >= 0:  # NaN fails too
        raise ConfigError("eta must be nonnegative")
    times = traj.times
    k0 = _snapshot_at_or_after(times, t)
    phi0 = traj.values[k0][component]
    best = 0.0
    for s in range(k0, len(times)):
        bracket = float(np.max(phi0 - traj.values[s][component])) - 2 * eta * float(
            times[s] - times[k0]
        )
        best = max(best, bracket)
    return best


def p_eta_table(
    traj: Trajectory, etas, ts=None, components=None
) -> list:
    """Rows (eta, t, max over components of P_eta).

    Shares the table gap[k, s] = max over components and nodes of
    phi(t_k) - phi(t_s), s >= k, across etas.  It is built with one sweep
    over the later snapshots per start snapshot, so no temporary outgrows
    the trajectory.
    """
    etas = [float(eta) for eta in etas]
    if not all(eta >= 0 for eta in etas):
        raise ConfigError("eta must be nonnegative")
    times = traj.times
    K = len(times)
    if ts is None:
        kidx = np.arange(K)
    else:
        kidx = np.array([_snapshot_at_or_after(times, float(t)) for t in ts], dtype=int)
    comps = np.arange(traj.m) if components is None else list(components)
    flat = traj.values[:, comps].reshape(K, len(comps), -1)
    gap = np.full((K, K), -np.inf)
    for k in range(K):
        gap[k, k:] = np.max(flat[k] - flat[k:], axis=(1, 2))
    lag = times[None, :] - times[kidx, None]
    rows = []
    for eta in etas:
        vals = np.max(gap[kidx] - 2 * eta * lag, axis=1)
        rows.extend((eta, float(times[k]), max(0.0, float(v))) for k, v in zip(kidx, vals))
    return rows


@dataclass
class GapDecay:
    gap_table: list  # (t, Phi(t))
    fitted_rate: float | None
    window: tuple | None
    floor: float
    coupling_rate: float | None = None
    notes: list = field(default_factory=list)


def component_gap_decay(
    traj: Trajectory, floor: float | None = None
) -> GapDecay:
    """Phi(t) per snapshot plus the fitted exponential decay rate.

    Only meaningful when every component has the same Hamiltonian; the
    trajectory must carry that flag.  The fit window keeps snapshots with
    Phi between 10x the floor (default: the terminal gap, where scheme
    error dominates) and Phi(0)/2.
    """
    if not traj.meta.get("identical_hamiltonians", False):
        raise StructureError(
            "gap decay requires a system with one shared Hamiltonian; "
            "this trajectory is not flagged as such"
        )
    if traj.m < 2:
        raise StructureError("gap decay needs at least two components")
    times = traj.times
    i, j = np.triu_indices(traj.m, 1)
    pair_gaps = np.abs(traj.values[:, i] - traj.values[:, j])
    phis = np.max(pair_gaps, axis=tuple(range(1, pair_gaps.ndim)))
    table = [(float(t), float(p)) for t, p in zip(times, phis)]
    notes = []
    rate = None
    window = None
    if phis[0] <= 0:
        notes.append("initial gap is zero; rate undefined")
    else:
        if floor is None:
            floor = max(float(phis[-1]), float(phis[0]) * 1e-12, 1e-300)
        sel = (phis >= 10 * floor) & (phis <= phis[0] / 2) & (phis > 0)
        if np.sum(sel) < 3:
            notes.append("fewer than 3 snapshots in the fit window; rate undefined")
        else:
            ts, ys = times[sel], np.log(phis[sel])
            rate = -float(np.polyfit(ts, ys, 1)[0])
            window = (float(ts[0]), float(ts[-1]))
    D = traj.meta.get("system", {}).get("coupling", {}).get("entries")
    coupling_rate = None
    if D is not None:
        try:
            coupling_rate = delta_rate(np.asarray(D, dtype=float))
        except Exception as exc:  # no rate or a malformed manifest: report, don't fail
            notes.append(f"coupling rate unavailable: {exc}")
    return GapDecay(
        gap_table=table,
        fitted_rate=rate,
        window=window,
        floor=float(floor) if floor is not None else 0.0,
        coupling_rate=coupling_rate,
        notes=notes,
    )


def monotone_tail(traj: Trajectory, c, tol: float | None = None) -> tuple[bool, float]:
    """Check u + c t is nondecreasing in t (within tol) on the last quarter.

    Returns (ok, worst increment), worst being the most negative nodewise
    increase between consecutive tail snapshots.
    """
    cv = _c_vector(traj, c)
    if tol is None:
        dt = float(traj.meta.get("dt", 0.0))
        tol = 5 * (traj.grid.h + dt)
    k_start = max(0, int(np.ceil(0.75 * (len(traj.times) - 1))))
    worst = float(np.min(np.diff(traj.shifted(cv)[k_start:], axis=0), initial=0.0))
    return worst >= -tol, worst


def profile_distances(traj: Trajectory, c) -> list:
    """Rows (t, max_i sup |phi_i(t) - phi_i(T)|) with phi = u + c t; last is 0."""
    phi = traj.shifted(_c_vector(traj, c))
    dists = np.max(np.abs(phi - phi[-1]), axis=tuple(range(1, phi.ndim)))
    return [(float(t), float(d)) for t, d in zip(traj.times, dists)]


@dataclass
class SetEvaluation:
    kind: str
    points: list
    values: list  # values[i] = component i at each point
    empty: bool
    notes: list = field(default_factory=list)


def evaluate_on_set(
    vs,
    kind: str,
    fs=None,
    points=None,
    tie_tol: float = 1e-9,
) -> SetEvaluation:
    """Evaluate component functions on a distinguished node set.

    kind "common_min" ("S"): nodes minimizing every source f_i at once.
    kind "flat_min" ("F"): those common minimizers where the f_i values also
    coincide; empty (with a note) when the minimum levels differ.
    kind "custom": an explicit point list, values by periodic interpolation.
    """
    vs = list(vs)
    if not vs:
        raise ConfigError("need at least one component function")
    grid = vs[0].grid
    key = {"S": "common_min", "F": "flat_min"}.get(kind, kind)
    notes: list[str] = []
    if key == "custom":
        if points is None:
            raise ConfigError("custom evaluation needs a point list")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = [
            [float(x) for x in interp_periodic(v.values, grid, pts)] for v in vs
        ]
        return SetEvaluation(
            kind=key,
            points=[list(map(float, p)) for p in pts],
            values=vals,
            empty=len(pts) == 0,
            notes=notes,
        )
    if key not in ("common_min", "flat_min"):
        raise ConfigError(f"unknown set kind {kind!r}")
    if fs is None:
        raise ConfigError("source functions are required to locate minimizers")
    fvals = [np.asarray(f.values if isinstance(f, GridFunction) else f) for f in fs]
    mask = np.ones(grid.shape, dtype=bool)
    for fv in fvals:
        mask &= fv <= np.min(fv) + tie_tol
    if key == "flat_min" and len(fvals) > 1:
        stack = np.stack(fvals)
        mask &= (np.max(stack, axis=0) - np.min(stack, axis=0)) <= tie_tol
        if not np.any(mask):
            notes.append("minimum levels differ; the flat set is empty")
    idx = np.argwhere(mask)
    pts = idx.astype(float) * grid.h
    vals = [[float(v.values[tuple(j)]) for j in idx] for v in vs]
    return SetEvaluation(
        kind=key,
        points=[list(map(float, p)) for p in pts],
        values=vals,
        empty=len(idx) == 0,
        notes=notes,
    )


@dataclass
class ConvergenceReport:
    c_used: list
    profile_distances: list
    p_eta_table: list
    gap_table: list | None = None
    fitted_gap_rate: float | None = None
    monotone_tail_ok: bool | None = None
    monotone_tail_worst: float | None = None
    snapshot_cadence: float | None = None
    set_evaluations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def save(self, directory) -> None:
        save_json(asdict(self), directory, "convergence.json")
        save_table(self.profile_distances, directory, "profile_distances.csv", "t,distance")
        save_table(self.p_eta_table, directory, "p_eta.csv", "eta,t,value")
        if self.gap_table is not None:
            save_table(self.gap_table, directory, "gap.csv", "t,gap")


def build_report(
    traj: Trajectory,
    c,
    etas=(0.05, 0.1, 0.2),
    use_log_transform: bool = True,
    gap: bool = False,
    set_evaluations=(),
) -> ConvergenceReport:
    """Assemble the standard diagnostics for one trajectory."""
    cv = _c_vector(traj, c)
    dists = profile_distances(traj, cv)
    base = exp_transform(traj, cv) if use_log_transform else shift_trajectory(traj, cv)
    petas = [list(r) for r in p_eta_table(base, etas)]
    tail_ok, tail_worst = monotone_tail(traj, cv)
    gap_table = None
    rate = None
    notes = []
    if gap:
        gd = component_gap_decay(traj)
        gap_table, rate = gd.gap_table, gd.fitted_rate
        notes.extend(gd.notes)
    times = traj.times
    cadence = float(np.min(np.diff(times))) if len(times) > 1 else None
    if use_log_transform:
        notes.append("oscillation functional evaluated on the log transform")
    return ConvergenceReport(
        c_used=cv.tolist(),
        profile_distances=[list(r) for r in dists],
        p_eta_table=petas,
        gap_table=gap_table,
        fitted_gap_rate=rate,
        monotone_tail_ok=tail_ok,
        monotone_tail_worst=tail_worst,
        snapshot_cadence=cadence,
        set_evaluations=list(set_evaluations),
        notes=notes,
    )
