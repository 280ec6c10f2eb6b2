"""Explicit monotone time marching for weakly coupled HJ systems.

Per component, forward Euler on the monotone numerical flux of the
Hamiltonian plus the zeroth-order coupling term:

    u_i <- u_i - dt * ( flux_i(x, D-u_i, D+u_i) + sum_j d_ij u_j )

Under the CFL rule dt = min(cfl * h / (N * max_i lf_alpha_i), cfl / max_i d_ii)
with cfl <= 1/2 the scheme is monotone, so ordered initial data stay ordered
up to roundoff (the comparison check); ``FluxKernel.check_cfl`` refuses a
step whose summed budget dt (max sum_k alpha_k / h + max d_ii) exceeds 1.
Each inter-snapshot segment is cut into equal steps no longer than the CFL
step, so snapshot times are hit exactly.

Every solver takes the flux from a ``FluxKernel``, one per system and flux
mode, equal bit for bit to ``numerical_flux`` of each component's
``diff_arrays``.  ``solve_batch`` marches B initial data stacked as
(B, m) + grid.shape in place, v -= dt * (flux + D v); every operation is
elementwise or per member, so each member equals its own ``solve`` bit for
bit (``solve`` is a batch of one, ``step`` updates a copy).  The march
decides CFL and finiteness once per chunk of _CHUNK steps; a failing chunk
is replayed deciding after every step, so the first failing step's error
names its time and member.  That chunk, ``march_chunk``, is the one
explicit step: the discounted march runs it with lambda v added.  Member
b's ``Trajectory.values`` is row b of one (B, K, m) + grid.shape snapshot
array; ``Trajectory.shifted`` is the drift u_i + c_i t.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import groupby
from typing import Sequence

import numpy as np

from .coupling import CouplingMatrix, validate_monotone
from .errors import ConfigError, DivergenceError, StructureError, check_step_budget
from .grid import Grid, GridFunction, diff_arrays, diff_axis, load_binary, save_binary, save_json
from .hamiltonians import FAMILY_EVALUATORS, global_flux, local_flux

__all__ = [
    "HJSystem",
    "FluxKernel",
    "SystemState",
    "EvolutionConfig",
    "Trajectory",
    "cfl_dt",
    "step",
    "solve",
    "solve_batch",
    "march_chunk",
    "comparison_check",
    "lipschitz_check",
    "ComparisonReport",
    "LipschitzReport",
]


@dataclass(frozen=True)
class HJSystem:
    """Bundle of Hamiltonians, a monotone coupling, and grid."""

    hams: tuple
    coupling: CouplingMatrix
    grid: Grid
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hams = tuple(self.hams)
        object.__setattr__(self, "hams", hams)
        if len(hams) != self.coupling.m:
            raise StructureError(
                f"{len(hams)} Hamiltonians vs coupling size {self.coupling.m}"
            )
        for i, h in enumerate(hams):
            if h.dim != self.grid.dim:
                raise StructureError(f"Hamiltonian {i} has dim {h.dim}, grid {self.grid.dim}")
        ok, violations = validate_monotone(self.coupling.entries)
        if not ok:
            raise StructureError(f"coupling is not monotone: {violations[:3]}")

    @property
    def m(self) -> int:
        return self.coupling.m

    def flux_kernel(self, mode: str = "local") -> "FluxKernel":
        """The flux kernel for ``mode``, built on first use and then reused."""
        kernel = self._kernels.get(mode)
        if kernel is None:
            kernel = self._kernels[mode] = FluxKernel(self, mode)
        return kernel

    @property
    def identical_hamiltonians(self) -> bool:
        h0 = self.hams[0]
        return all(
            h is h0 or (h.name == h0.name and h.name != "custom" and h.params == h0.params)
            for h in self.hams
        )

    def describe(self) -> dict:
        return {
            "m": self.m,
            "grid": {"dim": self.grid.dim, "n": self.grid.n},
            "hamiltonians": [
                {"name": h.name, "lf_alpha": h.lf_alpha, "params": h.params}
                for h in self.hams
            ],
            "coupling": {"entries": self.coupling.entries.tolist()},
            "identical_hamiltonians": self.identical_hamiltonians,
        }


@dataclass
class SystemState:
    """Time stamp plus the stacked component values, shape (m,) + grid.shape."""

    t: float
    values: np.ndarray
    grid: Grid

    @classmethod
    def from_functions(cls, fns: Sequence[GridFunction], t: float = 0.0) -> "SystemState":
        g = fns[0].grid
        for f in fns[1:]:
            if f.grid != g:
                raise StructureError("components live on different grids")
        return cls(t=t, values=np.stack([f.values for f in fns]), grid=g)


@dataclass(frozen=True)
class EvolutionConfig:
    t_final: float
    snapshot_every: float | None = None
    cfl: float = 0.5
    dt_override: float | None = None
    flux_mode: str = "local"

    def __post_init__(self) -> None:
        if not (0 < self.cfl <= 1):
            raise ConfigError(f"cfl must lie in (0, 1], got {self.cfl}")
        # each test is written so that NaN fails it
        if not 0 <= self.t_final < np.inf:
            raise ConfigError(f"t_final must be nonnegative and finite, got {self.t_final}")
        for name in ("snapshot_every", "dt_override"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.flux_mode not in ("local", "global"):
            raise ConfigError(f"unknown flux mode {self.flux_mode!r}")


_HALF = np.array(0.5)  # numpy applies a 0-d array faster than a Python float


class FluxKernel:
    """Numerical flux of every component of one system, bound to its grid.

    Built by ``HJSystem.flux_kernel`` on the node mesh X: each ``bind(X)``
    (no alpha in global mode), the groups of components evaluated together
    (runs of consecutive components of one family, stacked), the coupling
    ``entries`` and their largest diagonal ``dmax``.
    A step plan per values shape, built on first sight, holds the buffers,
    each group's views of them and its flux form, and family x-data
    materialized at the batch shape; the march, ``step`` and Newton (which
    differentiates this call) run it.  A call returns the flux and the
    per-node sum_k alpha_k (or their running max), shaped like the values;
    they are the plan's, so a caller that keeps one copies it; concurrent
    solves must not share one.
    """

    def __init__(self, system: HJSystem, mode: str):
        if mode not in ("local", "global"):
            raise ConfigError(f"unknown flux mode {mode!r}")
        grid = system.grid
        self.grid = grid
        X = grid.mesh()
        self._plans = {}  # values shape -> _StepPlan
        self.terms = []  # (H(p), axis alpha(pabs) or None for the global flux, lf_alpha)
        for ham in system.hams:
            H, alpha = ham.bind(X)
            self.terms.append((H, None if mode == "global" else alpha, ham.lf_alpha))
        self.local = any(alpha is not None for _, alpha, _ in self.terms)
        self.groups = []  # (component index or slice, H(p), alpha(pabs) or None, lf_alpha)
        # a group is a run of consecutive components of one family
        runs = groupby(range(system.m), lambda i: _family_key(*self.terms[i]) or i)
        for members in (list(run) for _, run in runs):
            sel = members[0]
            H, alpha, lf_alpha = self.terms[sel]
            if len(members) > 1:
                sel = slice(sel, members[-1] + 1)
                H, alpha = (_stacked([self.terms[i][j] for i in members], X.ndim) for j in (0, 1))
            self.groups.append((sel, H, alpha, lf_alpha))
        self.entries = system.coupling.entries
        self.dmax = float(np.max(np.diag(self.entries)))

    def plan(self, shape: tuple) -> "_StepPlan":
        """The step plan for values of ``shape``, built on first use."""
        return self._plans.get(shape) or self._plans.setdefault(shape, _StepPlan(self, shape))

    def __call__(self, values: np.ndarray, fold: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Flux of every component and sum_k alpha_k at every node, both
        shaped like ``values``: (m,) + grid.shape, or (B, m) + grid.shape for
        B members.  With ``fold`` the sums hold the running max over this
        call and the calls since the last one without it."""
        plan = self._plans.get(values.shape) or self.plan(values.shape)
        dminus, dplus, pmid, pabs, jump, out, alpha_sums = plan.buffers
        for axis, dm, dp in plan.axes:
            diff_axis(values, self.grid, axis, dm, dp)
        if self.local:  # pmid holds |D+ v| until the midpoint overwrites it
            np.maximum(np.abs(dminus, out=pabs), np.abs(dplus, out=pmid), out=pabs)
        np.multiply(_HALF, np.add(dminus, dplus, out=pmid), out=pmid)
        np.subtract(dplus, dminus, out=jump)
        for (pm, pa, jp, flux, sums), H, alpha_fn, lf_alpha in plan.groups:
            if alpha_fn is None:
                global_flux(H(pm), jp, lf_alpha, out=flux)
            else:
                alpha = np.asarray(alpha_fn(pa))
                local_flux(H(pm), jp, alpha, out=flux)
                # 1D reads the entry (a zero's sign decides nothing); max(node, node) is node
                node = alpha[..., 0] if self.grid.dim == 1 else np.add.reduce(alpha, axis=-1)
                np.maximum(node, sums if fold else node, out=sums)
        return out, alpha_sums

    def coupling_term(self, values: np.ndarray) -> np.ndarray:
        """sum_j d_ij u_j for every component and member."""
        if self.grid.dim == 1:  # the grid axis is already matmul's column axis
            return np.matmul(self.entries, values)
        rows = values.shape[: values.ndim - self.grid.dim] + (-1,)
        return np.matmul(self.entries, values.reshape(rows)).reshape(values.shape)

    def check_cfl(self, alpha_sums, dt: float, lam: float = 0.0) -> None:
        """Raise unless dt (max sum_k alpha_k / h + max d_ii + lam) <= 1.

        One minus dt times that sum bounds the coefficient of v_i(x_k) in
        the update from below, so the flux and the damping share one budget.
        ``alpha_sums`` holds sum_k alpha_k at every node, shaped like the
        values; the damping is the largest diagonal coupling entry plus the
        discount ``lam``.
        """
        damping = self.dmax + lam
        # x -> dt * (x / h + damping) rounds monotonically: the largest sum decides
        if dt * (np.maximum.reduce(alpha_sums, axis=None) / self.grid.h + damping) > 1.0 + 1e-9:
            per_member = tuple(range(-self.grid.dim - 1, 0))  # each member's components, nodes
            worst = dt * (np.maximum.reduce(alpha_sums, axis=per_member) / self.grid.h + damping)
            k = int(np.flatnonzero(worst > 1.0 + 1e-9)[0])
            raise DivergenceError(
                (f"member {k}: " if worst.size > 1 else "") + "CFL budget exceeded: "
                f"dt*sum(alpha)/h + dt*(max d_ii + lambda) = {float(worst.flat[k])!r}; "
                "enlarge lf_alpha/p_box or shrink dt"
            )


class _StepPlan:
    """A kernel's buffers, difference axes and group work for one values shape."""

    def __init__(self, kernel: FluxKernel, shape: tuple):
        dim = kernel.grid.dim
        lead = shape[: len(shape) - dim - 1]
        # D-, D+, midpoint, |p|, jump; the flux; the per-node alpha sums
        self.buffers = [np.empty(shape + (dim,)) for _ in range(5)]
        self.buffers += [np.empty(shape), np.empty(shape)]
        dminus, dplus, *rest = self.buffers
        self.axes = [(len(shape) - dim + k, dminus[..., k], dplus[..., k]) for k in range(dim)]
        self.groups = []  # (views of rest, H, alpha or None, lf_alpha)
        for sel, H, alpha, lf_alpha in kernel.groups:
            c = (slice(None),) * len(lead) + (sel, Ellipsis)
            if alpha is None:  # the global flux's alpha sums do not depend on the values
                rest[-1][c] = lf_alpha * dim
            H, alpha = (_at_batch_shape(fn, lead) for fn in (H, alpha))
            self.groups.append(([a[c] for a in rest], H, alpha, lf_alpha))


def _at_batch_shape(fn, lead: tuple):
    """A family evaluator with its array keywords materialized at ``lead``."""
    if not lead or _family(fn) is fn:
        return fn
    return partial(fn.func, **{
        key: np.broadcast_to(a, lead + a.shape).copy() if isinstance(a, np.ndarray) else a
        for key, a in fn.keywords.items()
    })


def _family(fn):
    """The built-in family function that ``fn`` binds, else ``fn`` itself."""
    return fn.func if isinstance(fn, partial) and fn.func in FAMILY_EVALUATORS else fn


def _family_key(H, alpha, lf_alpha):
    """What components must share to be evaluated together: the family's H
    and bound, and in global mode lf_alpha; None for H outside the families."""
    if _family(H) is H:
        return None
    return _family(H), _family(alpha), lf_alpha if alpha is None else None


def _stacked(fns, ndim: int):
    """One evaluator for components bound to one family function: its
    keywords stacked on a leading component axis, x-data shaped (k,) +
    grid.shape (+ (dim,)) and constants (k,) + (1,) * ndim, to broadcast
    against gradients.  A shared function without x-data, or None, is
    returned as is."""
    if _family(fns[0]) is fns[0]:
        return fns[0]
    stacks = {key: np.stack([fn.keywords[key] for fn in fns]) for key in fns[0].keywords}
    return partial(fns[0].func, **{
        key: s.reshape(s.shape + (1,) * ndim) if s.ndim == 1 else s for key, s in stacks.items()
    })


def cfl_dt(system: HJSystem, config: EvolutionConfig) -> float:
    """Stable explicit step: min(cfl*h/(N*max alpha), cfl/max d_ii)."""
    if config.dt_override is not None:
        return float(config.dt_override)
    amax = max(h.lf_alpha for h in system.hams)
    dt = config.cfl * system.grid.h / (system.grid.dim * amax)
    dmax = system.flux_kernel(config.flux_mode).dmax
    if dmax > 0:
        dt = min(dt, config.cfl / dmax)
    return float(dt)


def _advance(kernel: FluxKernel, v: np.ndarray, dt: float, t: float, fold: bool = False,
             decide: bool = True, lam: float = 0.0) -> None:
    """v -= dt * (lam v + flux + D v) in place, for every member, reaching time t;
    then, if ``decide``, refuse a broken CFL budget or a non-finite v.  With ``fold``
    the budget is the alpha sums' running max since the last step without it."""
    flux, alpha_sums = kernel(v, fold)
    if lam:
        np.add(flux, np.multiply(lam, v), out=flux)
    np.add(flux, kernel.coupling_term(v), out=flux)
    np.subtract(v, np.multiply(dt, flux, out=flux), out=v)
    if not decide:
        return
    kernel.check_cfl(alpha_sums, dt, lam)
    # a finite sum proves every entry finite; an overflowing one proves nothing
    if not math.isfinite(np.add.reduce(v, axis=None)) and not np.all(np.isfinite(v)):
        grid, m = kernel.grid, len(kernel.terms)
        row, flat = divmod(int(np.flatnonzero(~np.isfinite(v))[0]), grid.num_nodes)
        raise DivergenceError(
            f"non-finite value after step to t = {float(t)!r}: "
            + (f"member {row // m}: " if v.size > m * grid.num_nodes else "")
            + f"component {row % m}, node {flat} at x = {grid.nodes()[flat].tolist()}"
        )


# steps per decision: a failing march does at most this many steps twice
_CHUNK = 64


def march_chunk(kernel: FluxKernel, v: np.ndarray, dt: float, t: float, steps: int,
                lam: float = 0.0) -> float:
    """``steps`` steps of dt from time t, discounted by ``lam``, decided at the
    last (a non-finite v_i stays so: it enters its own update); any failure, a
    floating-point error too, replays them from the start, deciding after each."""
    start, t0 = v.copy(), t
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for j in range(steps):
                t += dt
                _advance(kernel, v, dt, t, fold=j > 0, decide=j == steps - 1, lam=lam)
        return t
    except Exception:  # the replay raises what the per-step path raises
        v[...], t = start, t0
    for _ in range(steps):
        t += dt
        _advance(kernel, v, dt, t, lam=lam)
    return t


def _initial_values(system: HJSystem, u0: Sequence[GridFunction] | SystemState) -> np.ndarray:
    values = (u0 if isinstance(u0, SystemState) else SystemState.from_functions(u0)).values
    if values.shape != (system.m,) + system.grid.shape:
        raise StructureError(f"initial data shaped {values.shape} do not fit the system")
    return values


def step(
    state: SystemState, system: HJSystem, dt: float, flux_mode: str = "local"
) -> SystemState:
    """One forward-Euler update of the full system; ``state`` is left unchanged."""
    kernel = system.flux_kernel(flux_mode)
    v = np.array(_initial_values(system, state), dtype=float)
    _advance(kernel, v, dt, state.t + dt)
    return SystemState(t=state.t + dt, values=v, grid=state.grid)


@dataclass
class Trajectory:
    """Snapshots of a solve: ``values`` is one float array shaped
    (K, m) + grid.shape, K = len(times), so values[k] is the snapshot at
    times[k].  A list of snapshots is stacked; an array is kept as is.
    ``shifted`` is the one implementation of the drift shift u + c t."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def component(self, i: int, k: int) -> GridFunction:
        return GridFunction(self.grid, self.values[k, i])

    def shifted(self, c) -> np.ndarray:
        """The drift-shifted field u_i + c_i t at every snapshot, shaped like
        ``values``; ``c`` is one drift constant, or one per component."""
        c = np.broadcast_to(np.asarray(c, dtype=float), (self.m,))
        ones = (1,) * self.grid.dim
        return self.values + c.reshape((1, -1) + ones) * self.times.reshape((-1, 1) + ones)

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        files = {}
        for k in range(len(self.times)):
            for i in range(self.m):
                fname = f"comp{i}_snap{k:04d}.bin"
                save_binary(self.component(i, k), os.path.join(directory, fname))
                files[f"{i},{k}"] = fname
        manifest = {
            "format": 1,
            "grid": {"dim": self.grid.dim, "n": self.grid.n},
            "m": self.m,
            "times": [float(t) for t in self.times],
            "files": files,
            "meta": self.meta,
        }
        save_json(manifest, directory, "manifest.json")

    @classmethod
    def load(cls, directory) -> "Trajectory":
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        grid = Grid(**manifest["grid"])
        times = np.asarray(manifest["times"], dtype=float)
        values = [
            [
                load_binary(os.path.join(directory, manifest["files"][f"{i},{k}"])).values
                for i in range(manifest["m"])
            ]
            for k in range(len(times))
        ]
        return cls(grid=grid, times=times, values=values, meta=manifest.get("meta", {}))


def _snapshot_times(config: EvolutionConfig) -> np.ndarray:
    T = config.t_final
    if T == 0 or config.snapshot_every is None:
        return np.array([0.0, T]) if T > 0 else np.array([0.0])
    k = int(np.floor(T / config.snapshot_every + 1e-12))  # OverflowError if not finite
    times = np.arange(k + 1) * config.snapshot_every
    if T - times[-1] > 1e-12 * max(1.0, T):
        times = np.append(times, T)
    else:
        times[-1] = T
    return times


def solve(system: HJSystem, u0: Sequence[GridFunction] | SystemState,
          config: EvolutionConfig) -> Trajectory:
    """March to t_final, recording snapshots at exact multiples of the cadence."""
    return solve_batch(system, [u0], config)[0]


def solve_batch(system: HJSystem, u0s: Sequence, config: EvolutionConfig) -> list[Trajectory]:
    """``solve`` for each of B initial data, advanced together in one march.

    ``u0s`` lists the members, each in a form ``solve`` accepts.  Returns one
    trajectory per member, bit-identical to its own ``solve``; member b's
    ``values`` is row b of one (B, K, m) + grid.shape snapshot array.
    """
    kernel = system.flux_kernel(config.flux_mode)
    v = np.asarray(np.stack([_initial_values(system, u0) for u0 in u0s]), dtype=float)
    dt = cfl_dt(system, config)
    try:
        times = _snapshot_times(config)
        snapshots = np.empty((len(v), len(times)) + v.shape[1:])
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ConfigError(f"snapshot_every = {config.snapshot_every!r}: {exc}") from exc
    with np.errstate(over="ignore"):  # an infinite count fails the test below
        counts = np.maximum(1.0, np.ceil(np.diff(times) / dt - 1e-12))
    key = "t_final" if config.dt_override is None else "dt_override"
    check_step_budget(np.sum(counts), f"{key} = {getattr(config, key)!r} (dt = {dt!r})")
    snapshots[:, 0] = v
    steps_at, t = [0], 0.0
    march = v[0] if len(v) == 1 else v  # one member: no batch axis for x-data to broadcast over
    for k in range(1, len(times)):
        nsteps = int(counts[k - 1])
        sub = (times[k] - times[k - 1]) / nsteps
        for done in range(0, nsteps, _CHUNK):
            t = march_chunk(kernel, march, sub, t, min(_CHUNK, nsteps - done))
        t = float(times[k])
        snapshots[:, k] = v
        steps_at.append(steps_at[-1] + nsteps)
    meta = {
        "system": system.describe(),
        "config": asdict(config),
        "dt": dt,
        "steps_total": steps_at[-1],
        "steps_at_snapshot": steps_at,
        "identical_hamiltonians": system.identical_hamiltonians,
    }
    return [Trajectory(system.grid, times.copy(), row, _fresh(meta)) for row in snapshots]


def _fresh(obj):
    """A copy of nested dicts and lists that shares none of them."""
    if isinstance(obj, dict):
        return {key: _fresh(value) for key, value in obj.items()}
    return [_fresh(value) for value in obj] if isinstance(obj, list) else obj


@dataclass
class ComparisonReport:
    worst_violation: float
    per_snapshot: list
    steps_at_snapshot: list

    def slack_allowance(self, per_step: float = 1e-10) -> float:
        return per_step * max(1, self.steps_at_snapshot[-1])


def comparison_check(traj_u: Trajectory, traj_v: Trajectory) -> ComparisonReport:
    """Ordering slack of two solves started from ordered data.

    For each snapshot, measures
    max_i sup_x (u_i - v_i)(t)  -  max_i sup_x (u_i - v_i)(0)^+ ;
    a monotone scheme keeps this nonpositive up to roundoff (about 1e-10
    per step).
    """
    if len(traj_u.times) != len(traj_v.times) or not np.allclose(
        traj_u.times, traj_v.times
    ):
        raise ValueError("trajectories have different snapshot times")
    lhs = np.max(traj_u.values - traj_v.values, axis=tuple(range(1, traj_u.values.ndim)))
    per = (lhs - max(0.0, float(lhs[0]))).tolist()
    steps = traj_u.meta.get("steps_at_snapshot", list(range(len(traj_u.times))))
    return ComparisonReport(
        worst_violation=max(per), per_snapshot=per, steps_at_snapshot=steps
    )


@dataclass
class LipschitzReport:
    sup_shifted: float
    sup_space_lipschitz: float
    sup_time_ratio: float
    within_cap: bool


def lipschitz_check(traj: Trajectory, c, cap: float = np.inf) -> LipschitzReport:
    """Uniform bounds along a trajectory: |u + c t|, space and time increments."""
    sup_shift = float(np.max(np.abs(traj.shifted(c))))
    sup_lip = float(np.max(np.abs(diff_arrays(traj.values, traj.grid)[0])))
    increments = np.max(
        np.abs(np.diff(traj.values, axis=0)), axis=tuple(range(1, traj.values.ndim))
    )
    sup_rate = float(np.max(increments / np.diff(traj.times), initial=0.0))
    finite = all(np.isfinite(v) for v in (sup_shift, sup_lip, sup_rate))
    if not finite:
        raise DivergenceError("non-finite norm along trajectory")
    return LipschitzReport(
        sup_shifted=sup_shift,
        sup_space_lipschitz=sup_lip,
        sup_time_ratio=sup_rate,
        within_cap=bool(max(sup_shift, sup_lip, sup_rate) <= cap),
    )
