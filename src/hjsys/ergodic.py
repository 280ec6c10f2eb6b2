"""Large-time constants via the discounted approximation and via drift rates.

For each discount lambda the stationary system

    lambda v_i + H_i(x, Dv_i) + sum_j d_ij v_j = 0

is discretized with the monotone flux used everywhere else and solved until
the sup norm of its residual F(v) = lambda v + flux(v) + D v is below the
steady-state tolerance.

On 1D grids the solver is damped Newton, for every system: each iteration
solves (lambda I + J + D) dv = F densely, J being the derivative of the
flux kernel itself, by central differences over colored nodes (Curtis,
Powell & Reid, J. Inst. Math. Appl. 13, 1974) in one batched kernel call.
lambda > 0 and the monotone scheme keep each system well posed.  A local
flux solve from zero data starts at the global-flux solution, found by
Newton on the global kernel, since the local alpha vanishes with the
gradients of zero data; ``newton_iterations`` counts both stages.  When no
damped step reduces the residual, the system is singular, or the
iterations run out, the march takes over from the best iterate.

The march also serves 2D grids: evolution's ``march_chunk`` with the
discount, in gates of _GATE steps that each decide the CFL budget and
finiteness.  Plain marching relaxes the quasi-constant mode only at rate
lambda, so between gates it jumps that mode: adding beta to every
component changes F by exactly lambda beta (constants are in the coupling
kernel), so once F is nearly flat, beta = -mean(F)/lambda lands it.

The schedule halves lambda from 0.1 down to ~1.6e-3.  Each solve warm
starts from the previous one with only its quasi-constant mode rescaled
(v^lambda ~ const/lambda + profile + O(lambda)).  Estimates
c_i = -lambda v_i(anchor) are refined by two-point linear extrapolation in
lambda (error O(lambda) -> O(lambda^2); flagged in the result).  The
normalized correctors subtract the single scalar v_1(anchor) from every
component, so inter-component gaps are preserved.

``long_time_constant`` is the independent cross-check: the least-squares
drift of -u_i(anchor, t) over the trailing window of an undiscounted solve.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .coupling import is_irreducible
from .errors import ConfigError, ConvergenceError, StructureError
from .evolution import HJSystem, march_chunk
from .grid import GridFunction, diff_arrays, save_binary, save_json, save_table

__all__ = [
    "DiscountSchedule",
    "DiscountInfo",
    "ErgodicResult",
    "solve_discounted",
    "estimate_ergodic_constant",
    "long_time_constant",
]


@dataclass(frozen=True)
class DiscountSchedule:
    """Geometric discount schedule plus solver knobs; ``max_steps_per_lambda``
    caps the march, Newton does not use it."""

    lambdas: tuple = tuple(0.1 * 2.0**-k for k in range(7))
    steady_state_tol: float = 1e-8
    anchor: tuple = (0.0,)
    flux_mode: str = "local"
    max_steps_per_lambda: int = 2_000_000  # march steps, when the march runs

    def __post_init__(self) -> None:
        lams = tuple(float(l) for l in self.lambdas)
        if not lams:
            raise ConfigError("schedule needs at least one lambda")
        if any(not (0 < l < 1) for l in lams):
            raise ConfigError(f"discounts must lie in (0, 1): {lams}")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise ConfigError("discounts must be strictly decreasing")
        if not 0 < self.steady_state_tol < np.inf:
            raise ConfigError(
                f"steady_state_tol must be positive and finite, got {self.steady_state_tol}"
            )
        anchor = tuple(float(a) for a in self.anchor)
        if not np.all(np.isfinite(anchor)):
            raise ConfigError(f"anchor must be finite, got {anchor}")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "anchor", anchor)


@dataclass
class DiscountInfo:
    """One discounted solve.  ``steps`` and ``jumps`` count the march (0 when
    Newton converged); ``fallback`` says Newton ran and handed over to it."""

    lam: float
    steps: int
    jumps: int
    newton_iterations: int
    fallback: bool
    final_residual: float
    residual_history: list
    min_value: float


_NEWTON_MAX_ITER = 50
_FD_STEP = 1e-9  # larger steps blur the kinks of the local alpha: Newton falls back


def _residual(kernel, lam: float, v: np.ndarray) -> tuple[np.ndarray, list]:
    """F(v) = lam v + flux(v) + D v, and the kernel's alpha sums."""
    flux, alpha_sums = kernel(v)
    return lam * v + flux + kernel.coupling_term(v), alpha_sums


def _jacobian(kernel, lam: float, v: np.ndarray) -> np.ndarray:
    """lam I + J + D at v, shaped (m, n, m, n): component, node, component, node.

    J is the central difference of the flux with step _FD_STEP.  Nodes
    k < 3 (n // 3) get color k mod 3 and each of the n mod 3 others a color
    of its own, so no two nodes of one color share a 3-point stencil, even
    across the periodic wrap; the members v +- step on every node of one
    color, in every component, make one kernel call.
    """
    m, n = v.shape
    k = np.arange(n)
    color = k % 3
    color[3 * (n // 3):] = 3 + np.arange(n % 3)
    bumps = _FD_STEP * (color == np.arange(color.max() + 1)[:, None])[:, None]
    flux, _ = kernel(np.concatenate([v + bumps, v - bumps]))
    dflux = (flux[: len(bumps)] - flux[len(bumps):]) / (2 * _FD_STEP)
    J = np.zeros((m, n, m, n))
    J[:, k, :, k] = kernel.entries + lam * np.eye(m)
    # row r of flux_i moves with v_i at the one node of each color in its stencil
    i, rows = np.arange(m)[:, None, None], (k + np.array([[-1], [0], [1]])) % n
    J[i, rows, i, k] += dflux[color, i, rows]
    return J


def _newton(kernel, lam: float, v: np.ndarray, tol: float, history: list):
    """Damped Newton on F; returns (best iterate, iterations, its residual).

    Each iteration takes the longest of the steps 1, 1/2, ..., 2^-20 times
    the Newton step that reduces the sup-norm residual.  It stops below
    ``tol``, when no such step exists or the system is singular, or after
    _NEWTON_MAX_ITER iterations.
    """
    F, _ = _residual(kernel, lam, v)
    rmax = float(np.max(np.abs(F)))
    history.append(rmax)
    for it in range(_NEWTON_MAX_ITER):
        if rmax < tol:
            return v, it, rmax
        try:
            J = _jacobian(kernel, lam, v).reshape(v.size, v.size)
            dv = np.linalg.solve(J, F.reshape(-1)).reshape(v.shape)
        except np.linalg.LinAlgError:
            return v, it + 1, rmax
        for halvings in range(21):
            # from zero data the full step overshoots: the local alpha
            # vanishes with the gradients, so J lacks dissipation there
            trial = v - 0.5**halvings * dv
            F_trial, _ = _residual(kernel, lam, trial)
            r_trial = float(np.max(np.abs(F_trial)))
            if r_trial < rmax:  # never when r_trial is nan
                break
        else:
            return v, it + 1, rmax
        history.append(r_trial)
        v, F, rmax = trial, F_trial, r_trial
    return v, _NEWTON_MAX_ITER, rmax


_MARCH_CFL = 0.9  # the share of the explicit budget a march step takes
_GATE = 10  # steps between residual tests: between two jumps, or a jump and a stop


def _march(kernel, lam: float, v: np.ndarray, schedule: DiscountSchedule, history: list):
    """Explicit march of a copy of ``v`` with constant-mode jumps; returns
    (v, steps, jumps, residual).  Its last gate stops at the step cap."""
    grid = kernel.grid
    amax = max(lf_alpha for _, _, lf_alpha in kernel.terms)
    dt = _MARCH_CFL / (grid.dim * amax / grid.h + kernel.dmax + lam)
    tol, budget = schedule.steady_state_tol, schedule.max_steps_per_lambda
    v = np.array(v, dtype=float)
    steps = jumps = 0
    while True:
        F, _ = _residual(kernel, lam, v)
        rmax = float(np.max(np.abs(F)))
        if steps % 200 == 0:
            history.append(rmax)
        if rmax < tol:
            return v, steps, jumps, rmax
        if steps >= budget:
            raise ConvergenceError(
                f"no steady state for lambda = {lam} within {budget} "
                f"steps; residual history tail: {history[-10:]}"
            )
        Fbar = float(np.mean(F))
        if abs(Fbar) > 0.25 * tol and np.ptp(F) < 0.3 * abs(Fbar):
            # constant-mode extrapolation: adding beta to every component
            # changes the residual by exactly lambda beta, so this lands
            # the flat part of the residual on zero in one move
            v -= Fbar / lam
            jumps += 1
        gate = min(_GATE, budget - steps)
        march_chunk(kernel, v, dt, steps * dt, gate, lam)
        steps += gate


def solve_discounted(
    system: HJSystem,
    lam: float,
    schedule: DiscountSchedule = DiscountSchedule(),
    v0: np.ndarray | None = None,
) -> tuple[np.ndarray, DiscountInfo]:
    """Solve the discounted system from ``v0`` (zeros by default).

    Newton runs on 1D grids, the march on 2D grids or from Newton's best
    iterate when it falls back (see module docstring).
    Returns the stationary values (m,) + grid.shape and solve metadata.
    The nonnegativity expected of the discounted solutions (for sources
    with H(x, 0) <= 0) is reported, not enforced: ``info.min_value``.
    """
    if not (0 < lam < 1):
        raise ConfigError(f"discount must lie in (0, 1), got {lam}")
    for i, h in enumerate(system.hams):
        if "coercive" not in h.class_tags:
            raise StructureError(f"Hamiltonian {i} is not tagged coercive")
    if not is_irreducible(system.coupling.entries):
        raise StructureError("constant coupling is reducible")
    kernel = system.flux_kernel(schedule.flux_mode)

    v = np.zeros((system.m,) + system.grid.shape) if v0 is None else np.array(v0, dtype=float)
    tol = schedule.steady_state_tol
    history: list[float] = []
    iterations, rmax = 0, np.inf
    if system.grid.dim == 1:
        if v0 is None and schedule.flux_mode == "local":
            v, iterations, _ = _newton(system.flux_kernel("global"), lam, v, tol, history)
        v, more, rmax = _newton(kernel, lam, v, tol, history)
        iterations += more
    fallback = iterations > 0 and not rmax < tol
    steps = jumps = 0
    if not rmax < tol:
        v, steps, jumps, rmax = _march(kernel, lam, v, schedule, history)
    info = DiscountInfo(
        lam=lam,
        steps=steps,
        jumps=jumps,
        newton_iterations=iterations,
        fallback=fallback,
        final_residual=rmax,
        residual_history=history[-50:],
        min_value=float(np.min(v)),
    )
    return v, info


@dataclass
class ErgodicResult:
    c: np.ndarray
    c_raw: np.ndarray
    correctors: list  # GridFunctions, anchored
    residual: float
    per_lambda: list = field(default_factory=list)
    cross_component_spread: float = 0.0
    anchor: tuple = (0.0,)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "c": self.c.tolist(),
            "c_raw": self.c_raw.tolist(),
            "residual": self.residual,
            "per_lambda": self.per_lambda,
            "cross_component_spread": self.cross_component_spread,
            "anchor": list(self.anchor),
            "notes": list(self.notes),
        }

    def save(self, directory) -> None:
        save_json(self.to_dict(), directory, "ergodic.json")
        for i, v in enumerate(self.correctors):
            save_binary(v, os.path.join(directory, f"corrector{i}.bin"))
        rows = [
            (row["lambda"], i, est, row["sup"], row["lip"])
            for row in self.per_lambda
            for i, est in enumerate(row["estimates"])
        ]
        save_table(rows, directory, "per_lambda.csv", "lambda,component,estimate,sup,lip")


def estimate_ergodic_constant(
    system: HJSystem, schedule: DiscountSchedule = DiscountSchedule()
) -> ErgodicResult:
    """Run the discount schedule and assemble constants plus correctors."""
    grid = system.grid
    anchor = schedule.anchor
    if len(anchor) != grid.dim:
        raise ConfigError(
            f"anchor has {len(anchor)} coordinates, grid dim is {grid.dim}"
        )
    idx = grid.node_index(np.asarray(anchor))
    per_lambda = []
    v = None
    prev_lam = None
    ests = {}
    for lam in schedule.lambdas:
        if v is None:
            v0 = None
        else:
            # shift only the quasi-constant mode; the converged profile
            # carries over unchanged (v^lam ~ const/lam + profile + O(lam))
            const = prev_lam * float(np.mean(v))
            v0 = v + const * (1.0 / lam - 1.0 / prev_lam)
        v, info = solve_discounted(system, lam, schedule, v0=v0)
        est = np.array([-lam * v[i][idx] for i in range(system.m)])
        lip = float(np.max(np.abs(diff_arrays(v, grid)[0])))
        per_lambda.append(
            {
                "lambda": lam,
                "estimates": est.tolist(),
                "sup": float(np.max(v)),
                "min": info.min_value,
                "lip": lip,
                "steps": info.steps,
                "jumps": info.jumps,
                "newton_iterations": info.newton_iterations,
                "fallback": info.fallback,
                "residual": info.final_residual,
            }
        )
        ests[lam] = est
        prev_lam = lam
    lams = list(schedule.lambdas)
    c_raw = ests[lams[-1]]
    notes = []
    if len(lams) >= 2:
        l1, l2 = lams[-1], lams[-2]
        c = (ests[l1] * l2 - ests[l2] * l1) / (l2 - l1)
        notes.append(
            "two-point linear extrapolation in lambda from "
            f"({l2!r}, {l1!r}); raw O(lambda) estimates kept in c_raw"
        )
    else:
        c = c_raw.copy()
        notes.append("single discount only; estimate is O(lambda) accurate")

    anchor_val = v[0][idx]
    w = v - anchor_val  # same scalar off every component
    kernel = system.flux_kernel(schedule.flux_mode)
    stat, _ = _residual(kernel, 0.0, w)
    shape = (system.m,) + (1,) * grid.dim
    residual = float(np.max(np.abs(stat - c.reshape(shape))))
    correctors = [GridFunction(grid, w[i]) for i in range(system.m)]
    spread = float(np.max(np.abs(c - c[0])))
    return ErgodicResult(
        c=c,
        c_raw=c_raw,
        correctors=correctors,
        residual=residual,
        per_lambda=per_lambda,
        cross_component_spread=spread,
        anchor=anchor,
        notes=notes,
    )


def long_time_constant(
    traj,
    anchor: tuple | None = None,
    window_fraction: float = 0.5,
    min_window: float = 10.0,
) -> np.ndarray:
    """Drift rate of -u_i at the anchor over the trailing snapshot window.

    Requires the window to span at least ``min_window`` time units so the
    transient is excluded; returns one constant per component.
    """
    times = traj.times
    if anchor is None:
        anchor = (0.0,) * traj.grid.dim
    idx = traj.grid.node_index(np.asarray(anchor))
    t0 = times[-1] - window_fraction * (times[-1] - times[0])
    sel = times >= t0 - 1e-12
    if np.sum(sel) < 3 or times[-1] - times[sel][0] < min_window:
        raise ConfigError(
            f"trailing window spans {times[-1] - times[sel][0] if np.any(sel) else 0} "
            f"time units; need at least {min_window}"
        )
    ts, ys = times[sel], -traj.values[(Ellipsis,) + idx][sel]
    return np.array([np.polyfit(ts, ys[:, i], 1)[0] for i in range(traj.m)])
