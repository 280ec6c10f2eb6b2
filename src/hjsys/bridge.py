"""The PDE side of a switching process: the Hamiltonian and the coupling of
the value functions its Monte Carlo estimates,

    H_i(x, p) = max over actions a of [-<b_i(x, a), p> - l_i(x, a)],
    d_ii = sum_{j != i} gamma_ij,   d_ij = -gamma_ij,

each mode's table of every action's velocity and running cost, which the
Hamiltonian and ``GreedyGradientPolicy`` evaluate, and the policies the
Monte Carlo plays: ``ConstantPolicy`` and ``GreedyGradientPolicy``, the
pointwise maximizer against a PDE solution.  ``switching`` re-exports
``hamiltonian_from_spec``, ``coupling_from_spec`` and the policies.
"""
from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .coupling import CouplingMatrix
from .errors import ConfigError
from .grid import Grid
from .hamiltonians import Hamiltonian

if TYPE_CHECKING:
    from .switching import SwitchingProcessSpec

__all__ = ["action_tables", "hamiltonian_from_spec", "coupling_from_spec", "ConstantPolicy",
           "GreedyGradientPolicy"]


def action_tables(spec: SwitchingProcessSpec, mode: int, x, shape):
    """Velocity B[a, ..., k] and running cost L[a, ...] of every action in one
    mode at the points x, broadcast for gradients of the given shape."""
    A = spec.control_set
    a = A.reshape((len(A),) + (1,) * (len(shape) - 1) + A.shape[1:])
    B = np.broadcast_to(np.asarray(spec.dynamics[mode](x, a), dtype=float), (len(A),) + shape)
    L = np.broadcast_to(np.asarray(spec.costs[mode](x, a), dtype=float), (len(A),) + shape[:-1])
    return B, L


def hamiltonian_from_spec(
    spec: SwitchingProcessSpec, mode: int, p_box: float = 2.5
) -> Hamiltonian:
    """Max-over-actions Hamiltonian of one mode."""
    if not (0 <= mode < spec.m):
        raise ConfigError(f"mode must be in [0, {spec.m}), got {mode}")

    def sup(p, B, L):
        # one max over the action axis (leading, so ties resolve as in a
        # running maximum over the actions in order); p's batch axes follow it
        a = (slice(None),) + (None,) * (p.ndim + 1 - B.ndim)
        return np.maximum.reduce(-np.add.reduce(B[a] * p, axis=-1) - L[a], axis=0)

    xs = Grid(spec.dim, 16).nodes()
    bmax_axis = np.max(np.abs(action_tables(spec, mode, xs, xs.shape)[0]), axis=(0, 1))

    def alpha(pabs):
        return np.broadcast_to(bmax_axis, pabs.shape)

    def bind(X):
        B, L = action_tables(spec, mode, X, X.shape)
        return partial(sup, B=B, L=L), alpha

    # crude coercivity probe along the axes; gates the discounted solver
    tags = {"convex"}
    e = np.concatenate([np.eye(spec.dim), -np.eye(spec.dim)])
    H = bind(np.full((1, spec.dim), 0.5))[0]
    if all(float(H(p_box * d[None, :])[0]) > float(H(0.5 * p_box * d[None, :])[0]) for d in e):
        tags.add("coercive")
    return Hamiltonian(
        dim=spec.dim,
        bind=bind,
        lf_alpha=1.05 * float(np.max(bmax_axis)) if np.max(bmax_axis) > 0 else 1e-12,
        class_tags=frozenset(tags),
        name="switching_sup",
        params={"mode": mode, "actions": len(spec.control_set)},
    )


def coupling_from_spec(spec: SwitchingProcessSpec) -> CouplingMatrix:
    """d_ii = total leave rate, d_ij = -rate(i -> j); zero row sums."""
    D = -np.array(spec.rates, dtype=float)
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return CouplingMatrix.constant(D)


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
