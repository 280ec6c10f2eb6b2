"""The PDE side of a switching process: the Hamiltonian and the coupling of
the value functions its Monte Carlo estimates,

    H_i(x, p) = max over actions a of [-<b_i(x, a), p> - l_i(x, a)],
    d_ii = sum_{j != i} gamma_ij,   d_ij = -gamma_ij,

and each mode's table of every action's velocity and running cost, which the
Hamiltonian and ``switching.GreedyGradientPolicy`` evaluate.  ``switching``
re-exports ``hamiltonian_from_spec`` and ``coupling_from_spec``.
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

__all__ = ["action_tables", "hamiltonian_from_spec", "coupling_from_spec"]


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
