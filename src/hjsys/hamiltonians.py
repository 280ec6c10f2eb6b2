"""Hamiltonian evaluators, structural checks, and the monotone numerical flux.

Evaluators are vectorized: ``H(x, p)`` takes coordinate and gradient arrays
shaped (..., dim) and returns (...).  Built-in families:

* quadratic eikonal   H(x, p) = |p|^2 - f(x)
* linear eikonal      H(x, p) = |p|  - f(x)
* nonconvex profile   H(x, p) = (|p + q(x)|^2 - |q(x)|^2) F(x, p/|p|) - f(x)
  with F bounded between positive constants; H(x, 0) = -f(x) by continuity.
  The family satisfies H_p . p - H = |p|^2 F + f pointwise where smooth.

The numerical flux is of Lax-Friedrichs type,

    flux = H(x, (p- + p+)/2) - (alpha/2) * sum_k (p+_k - p-_k),

monotone as long as alpha dominates |H_p| on the gradients in play.  A
single global ``lf_alpha`` (probed over a configured p-box at build time)
gives the textbook scheme; the built-in families also bound |dH/dp_k| on the
hull of the one-sided gradients, so the stepping code can use stencil-local
dissipation, which is what keeps the numerical large-time constants sharp on
coarse grids.  ``global_flux`` and ``local_flux`` are the one
implementation of this formula, one per form of alpha; the public
``numerical_flux`` and the solvers' grid-bound kernel both call them.

A ``Hamiltonian`` is evaluated only through ``bind(X)``: given a node array
X shaped (..., dim), it precomputes everything that depends only on x and
returns exactly two things: the p-only evaluator ``H(p)`` and the per-axis
local bound ``alpha(pabs)``, or None for the global flux.  No derivative is
supplied: the discounted solver's Newton iteration differentiates the flux
kernel itself.  ``H(x, p)`` is ``bind(x)[0](p)``.  In 1D the nonconvex
``bind(X)`` samples the direction profile at d = +1 and d = -1 once, since
p/|p| takes no other value.

Sampling follows the same rule: ``sampled_grad_sup`` (which sets
``lf_alpha``), ``grad_p`` and each ``check_assumption`` branch bind H once to
their whole sample, x broadcast against p, and reduce over the values.  They
share one central difference in p, and every lattice they probe is
``Grid(dim, n).nodes()``, scaled onto the p-box for momenta.  Only
``check_assumption``, which hunts for counterexamples, draws random numbers.

The built-in evaluators and local bounds are module-level functions bound to
their x-data by ``partial`` keywords (``FAMILY_EVALUATORS``), which the flux
kernel stacks per family; per-step p-axis sums use ``sum_p``.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import Grid

__all__ = [
    "Hamiltonian",
    "SamplerConfig",
    "AssumptionReport",
    "make_quadratic_eikonal",
    "make_linear_eikonal",
    "make_nonconvex_example",
    "FAMILY_EVALUATORS",
    "lax_friedrichs_flux",
    "numerical_flux",
    "global_flux",
    "local_flux",
    "sum_p",
    "grad_p",
    "sampled_grad_sup",
    "check_assumption",
]

ASSUMPTION_IDS = ("H5", "H7", "H10", "strictconvex", "coercive")
_NUM_TOL = 1e-9


@dataclass(frozen=True)
class Hamiltonian:
    """First-order Hamiltonian on the torus with scheme metadata.

    ``bind(X)``: the evaluator contract of the module docstring, returning
    exactly ``(H(p), alpha(pabs) or None)``.  ``lf_alpha``: global dissipation
    coefficient.  ``source``: optional f(x) of a Hamiltonian of the form
    ``G(x, p) - f(x)`` with G(x, 0) = 0.  ``compact_set_K``: optional
    predicate for the zero set that pins the large-time constant at zero.
    """

    dim: int
    bind: Callable
    lf_alpha: float
    class_tags: frozenset = frozenset()
    source: Callable | None = None
    compact_set_K: Callable | None = None
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not np.isfinite(self.lf_alpha) or self.lf_alpha <= 0:
            raise ConfigError(f"lf_alpha must be positive, got {self.lf_alpha!r}")

    def __call__(self, x, p) -> np.ndarray:
        return self.bind(np.asarray(x, dtype=float))[0](np.asarray(p, dtype=float))


def _p_gradient(h, p, step: float) -> np.ndarray:
    """Central difference in p of a bound evaluator ``h(p)``, one axis at a time."""
    out = np.empty(p.shape)
    for k in range(p.shape[-1]):
        dp = np.zeros(p.shape[-1])
        dp[k] = step
        out[..., k] = (h(p + dp) - h(p - dp)) / (2 * step)
    return out


def grad_p(H, x, p, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of H in p; shapes follow the evaluator."""
    return _p_gradient(H.bind(np.asarray(x, dtype=float))[0], np.asarray(p, dtype=float), step)


# one node lattice probes x and, scaled, p: 63^2 pairs in 1D, 64^2 in 2D; the
# odd 1D count keeps x off 1/4, 1/2 and 3/4, where one-harmonic q peak, so no
# pair lands on the nonconvex family's analytic bound and adds roundoff to it
_SUP_NODES_PER_AXIS = {1: 63, 2: 8}
_SUP_STEP = 1e-5


def sampled_grad_sup(bind: Callable, dim: int, p_box: float) -> float:
    """Sup of max_k |dH/dp_k| over x on a node lattice and p on the same
    lattice scaled onto [-p_box, p_box), H from ``bind``."""
    nodes = Grid(dim, _SUP_NODES_PER_AXIS[dim]).nodes()
    X, P = np.broadcast_arrays(nodes[:, None, :], p_box * (2.0 * nodes[None, :, :] - 1.0))
    return float(np.max(np.abs(_p_gradient(bind(X)[0], P, _SUP_STEP))))


def _unit_directions(dim: int, k: int) -> np.ndarray:
    """Unit directions, shape (-, dim): +-1 in 1D, k equally spaced angles in 2D."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    th = np.linspace(0, 2 * np.pi, k, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=-1)


# -- built-in families -------------------------------------------------------


def _xdata(fn, X, *args) -> np.ndarray:
    """fn(X, *args) broadcast to the node shape X.shape[:-1]."""
    return np.broadcast_to(np.asarray(fn(X, *args), dtype=float), X.shape[:-1])


# 0-d float64 constants: numpy applies them faster than floats, same bits
_ZERO, _HALF, _TWO = (np.array(c) for c in (0.0, 0.5, 2.0))


def sum_p(a) -> np.ndarray:
    """``np.add.reduce(a, axis=-1)`` of a float64 array bit for bit; a
    length-1 axis is read, + 0.0 for -0.0."""
    return a[..., 0] + _ZERO if a.shape[-1] == 1 else np.add.reduce(a, axis=-1)


def _sum_sq(a) -> np.ndarray:
    """``sum_p(a * a)``; a square is never -0.0, so a length-1 axis is read as is."""
    sq = a * a
    return sq[..., 0] if sq.shape[-1] == 1 else np.add.reduce(sq, axis=-1)


def _quadratic_h(p, fx):
    return _sum_sq(p) - fx


# |dH/dp_k| = 2 |p_k|, exact on the one-sided hull
_TWICE = partial(np.multiply, _TWO)


def _linear_h(p, fx):
    return np.sqrt(_sum_sq(p)) - fx


def _nonconvex_h(p, x, qv, qq, fv, F):
    """The nonconvex family in 2D: F(x, p/|p|) on every call."""
    pn = np.sqrt(sum_p(p * p))
    psi = sum_p((p + qv) ** 2) - qq
    moving = pn > 0
    safe = np.where(moving, pn, 1.0)
    d = p / safe[..., None]
    return np.where(moving, psi * np.asarray(F(x, d)) - fv, -fv)


def _nonconvex_h1(p, qv, qq, fv, nfv, fplus, fminus):
    """The nonconvex family in 1D, where p/|p| = +-1 for p != 0, so
    F(x, p/|p|) is one of the samples F(x, +1) and F(x, -1); nfv is -f(x)."""
    psi = _sum_sq(p + qv) - qq
    return np.where(_sum_sq(p) > 0, psi * np.where(p[..., 0] >= 0, fplus, fminus) - fv, nfv)


def _nonconvex_alpha(pabs, qmax, qmax2, fmax, fangle):
    # |H_p| <= 2(|p| + |q|) F_max + (|p| + 2|q|) sup|dF/dtheta|, qmax2 = 2|q|
    pn = np.sqrt(_sum_sq(pabs))[..., None]
    bound = _TWO * (pn + qmax) * fmax + (pn + qmax2) * fangle
    return bound if bound.shape == pabs.shape else np.broadcast_to(bound, pabs.shape)


# bound by partial keywords that are x-data shaped like X.shape[:-1] (+ (dim,))
# or scalar constants, so the kernel may stack them on a component axis
FAMILY_EVALUATORS = frozenset({_quadratic_h, _linear_h, _nonconvex_h1, _nonconvex_alpha})


def make_quadratic_eikonal(
    f: Callable, dim: int = 1, p_box: float = 2.5, name: str = "quadratic_eikonal",
    params: dict | None = None,
) -> Hamiltonian:
    """H(x, p) = |p|^2 - f(x); strictly convex and coercive."""

    def bind(X):
        return partial(_quadratic_h, fx=_xdata(f, X)), _TWICE

    return Hamiltonian(
        dim=dim,
        bind=bind,
        lf_alpha=1.1 * sampled_grad_sup(bind, dim, p_box),
        class_tags=frozenset({"convex", "strictly_convex", "coercive"}),
        source=f,
        compact_set_K=lambda x: np.asarray(f(x)) <= 1e-9,
        name=name,
        params=dict(params or {}),
    )


def make_linear_eikonal(
    f: Callable, dim: int = 1, p_box: float = 2.5, name: str = "linear_eikonal",
    params: dict | None = None,
) -> Hamiltonian:
    """H(x, p) = |p| - f(x); convex and coercive, kink at p = 0."""

    def bind(X):
        # |dH/dp_k| <= 1 everywhere
        return partial(_linear_h, fx=_xdata(f, X)), np.ones_like

    _ = p_box  # nothing to sample
    return Hamiltonian(
        dim=dim,
        bind=bind,
        lf_alpha=1.1,
        class_tags=frozenset({"convex", "coercive"}),
        source=f,
        compact_set_K=lambda x: np.asarray(f(x)) <= 1e-9,
        name=name,
        params=dict(params or {}),
    )


def make_nonconvex_example(
    F: Callable,
    f: Callable,
    q: Callable,
    dim: int = 1,
    p_box: float = 2.5,
    name: str = "nonconvex_bs00",
    params: dict | None = None,
    F_angle_slope: float = 0.0,
) -> Hamiltonian:
    """Direction-dependent nonconvex family; see module docstring.

    ``F(x, d)`` takes unit directions d; it must be bounded between positive
    constants.  ``q(x)`` returns (..., dim).  The bounds of F and sup |q|
    that feed the local dissipation estimate are sampled on a probe
    lattice.  In 1D, ``bind(X)`` samples F(X, +1) and F(X, -1) once; the 2D
    evaluator calls F.
    """
    xs = Grid(dim, 64 if dim == 1 else 16).nodes()
    X, D = np.broadcast_arrays(xs[None], _unit_directions(dim, 64)[:, None])
    fvals = np.asarray(F(X, D))
    fmin, fmax = float(np.min(fvals)), float(np.max(fvals))
    if fmin <= 0:
        raise ConfigError(f"direction profile must stay positive, sampled min {fmin!r}")
    qmax = float(np.max(np.abs(np.asarray(q(xs)))))
    alpha = partial(_nonconvex_alpha, qmax=qmax, qmax2=2.0 * qmax, fmax=fmax, fangle=F_angle_slope)

    def bind(X):
        # q(x), |q(x)|^2 and f(x): everything H needs that is free of p
        qv = np.broadcast_to(np.asarray(q(X), dtype=float), X.shape)
        xdata = {"qv": qv, "qq": np.sum(qv * qv, axis=-1), "fv": _xdata(f, X)}
        if dim == 2:
            return partial(_nonconvex_h, x=X, F=F, **xdata), alpha
        unit = np.ones(X.shape)
        signs = {"fplus": _xdata(F, X, unit), "fminus": _xdata(F, X, -unit)}
        return partial(_nonconvex_h1, nfv=-xdata["fv"], **xdata, **signs), alpha

    def compact_set(x):
        qv = np.asarray(q(x), dtype=float)
        return (np.asarray(f(x)) <= 1e-9) & (
            np.sqrt(np.sum(qv * qv, axis=-1)) <= 1e-9
        )

    return Hamiltonian(
        dim=dim,
        bind=bind,
        lf_alpha=1.1 * max(sampled_grad_sup(bind, dim, p_box), 2.0 * (p_box + qmax) * fmax),
        class_tags=frozenset({"nonconvex_example", "coercive"}),
        source=f,
        compact_set_K=compact_set,
        name=name,
        params=dict(params or {}),
    )


# -- numerical flux ----------------------------------------------------------


def global_flux(mid, jump, alpha, out=None) -> np.ndarray:
    """The flux from ``mid = H(x, (p- + p+)/2)``, ``jump = p+ - p-`` and a scalar ``alpha``."""
    return np.subtract(mid, 0.5 * alpha * sum_p(jump), out=out)


def local_flux(mid, jump, alpha, out=None) -> np.ndarray:
    """``global_flux`` for per-axis bounds ``alpha``, summed in another order."""
    return np.subtract(mid, _HALF * sum_p(alpha * jump), out=out)


def lax_friedrichs_flux(H: Hamiltonian, x, p_minus, p_plus) -> np.ndarray:
    """Global-coefficient monotone flux (see module docstring)."""
    return numerical_flux(H, x, p_minus, p_plus, mode="global")


def numerical_flux(
    H: Hamiltonian, x, p_minus, p_plus, mode: str = "local"
) -> np.ndarray:
    """Monotone flux with either global or stencil-local dissipation.

    ``mode='local'`` uses the per-axis derivative bound that ``H.bind(x)``
    returns on the hull of the one-sided gradients; it coincides with the
    global flux when the bound is None.  Local dissipation vanishes with the
    gradients, which removes most of the O(alpha h) smearing at the minima
    that set the large-time constants.  This is the reference the solvers'
    bound kernel reproduces bit for bit.
    """
    if mode not in ("local", "global"):
        raise ConfigError(f"unknown flux mode {mode!r}")
    pm = np.asarray(p_minus, dtype=float)
    pp = np.asarray(p_plus, dtype=float)
    h_of, alpha_of = H.bind(np.asarray(x, dtype=float))
    mid = h_of(0.5 * (pm + pp))
    if mode == "global" or alpha_of is None:
        return global_flux(mid, pp - pm, H.lf_alpha)
    return local_flux(mid, pp - pm, np.asarray(alpha_of(np.maximum(np.abs(pm), np.abs(pp)))))


# -- assumption checking -----------------------------------------------------


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling plan for assumption checks."""

    n_x: int = 64
    n_p: int = 96
    p_box: float = 2.5
    fd_step: float = 1e-5
    kink_radius: float = 1e-3
    etas: tuple = (0.02, 0.05, 0.1, 0.2, 0.5)
    lambdas: tuple = (0.25, 0.5, 0.75)
    margin: float = _NUM_TOL
    seed: int = 11


@dataclass
class AssumptionReport:
    assumption_id: str
    passed: bool
    sample_count: int
    violations: list = dc_field(default_factory=list)
    eta_psi_profile: list | None = None
    notes: list = dc_field(default_factory=list)


def _torus_dist(xs: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Periodic distance from each x to the nearest anchor; inf if none."""
    if anchors.size == 0:
        return np.full(xs.shape[0], np.inf)
    diff = np.abs(xs[:, None, :] - anchors[None, :, :])
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff**2, axis=-1)).min(axis=1)


def check_assumption(
    H: Hamiltonian,
    assumption_id: str,
    config: SamplerConfig = SamplerConfig(),
    shift_c: float = 0.0,
) -> AssumptionReport:
    """Sampled verification of a structural assumption on H - shift_c.

    The optional ``shift_c`` subtracts a constant before testing, which is
    how the checks are rerun after normalizing by a computed large-time
    constant.  Kink neighborhoods |p| <= kink_radius are excluded from
    derivative-based sampling.  Each check binds H once, to its whole
    sample of x broadcast against its momenta, and reduces over the values.
    """
    if assumption_id not in ASSUMPTION_IDS:
        raise ConfigError(
            f"unknown assumption {assumption_id!r}; valid: {ASSUMPTION_IDS}"
        )
    rng = np.random.default_rng(config.seed)
    dim = H.dim
    xs = rng.uniform(0.0, 1.0, size=(config.n_x, dim))
    ps = rng.uniform(-config.p_box, config.p_box, size=(config.n_p, dim))
    keep = np.sqrt(np.sum(ps * ps, axis=-1)) > config.kink_radius
    ps = ps[keep]

    def bound(x, p):
        """H - shift_c bound to the points x broadcast against p, and p."""
        X, P = np.broadcast_arrays(x, p)
        h = H.bind(X)[0]
        return (lambda p: h(p) - shift_c), P

    report = AssumptionReport(assumption_id=assumption_id, passed=True, sample_count=0)

    if assumption_id == "strictconvex":
        qs = rng.uniform(-config.p_box, config.p_box, size=(ps.shape[0], dim))
        # deliberate collinear probes: the classic failure witness for |p|
        qs[: max(1, len(qs) // 4)] = 2.0 * ps[: max(1, len(qs) // 4)]
        x_sub = xs[:: max(1, len(xs) // 16)]
        lam = np.array(config.lambdas, dtype=float)[:, None]
        mixes = lam[..., None] * ps + (1 - lam[..., None]) * qs
        # one (x, lambda, p) array whose lambda axis is led by p and q
        hs, P = bound(x_sub[:, None, None, :], np.concatenate([ps[None], qs[None], mixes]))
        vals = hs(P)
        gap = lam * vals[:, :1] + (1 - lam) * vals[:, 1:2] - vals[:, 2:]
        sep = np.sqrt(np.sum((ps - qs) ** 2, axis=-1))
        bad = (gap <= config.margin) & (sep > 1e-6)
        report.sample_count = gap.size
        # the first 5 per (x, lambda), in sample order
        for a, k, b in zip(*np.nonzero(bad & (np.cumsum(bad, axis=-1) <= 5))):
            report.violations.append(
                (x_sub[a].tolist(), ps[b].tolist(), qs[b].tolist(), config.lambdas[k],
                 float(gap[a, k, b]))
            )
        report.passed = not report.violations
        return report

    if assumption_id == "coercive":
        radii = np.array([0.25, 0.5, 1.0]) * config.p_box
        dirs = _unit_directions(dim, 32)
        hs, P = bound(xs, radii[:, None, None, None] * dirs[:, None, :])
        vals = hs(P)
        mins = np.min(vals, axis=(1, 2)).tolist()
        report.sample_count = vals.size
        if not (mins[0] < mins[1] < mins[2]):
            report.violations.append((radii.tolist(), mins, "min H not increasing in |p|"))
        report.notes.append(f"min H at radii {radii.tolist()}: {mins}")
        report.passed = not report.violations
        return report

    # H5 / H7 / H10 share the compact-set machinery
    if H.compact_set_K is None:
        anchors = np.empty((0, dim))
        report.notes.append("no compact set supplied; treated as empty (dist = inf)")
    else:
        nodes = Grid(dim, 256 if dim == 1 else 32).nodes()
        anchors = nodes[np.asarray(H.compact_set_K(nodes)).reshape(-1)]
        if anchors.size == 0:
            report.notes.append("compact set predicate is empty on the sample lattice")
    dist = _torus_dist(xs, anchors)

    if assumption_id == "H5":
        # Triple form: where H(x, p+q) >= eta, H(x, q) <= 0 and x is eta-far
        # from the zero set, the excess H_p(x, p+q).p - H(x, p+q) must be
        # positive, uniformly per eta.
        qs = rng.uniform(-config.p_box, config.p_box, size=(len(ps), dim))
        hs, P = bound(xs[:, None, :], ps + qs)
        admissible = hs(np.broadcast_to(qs, P.shape)) <= 0.0
    else:
        # H7 / H10: the radial excess H_p . p - H; the rows after the x
        # sample sit on the compact zero set, where H must not be negative
        hs, P = bound(np.concatenate([xs, anchors])[:, None, :], ps)
        admissible = True
    level = hs(P)
    excess = np.sum(_p_gradient(hs, P, config.fd_step) * ps, axis=-1) - level
    level, excess, on_k = level[: len(xs)], excess[: len(xs)], level[len(xs):]
    report.sample_count = level.size + on_k.size

    if assumption_id == "H10":
        for a, b in list(zip(*np.nonzero(excess < -config.margin)))[:10]:
            report.violations.append(
                (xs[a].tolist(), ps[b].tolist(), float(excess[a, b]), "H_p . p - H < 0")
            )
    if on_k.size and np.min(on_k) < -config.margin:
        report.violations.append((float(np.min(on_k)), "H < 0 on the compact zero set"))
    what = "perturbation" if assumption_id == "H5" else "radial"
    profile = []
    for eta in config.etas:
        sel = (level >= eta) & admissible & (dist[:, None] >= eta)
        val = float(np.min(excess[sel])) if np.any(sel) else None
        profile.append((float(eta), val))
        if val is not None and val <= 0:
            report.violations.append((float(eta), val, f"{what} excess not positive"))
    report.eta_psi_profile = profile
    report.passed = not report.violations
    return report
