"""Built-in Hamiltonians, couplings, systems and switching processes.

Sources and vector fields are described by truncated Fourier data so that
configuration documents stay plain JSON:

    {"const": c, "terms": [{"k": [1], "cos": a, "sin": b}, ...]}

evaluates to ``c + sum a cos(2 pi k.x) + b sin(2 pi k.x)``.  Direction
profiles for the nonconvex family use a Fourier series in the direction
angle: ``{"const": c, "angle": [{"j": 1, "cos": a, "sin": b}, ...]}`` with
theta = atan2(d_2, d_1) (theta in {0, pi} in one dimension).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .coupling import CouplingMatrix
from .errors import ConfigError
from .evolution import HJSystem
from .grid import Grid, sample
from .hamiltonians import (
    Hamiltonian,
    make_linear_eikonal,
    make_nonconvex_example,
    make_quadratic_eikonal,
)
from .switching import SwitchingProcessSpec

__all__ = [
    "fourier_function",
    "direction_profile",
    "vector_field",
    "build_hamiltonian",
    "builtin_coupling",
    "quadratic_eikonal_pair",
    "unit_ball_eikonal_process",
    "idle_process",
    "list_builtin",
    "F1",
    "F2",
    "BUILTIN_HAMILTONIAN_IDS",
    "BUILTIN_COUPLINGS",
]

BUILTIN_HAMILTONIAN_IDS = ("quadratic_eikonal", "linear_eikonal", "nonconvex_bs00")

BUILTIN_COUPLINGS = {
    "symmetric_pair": [[1.0, -1.0], [-1.0, 1.0]],
    "asymmetric_pair": [[1.0, -1.0], [-2.0, 2.0]],
    "cyclic3": [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]],
}


def _mapping(spec, what: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a mapping, got {type(spec).__name__}")


def fourier_function(params: dict, dim: int) -> Callable:
    """Compile a truncated Fourier description into a vectorized callable."""
    _mapping(params, "fourier spec")
    const = float(params.get("const", 0.0))
    terms = []
    for t, term in enumerate(params.get("terms", [])):
        _mapping(term, f"fourier terms[{t}]")
        k = np.asarray(term.get("k", [1] * dim), dtype=float).reshape(-1)
        if k.size != dim or not np.all(np.isfinite(k)):
            raise ConfigError(f"terms[{t}].k must have {dim} finite entries, got {k.tolist()}")
        terms.append((k, float(term.get("cos", 0.0)), float(term.get("sin", 0.0))))
    if not np.all(np.isfinite([const] + [c for _, a, b in terms for c in (a, b)])):
        raise ConfigError("fourier const, cos and sin must be finite")

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape[:-1], const)
        for k, a, b in terms:
            phase = 2.0 * np.pi * np.sum(x * k, axis=-1)
            if a:
                out = out + a * np.cos(phase)
            if b:
                out = out + b * np.sin(phase)
        return out

    return fn


def direction_profile(params: dict, dim: int) -> tuple[Callable, float]:
    """Compile a direction profile F(x, d); returns (fn, angle_slope_bound)."""
    _mapping(params, "direction profile F")
    const = float(params.get("const", 1.0))
    angle = []
    for i, t in enumerate(params.get("angle", [])):
        _mapping(t, f"direction profile angle[{i}]")
        angle.append((int(t.get("j", 1)), float(t.get("cos", 0.0)), float(t.get("sin", 0.0))))
    named = [("const", const)] + [
        (f"angle[{t}].{key}", v) for t, (_, a, b) in enumerate(angle)
        for key, v in (("cos", a), ("sin", b))
    ]
    for key, v in named:
        if not np.isfinite(v):
            raise ConfigError(f"direction profile {key} must be finite, got {v!r}")
    slope = sum(abs(j) * (abs(a) + abs(b)) for j, a, b in angle)

    def fn(x, d):
        d = np.asarray(d, dtype=float)
        if dim == 2:
            theta = np.arctan2(d[..., 1], d[..., 0])
        else:
            theta = np.where(d[..., 0] >= 0, 0.0, np.pi)
        out = np.full(theta.shape, const)
        for j, a, b in angle:
            if a:
                out = out + a * np.cos(j * theta)
            if b:
                out = out + b * np.sin(j * theta)
        return out

    return fn, slope


def vector_field(params: list, dim: int) -> Callable:
    """Stack per-component Fourier descriptions into a vector field."""
    if len(params) != dim:
        raise ConfigError(f"vector field needs {dim} component specs, got {len(params)}")
    comps = [fourier_function(p, dim) for p in params]

    def fn(x):
        return np.stack([c(x) for c in comps], axis=-1)

    return fn


_DEFAULT_F = {"const": 1.0, "terms": [{"cos": -1.0}]}  # 1 - cos(2 pi k.x), k = [1] * dim


def build_hamiltonian(ham_id: str, params: dict | None, dim: int = 1) -> Hamiltonian:
    """Instantiate a built-in Hamiltonian from its id and JSON parameters."""
    params = dict(params or {})
    if ham_id not in BUILTIN_HAMILTONIAN_IDS:
        raise ConfigError(
            f"unknown hamiltonian id {ham_id!r}; valid: {BUILTIN_HAMILTONIAN_IDS}"
        )
    p_box = float(params.get("p_box", 2.5))
    if not (np.isfinite(p_box) and p_box > 0):
        raise ConfigError(f"p_box must be positive and finite, got {p_box!r}")
    if ham_id == "quadratic_eikonal":
        f = fourier_function(params.get("f", _DEFAULT_F), dim)
        return make_quadratic_eikonal(f, dim=dim, p_box=p_box,
                                      params={"id": ham_id, **params})
    if ham_id == "linear_eikonal":
        f = fourier_function(params.get("f", _DEFAULT_F), dim)
        return make_linear_eikonal(f, dim=dim, p_box=p_box,
                                   params={"id": ham_id, **params})
    f = fourier_function(params.get("f", _DEFAULT_F), dim)
    default_q = [{"terms": [{"sin": 0.3}]}] * dim
    q = vector_field(params.get("q", default_q), dim)
    Ffn, slope = direction_profile(
        params.get("F", {"const": 1.0, "angle": [{"j": 1, "cos": 0.3}]}), dim
    )
    return make_nonconvex_example(
        Ffn, f, q, dim=dim, p_box=p_box, F_angle_slope=slope,
        params={"id": ham_id, **params},
    )


def builtin_coupling(name: str) -> np.ndarray:
    if name not in BUILTIN_COUPLINGS:
        raise ConfigError(
            f"unknown coupling {name!r}; valid: {sorted(BUILTIN_COUPLINGS)}"
        )
    return np.asarray(BUILTIN_COUPLINGS[name], dtype=float)


# The eikonal pair's sources share their minimizer x = 0.
F1 = {"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}  # 0.5 + 1 - cos(2 pi x)
F2 = {"const": 2.0, "terms": [{"k": [1], "cos": -2.0}]}  # 2 (1 - cos(2 pi x))


def quadratic_eikonal_pair(n: int) -> tuple[HJSystem, list]:
    """|p|^2 - F1 and |p|^2 - F2 on a 1D grid of n nodes, symmetric coupling.

    Returns the system and the two sources sampled on its grid.
    """
    grid = Grid(1, n)
    hams = tuple(build_hamiltonian("quadratic_eikonal", {"f": f}) for f in (F1, F2))
    D = CouplingMatrix.constant(builtin_coupling("symmetric_pair"))
    fs = [sample(fourier_function(f, 1), grid) for f in (F1, F2)]
    return HJSystem(hams=hams, coupling=D, grid=grid), fs


def _zero_terminal(x):
    return np.zeros(np.shape(x)[:-1])


def _process(rates, dynamics, costs, control_set) -> SwitchingProcessSpec:
    """1D process with one dynamics/cost pair per mode and zero terminal cost."""
    m = len(costs)
    return SwitchingProcessSpec(
        m=m,
        dynamics=(dynamics,) * m,
        costs=tuple(costs),
        rates=rates,
        control_set=control_set,
        terminal=(_zero_terminal,) * m,
        dim=1,
    )


def _unit_ball_velocity(x, a):
    return np.broadcast_to(a, np.broadcast_shapes(np.shape(x), np.shape(a)))


def unit_ball_eikonal_process(fs, rates, n_actions: int = 64) -> SwitchingProcessSpec:
    """dx/dt = a with a in [-1, 1] (n_actions points), running cost f_i(x).

    ``fs`` lists one Fourier source description per mode.  The matching
    Hamiltonian of mode i is max_a [-a p] - f_i(x) = |p| - f_i(x), up to the
    action grid.
    """
    m = len(rates)
    if len(fs) != m:
        raise ConfigError(f"process.fs must list {m} source functions")

    def running_cost(fn):
        return lambda x, a: fn(x)

    return _process(
        rates,
        _unit_ball_velocity,
        [running_cost(fourier_function(f, 1)) for f in fs],
        np.linspace(-1.0, 1.0, n_actions)[:, None],
    )


def _idle_velocity(x, a):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a)))


def idle_process(cost_rates, rates) -> SwitchingProcessSpec:
    """No motion, one action, a constant running cost per mode."""
    m = len(rates)
    cost_rates = [float(v) for v in cost_rates]
    if len(cost_rates) != m or not np.all(np.isfinite(cost_rates)):
        raise ConfigError(f"process.cost_rates must list {m} finite rates")

    def running_cost(v):
        return lambda x, a: np.full(np.broadcast_shapes(np.shape(x), np.shape(a))[:-1], v)

    return _process(rates, _idle_velocity, [running_cost(v) for v in cost_rates], np.zeros((1, 1)))


def list_builtin(kind: str) -> list[str]:
    """Catalog listing for the CLI; kinds: hamiltonians, couplings, suites."""
    if kind == "hamiltonians":
        return list(BUILTIN_HAMILTONIAN_IDS)
    if kind == "couplings":
        return sorted(BUILTIN_COUPLINGS)
    if kind == "suites":
        from .suites import SUITE_RUNNERS  # suites builds on this module

        return list(SUITE_RUNNERS)
    raise ConfigError(f"unknown catalog kind {kind!r}; valid: hamiltonians, couplings, suites")
