"""Built-in Hamiltonians, couplings, systems and switching processes.

Sources and vector fields are described by truncated Fourier data so that
configuration documents stay plain JSON:

    {"const": c, "terms": [{"k": [1], "cos": a, "sin": b}, ...]}

evaluates to ``c + sum a cos(2 pi k.x) + b sin(2 pi k.x)``.  Direction
profiles for the nonconvex family use a Fourier series in the direction
angle: ``{"const": c, "angle": [{"j": 1, "cos": a, "sin": b}, ...]}`` with
theta = atan2(d_2, d_1) (theta in {0, pi} in one dimension).

The catalog is the one reader of the config blocks that say what is
simulated: ``build_system`` reads a ``system`` block and its ``grid``,
``build_coupling`` a ``coupling`` block, ``build_hamiltonian`` the
``params`` of each id, the Fourier and direction-profile readers their
descriptions and terms, and ``build_process`` a ``process`` block.  They
read through ``errors``' readers, so every block, nested ones included,
refuses a key it does not accept with a ConfigError that names the block
and the key, for Python callers as for the CLI.
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .coupling import CouplingMatrix
from .errors import ConfigError, field, integer, mapping, number
from .evolution import HJSystem
from .grid import Grid, sample
from .hamiltonians import (
    Hamiltonian,
    make_linear_eikonal,
    make_nonconvex_example,
    make_quadratic_eikonal,
)
from .switching import SwitchingProcessSpec, coupling_from_spec, hamiltonian_from_spec

__all__ = [
    "fourier_series",
    "fourier_function",
    "direction_profile",
    "vector_field",
    "build_hamiltonian",
    "builtin_coupling",
    "build_coupling",
    "build_system",
    "build_process",
    "sources",
    "process_system",
    "quadratic_eikonal_pair",
    "unit_ball_eikonal_process",
    "idle_process",
    "list_builtin",
    "F0",
    "F1",
    "F2",
    "BUILTIN_HAMILTONIAN_IDS",
    "BUILTIN_COUPLINGS",
    "SYSTEMS",
]

BUILTIN_HAMILTONIAN_IDS = ("quadratic_eikonal", "linear_eikonal", "nonconvex_bs00")

BUILTIN_COUPLINGS = {
    "symmetric_pair": [[1.0, -1.0], [-1.0, 1.0]],
    "asymmetric_pair": [[1.0, -1.0], [-2.0, 2.0]],
    "cyclic3": [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]],
}


def fourier_series(x, a=None, *, coef, terms):
    """coef[0] + sum coef[i] cos(2 pi k.x) + coef[j] sin(2 pi k.x) over the
    (k, i, j) of ``terms``, i or j 0 for a term left out.  ``coef`` may hold
    one value per point on a trailing axis.  The action ``a`` is ignored: a
    source f(x) and a running cost l(x, a) alike."""
    x = np.asarray(x, dtype=float)
    out = const = coef[0]
    for k, i, j in terms:
        # in 1D, + 0.0 stands for the length-1 sum: it turns -0.0 into 0.0
        kx = x[..., 0] * k[0] + 0.0 if len(k) == 1 else np.sum(x * k, axis=-1)
        phase = 2.0 * np.pi * kx
        if i:
            out = out + coef[i] * np.cos(phase)
        if j:
            out = out + coef[j] * np.sin(phase)
    return np.full(x.shape[:-1], const) if out is const else out


fourier_series.mode_keyword = "coef"  # see switching.SwitchingProcessSpec


def fourier_function(params: dict, dim: int) -> Callable:
    """Compile a truncated Fourier description into ``fourier_series`` with
    ``coef`` the constant and the nonzero cos and sin coefficients; zero
    ones are left out, so ``terms`` holds the frequencies and that pattern."""
    mapping(params, "fourier spec", ("const", "terms"))
    coef = [number(params.get("const", 0.0), "fourier const")]
    terms = []
    for t, term in enumerate(params.get("terms", [])):
        where = f"fourier terms[{t}]"
        mapping(term, where, ("k", "cos", "sin"))
        k = term.get("k", [1] * dim)
        k = k if isinstance(k, (list, tuple, np.ndarray)) else [k]
        if len(k) != dim:
            raise ConfigError(f"{where}.k must have {dim} entries, got {k!r}")
        k = tuple(number(e, f"{where}.k") for e in k)
        slots = []
        for key in ("cos", "sin"):
            value = number(term.get(key, 0.0), f"{where}.{key}")
            slots.append(len(coef) if value else 0)
            if value:
                coef.append(value)
        terms.append((k, *slots))
    return partial(fourier_series, coef=np.array(coef), terms=tuple(terms))


def direction_profile(params: dict, dim: int) -> tuple[Callable, float]:
    """Compile a direction profile F(x, d); returns (fn, angle_slope_bound)."""
    mapping(params, "direction profile F", ("const", "angle"))
    const = number(params.get("const", 1.0), "direction profile const")
    angle = []
    for i, t in enumerate(params.get("angle", [])):
        where = f"direction profile angle[{i}]"
        mapping(t, where, ("j", "cos", "sin"))
        j = integer(t.get("j", 1), f"{where}.j")
        a, b = (number(t.get(key, 0.0), f"{where}.{key}") for key in ("cos", "sin"))
        angle.append((j, a, b))
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
    """Instantiate a built-in Hamiltonian from its id and JSON parameters:
    ``p_box`` and the source ``f``, and for ``nonconvex_bs00`` the drift
    ``q`` and the direction profile ``F``."""
    if ham_id not in BUILTIN_HAMILTONIAN_IDS:
        raise ConfigError(
            f"unknown hamiltonian id {ham_id!r}; valid: {BUILTIN_HAMILTONIAN_IDS}"
        )
    accepted = ("p_box", "f") + (("q", "F") if ham_id == "nonconvex_bs00" else ())
    params = mapping({} if params is None else params, f"{ham_id} params", accepted)
    p_box = number(params.get("p_box", 2.5), "p_box")
    if p_box <= 0:
        raise ConfigError(f"p_box must be positive and finite, got {p_box!r}")
    f = fourier_function(params.get("f", _DEFAULT_F), dim)
    if ham_id != "nonconvex_bs00":
        make = make_quadratic_eikonal if ham_id == "quadratic_eikonal" else make_linear_eikonal
        return make(f, dim=dim, p_box=p_box, params={"id": ham_id, **params})
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


def build_coupling(block: dict, where: str = "coupling") -> CouplingMatrix:
    """A coupling block, named ``where`` in errors: a built-in ``name``, else
    explicit ``entries``."""
    mapping(block, where, ("name", "entries"))
    if "name" in block:
        return CouplingMatrix.constant(builtin_coupling(block["name"]))
    if "entries" not in block:
        raise ConfigError("coupling block needs either 'name' or 'entries'")
    return CouplingMatrix.constant(field(block, "entries", where=where, read=number, many=True))


def build_system(block: dict, grid: Grid | None = None) -> HJSystem:
    """The system of a ``system`` block (``grid``, ``coupling`` and
    ``hamiltonians``, each an ``id`` and its ``params``) on ``grid``, or on
    the block's own grid (``dim``, ``n``) when ``grid`` is None."""
    mapping(block, "system", ("grid", "coupling", "hamiltonians"))
    if grid is None:
        grid_block = mapping(field(block, "grid", where="system"), "system.grid", ("dim", "n"))
        grid = Grid(field(grid_block, "dim", 1, "system.grid", read=integer),
                    field(grid_block, "n", where="system.grid", read=integer))
    coupling = build_coupling(field(block, "coupling", where="system"), "system.coupling")
    blocks = field(block, "hamiltonians", where="system")
    if not isinstance(blocks, list) or not blocks:
        raise ConfigError("system.hamiltonians must be a nonempty list")
    hams = []
    for i, hb in enumerate(blocks):
        where = f"system.hamiltonians[{i}]"
        mapping(hb, where, ("id", "params"))
        hams.append(build_hamiltonian(field(hb, "id", where=where), hb.get("params"), grid.dim))
    return HJSystem(hams=tuple(hams), coupling=coupling, grid=grid)


def sources(system: HJSystem) -> list:
    """Each component's separable source f_i sampled on the system's grid."""
    for i, h in enumerate(system.hams):
        if h.source is None:
            raise ConfigError(
                f"hamiltonian {i} has no separable source; minimizer sets need sources"
            )
    return [sample(h.source, system.grid) for h in system.hams]


def process_system(spec: SwitchingProcessSpec, grid: Grid) -> HJSystem:
    """The process's PDE system: each mode's max-over-actions H, the rates' coupling."""
    hams = tuple(hamiltonian_from_spec(spec, i) for i in range(spec.m))
    return HJSystem(hams=hams, coupling=coupling_from_spec(spec), grid=grid)


F0 = {"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]}  # 1 - cos(2 pi x)
# The eikonal pair's sources share their minimizer x = 0.
F1 = {"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}  # 0.5 + 1 - cos(2 pi x)
F2 = {"const": 2.0, "terms": [{"k": [1], "cos": -2.0}]}  # 2 (1 - cos(2 pi x))

# The suites' systems; with a "grid" block added, each is an evolve config's "system".
SYSTEMS = {
    "largenew-eikonal": {
        "coupling": {"name": "symmetric_pair"},
        "hamiltonians": [{"id": "quadratic_eikonal", "params": {"f": F1}},
                         {"id": "quadratic_eikonal", "params": {"f": F2}}],
    },
    "mainresult-nonconvex": {
        "coupling": {"name": "symmetric_pair"},
        "hamiltonians": [
            {"id": "nonconvex_bs00", "params": {
                "f": {"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]},
                "q": [{"terms": [{"k": [1], "sin": 0.3}]}],
                "F": {"const": 1.0, "angle": [{"j": 1, "cos": 0.3}]},
            }},
            {"id": "nonconvex_bs00", "params": {
                "f": {"const": 0.8, "terms": [{"k": [1], "cos": -0.8}]},
                "q": [{"terms": [{"k": [1], "sin": 0.2}]}],
                "F": {"const": 1.0, "angle": [{"j": 1, "cos": -0.25}]},
            }},
        ],
    },
    # disjoint argmins: x = 0 for the first source, x = 1/2 for the second
    "exist-smoo-strictconvex": {
        "coupling": {"name": "symmetric_pair"},
        "hamiltonians": [
            {"id": "quadratic_eikonal", "params": {"f": F0}},
            {"id": "quadratic_eikonal",
             "params": {"f": {"const": 0.7, "terms": [{"k": [1], "cos": 0.5}]}}},
        ],
    },
    "identical-gap": {
        "coupling": {"name": "symmetric_pair"},
        "hamiltonians": [{"id": "quadratic_eikonal", "params": {"f": F0}}] * 2,
    },
}


def quadratic_eikonal_pair(n: int) -> tuple[HJSystem, list]:
    """The largenew-eikonal system, |p|^2 - F1 and |p|^2 - F2 symmetrically
    coupled, on a 1D grid of n nodes, and its two sources sampled there."""
    system = build_system(SYSTEMS["largenew-eikonal"], Grid(1, n))
    return system, sources(system)


def _process(rates, dynamics, costs, control_set) -> SwitchingProcessSpec:
    """1D process with one dynamics/cost pair per mode and zero terminal cost."""
    m = len(costs)
    return SwitchingProcessSpec(
        m=m,
        dynamics=(dynamics,) * m,
        costs=tuple(costs),
        rates=rates,
        control_set=control_set,
        terminal=(partial(fourier_series, coef=np.zeros(1), terms=()),) * m,
        dim=1,
    )


def _unit_ball_velocity(x, a):
    return np.broadcast_to(a, np.broadcast(x, a).shape)


def unit_ball_eikonal_process(fs, rates, n_actions: int = 64) -> SwitchingProcessSpec:
    """dx/dt = a with a in [-1, 1] (n_actions points), running cost f_i(x).

    ``fs`` lists one Fourier source description per mode.  The matching
    Hamiltonian of mode i is max_a [-a p] - f_i(x) = |p| - f_i(x), up to the
    action grid.
    """
    m = len(rates)
    if len(fs) != m:
        raise ConfigError(f"process.fs must list {m} source functions")
    n = integer(n_actions, "process.n_actions", least=1)
    return _process(
        rates,
        _unit_ball_velocity,
        [fourier_function(f, 1) for f in fs],
        np.linspace(-1.0, 1.0, n)[:, None],
    )


def _idle_velocity(x, a):
    return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(a)))


def idle_process(cost_rates, rates) -> SwitchingProcessSpec:
    """No motion, one action, a constant running cost per mode."""
    m = len(rates)
    cost_rates = number(cost_rates, "process.cost_rates", many=True)
    if cost_rates.shape != (m,):
        raise ConfigError(f"process.cost_rates must list {m} finite rates")
    costs = [partial(fourier_series, coef=np.array([v]), terms=()) for v in cost_rates.tolist()]
    return _process(rates, _idle_velocity, costs, np.zeros((1, 1)))


# the keys of a process block, per kind
_PROCESS_BLOCKS = {"unit_ball_eikonal": ("kind", "rates", "fs", "n_actions"),
                   "idle": ("kind", "rates", "cost_rates")}


def build_process(block: dict) -> SwitchingProcessSpec:
    """A ``process`` block: the builder of its ``kind`` on its ``rates`` and
    the kind's other keys (``n_actions`` is 64 when left out)."""
    kind = field(block, "kind", where="process")
    if not isinstance(kind, str) or kind not in _PROCESS_BLOCKS:
        raise ConfigError(f"unknown process kind {kind!r}")
    mapping(block, f"process of kind {kind!r}", _PROCESS_BLOCKS[kind])
    rates = field(block, "rates", where="process", read=number, many=True)
    if kind == "idle":
        return idle_process(field(block, "cost_rates", where="process"), rates)
    return unit_ball_eikonal_process(field(block, "fs", where="process"), rates,
                                     block.get("n_actions", 64))


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
