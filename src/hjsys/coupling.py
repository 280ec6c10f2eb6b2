"""Structure theory for monotone coupling matrices.

A coupling matrix D couples the components of the system through the
zeroth-order term sum_j d_ij u_j.  The monotone sign pattern is d_ii >= 0,
d_ij <= 0 for i != j, with every row summing to zero, so constants lie in
the kernel.  Under irreducibility (the directed graph with an edge i -> j
whenever d_ij != 0, i != j, is strongly connected) the matrix has rank
m - 1 and its transpose has a strictly positive left null vector, the
weight vector used throughout: the weighted average of the component
sources is what the large-time constant sees.

``delta_rate`` computes the certified decay exponent of the maximal
pairwise component gap for u' = -Du:

    delta = min over ordered pairs i != j and subsets I with j in I, i not in I
            of -( sum_{k in I} d_ik + sum_{k not in I} d_jk )
          = min over ordered pairs i != j
            of -( d_ij + d_ji + sum_{k not in {i, j}} max(d_ik, d_jk) ),

since the subset minimum separates index by index: O(m^3) for any m.  The gap
Phi(t) = max_{i != j} max_x (u_i - u_j) then obeys Phi(t) <= Phi(0) e^{-delta t};
for m = 2 the exponent is attained exactly.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import StructureError
from .grid import GridFunction

__all__ = [
    "CouplingMatrix",
    "PerronVector",
    "CouplingReport",
    "validate_monotone",
    "is_irreducible",
    "irreducible_bruteforce",
    "pairwise_nonzero",
    "perron_vector",
    "constant_solution",
    "ergodic_constant_formula",
    "delta_rate",
    "analyze",
]

ROW_SUM_TOL = 1e-12
RANK_TOL = 1e-10  # relative singular-value threshold
NULL_RESIDUAL_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class CouplingMatrix:
    """Constant m x m coupling; ``entries`` are finite and read-only."""

    m: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.entries, dtype=float)
        if e.shape != (self.m, self.m):
            raise StructureError(f"entries must be {self.m}x{self.m}, got {e.shape}")
        if not np.all(np.isfinite(e)):
            raise StructureError(f"coupling entries must be finite, got {e.tolist()}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @classmethod
    def constant(cls, entries) -> "CouplingMatrix":
        e = np.asarray(entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise StructureError(f"coupling matrix must be square, got {e.shape}")
        return cls(m=e.shape[0], entries=e)


@dataclass(frozen=True)
class PerronVector:
    """Strictly positive left null vector of a coupling matrix, sum = 1."""

    weights: np.ndarray
    residual: float  # ||D^T w||_inf after normalization

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass
class CouplingReport:
    """Summary of the structural checks on a constant coupling matrix."""

    m: int
    monotone: bool
    violations: list = field(default_factory=list)
    irreducible: bool | None = None
    rank: int | None = None
    nonzero_row_index: int | None = None
    pairwise_nonzero: bool | None = None
    delta_rate: float | None = None
    perron: list | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _entries(D) -> np.ndarray:
    if isinstance(D, CouplingMatrix):
        return D.entries
    e = np.asarray(D, dtype=float)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise StructureError(f"coupling matrix must be square, got {e.shape}")
    return e


def validate_monotone(D, tol: float = ROW_SUM_TOL) -> tuple[bool, list]:
    """Check the monotone sign pattern and zero row sums.

    Returns ``(ok, violations)`` where each violation is a tuple
    ``(i, j, reason)``; row-sum violations carry ``j = None``.  Every
    non-finite entry is a violation; its row sum is then not checked.
    """
    e = _entries(D)
    m = e.shape[0]
    violations: list[tuple] = []
    for i in range(m):
        if e[i, i] < 0:
            violations.append((i, i, f"negative diagonal entry {e[i, i]!r}"))
        for j in range(m):
            if not np.isfinite(e[i, j]):
                violations.append((i, j, f"non-finite entry {e[i, j]!r}"))
            elif j != i and e[i, j] > 0:
                violations.append((i, j, f"positive off-diagonal entry {e[i, j]!r}"))
        s = float(np.sum(e[i])) if np.all(np.isfinite(e[i])) else 0.0
        if abs(s) > tol:
            violations.append((i, None, f"row sum {s!r} exceeds tolerance {tol!r}"))
    return (not violations), violations


def _adjacency(e: np.ndarray) -> np.ndarray:
    adj = e != 0.0
    np.fill_diagonal(adj, False)
    return adj


def _reaches_all(adj: np.ndarray, start: int) -> bool:
    # breadth-first search over the boolean adjacency matrix
    m = adj.shape[0]
    seen = np.zeros(m, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt = np.any(adj[frontier], axis=0) & ~seen
        seen |= nxt
        frontier = list(np.flatnonzero(nxt))
    return bool(seen.all())


def is_irreducible(D) -> bool:
    """Strong connectivity of the off-diagonal sparsity digraph.

    Equivalent to: every proper nonempty index subset I has some i in I,
    j outside I with d_ij != 0.  m = 1 is vacuously irreducible.
    """
    e = _entries(D)
    if e.shape[0] == 1:
        return True
    adj = _adjacency(e)
    return _reaches_all(adj, 0) and _reaches_all(adj.T, 0)


def irreducible_bruteforce(D) -> bool:
    """Literal subset-based irreducibility check (oracle; small m only)."""
    e = _entries(D)
    m = e.shape[0]
    for mask in range(1, (1 << m) - 1):
        inside = [i for i in range(m) if mask >> i & 1]
        outside = [j for j in range(m) if not mask >> j & 1]
        if not any(e[i, j] != 0.0 for i in inside for j in outside):
            return False
    return True


def pairwise_nonzero(D) -> bool:
    """For every i, j there is some k with d_ik * d_jk != 0."""
    e = _entries(D)
    nz = e != 0.0
    common = nz @ nz.T  # common[i, j] = count of shared nonzero columns
    return bool(np.all(common > 0))


def perron_vector(D) -> PerronVector:
    """Positive left null vector (sum 1) of an irreducible monotone matrix.

    Solved as the null space of D^T via SVD; also asserts rank m - 1 so the
    kernel of D is exactly the constants.
    """
    e = _entries(D)
    m = e.shape[0]
    ok, violations = validate_monotone(e)
    if not ok:
        raise StructureError(f"matrix is not monotone: {violations[:3]}")
    if not is_irreducible(e):
        raise StructureError("matrix is reducible; no positive weight vector")
    u, s, vt = np.linalg.svd(e.T)
    smax = s[0] if m > 1 else 1.0
    if m > 1:
        if s[m - 2] <= RANK_TOL * smax:
            raise StructureError(
                f"rank deficiency beyond the constants: singular values {s.tolist()}"
            )
        if s[m - 1] > RANK_TOL * smax:
            raise StructureError(
                f"no kernel direction found: smallest singular value {s[m - 1]!r}"
            )
    w = vt[-1]
    if np.all(w <= 0):
        w = -w
    total = float(np.sum(w))
    if total <= 0 or np.any(w <= 0):
        raise StructureError(f"null vector is not strictly positive: {w.tolist()}")
    w = w / total
    residual = float(np.max(np.abs(e.T @ w)))
    if residual > NULL_RESIDUAL_TOL:
        raise StructureError(f"left null residual {residual!r} exceeds tolerance")
    return PerronVector(weights=w, residual=residual)


def constant_solution(D, b) -> tuple[np.ndarray, float]:
    """Solve sum_j d_ij u_j = b_i - a with the compatible constant a.

    a is the weighted average of b under the Perron weights; the last
    component is pinned to zero and the leading (m-1) x (m-1) minor is
    inverted.  Returns ``(u, a)`` with ||D u - (b - a)||_inf <= 1e-10.
    """
    e = _entries(D)
    m = e.shape[0]
    bv = np.asarray(b, dtype=float)
    if bv.shape != (m,):
        raise StructureError(f"b must have shape ({m},), got {bv.shape}")
    lam = perron_vector(e).weights
    a = float(lam @ bv)  # weights sum to 1
    u = np.zeros(m)
    if m > 1:
        minor = e[: m - 1, : m - 1]
        try:
            u[: m - 1] = np.linalg.solve(minor, (bv - a)[: m - 1])
        except np.linalg.LinAlgError as exc:
            raise StructureError(f"leading minor is singular: {exc}") from exc
    residual = float(np.max(np.abs(e @ u - (bv - a))))
    if residual > SOLVE_RESIDUAL_TOL:
        raise StructureError(f"constant-solution residual {residual!r} too large")
    return u, a


def ergodic_constant_formula(D, fs: Sequence[GridFunction]) -> float:
    """Large-time constant from the weighted grid minimum of the sources.

    With weights lam from the coupling, returns
    ``-min_x sum_i lam_i f_i(x) / sum_i lam_i``.  All sources must share a
    grid.  Valid when the sources share a minimizer; callers are trusted on
    that point.
    """
    e = _entries(D)
    m = e.shape[0]
    if len(fs) != m:
        raise ValueError(f"need {m} source functions, got {len(fs)}")
    g0 = fs[0].grid
    for f in fs[1:]:
        if f.grid != g0:
            raise ValueError("source functions live on different grids")
    lam = perron_vector(e).weights
    weighted = sum(lam[i] * fs[i].values for i in range(m))
    return -float(np.min(weighted)) / float(np.sum(lam))


def delta_rate(D) -> float:
    """Certified gap decay exponent, in the closed form above; k in {i, j} is
    left out by index, not by sign, so any input gets the subset value."""
    e = _entries(D)
    m = e.shape[0]
    if not pairwise_nonzero(e):
        raise StructureError(
            "pairwise nonzero-column condition fails; gap rate undefined"
        )
    best = np.inf
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            others = np.ones(m, dtype=bool)
            others[[i, j]] = False
            val = -(e[i, j] + e[j, i] + np.sum(np.max(e[[i, j]][:, others], axis=0)))
            best = min(best, val)
    if not np.isfinite(best) or best <= 0:
        raise StructureError(f"gap rate is not positive: {best!r}")
    return float(best)


def analyze(D) -> CouplingReport:
    """Full structural report for a constant coupling matrix.

    Raises ``StructureError`` for non-finite entries, which leave nothing
    to analyze; any other violation is reported with ``monotone`` False.
    """
    e = _entries(D)
    if not np.all(np.isfinite(e)):
        raise StructureError(f"coupling entries must be finite, got {e.tolist()}")
    m = e.shape[0]
    ok, violations = validate_monotone(e)
    report = CouplingReport(m=m, monotone=ok, violations=violations)
    if not ok:
        return report
    report.irreducible = is_irreducible(e)
    s = np.linalg.svd(e, compute_uv=False)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    report.rank = int(np.sum(s > RANK_TOL * smax))
    rows_all_nonzero = np.flatnonzero(np.all(e != 0.0, axis=1))
    report.nonzero_row_index = (
        int(rows_all_nonzero[0]) if rows_all_nonzero.size else None
    )
    report.pairwise_nonzero = pairwise_nonzero(e)
    if report.irreducible:
        report.perron = perron_vector(e).weights.tolist()
    if report.pairwise_nonzero:
        try:
            report.delta_rate = delta_rate(e)
        except StructureError:
            report.delta_rate = None
    return report
