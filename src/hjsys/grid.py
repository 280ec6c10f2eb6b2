"""Uniform periodic lattices on the flat torus (dimension 1 or 2).

Axis coordinates are j*h for j = 0..n-1 with spacing h = 1/n, and every
index operation wraps around, so difference quotients never meet a
boundary.  Discrete fields are immutable once built; operators return
fresh arrays unless given buffers to fill.  One-sided differences satisfy
the exact shift identity ``roll(D+u, 1, axis) == D-u`` bit for bit, which
downstream monotonicity tests rely on.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "sample",
    "one_sided_diffs",
    "diff_arrays",
    "diff_axis",
    "sup_norm",
    "osc",
    "linf_distance",
    "interp_periodic",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
    "save_json",
    "save_table",
]

# 2D guard: a 512^2 grid is the largest the explicit solvers handle in
# reasonable time; refuse anything bigger up front.
_MAX_N_2D = 512


@dataclass(frozen=True)
class Grid:
    """Uniform tensor lattice with wrap-around indexing."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 points per axis, got {self.n}")
        if self.dim == 2 and self.n > _MAX_N_2D:
            raise ValueError(
                f"2D grids are capped at {_MAX_N_2D} points per axis, got {self.n}"
            )

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_nodes(self) -> int:
        return self.n**self.dim

    @cached_property
    def stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only, built once per grid for ``diff_axis``: neighbour indices
        -1..n-2 and 1..n, and h as a 0-d array (numpy applies it faster)."""
        arrays = np.arange(-1, self.n - 1), np.arange(1, self.n + 1), np.array(self.h)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape ``grid.shape + (dim,)``."""
        c = self.axis_coords()
        if self.dim == 1:
            return c[:, None]
        xx, yy = np.meshgrid(c, c, indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def nodes(self) -> np.ndarray:
        """Flat list of node coordinates, shape (num_nodes, dim)."""
        return self.mesh().reshape(-1, self.dim)

    def node_index(self, x) -> tuple[int, ...]:
        """Multi-index of the lattice node nearest to the torus point x."""
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if xa.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates, got {xa.shape}")
        idx = np.rint(xa * self.n).astype(int) % self.n
        return tuple(int(i) for i in idx)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued field on a Grid.  Values are locked after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)  # private copy
        if v.shape != self.grid.shape:
            raise ValueError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValueError(f"non-finite value at flat node {bad}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def sample(fn: Callable, grid: Grid) -> GridFunction:
    """Evaluate ``fn`` at every node.  ``fn`` takes points shaped (..., dim)."""
    vals = np.asarray(fn(grid.mesh()), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    return GridFunction(grid, vals)


def diff_arrays(
    values: np.ndarray, grid: Grid, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Backward/forward difference quotients of a raw value array.

    ``values`` has shape ``lead + grid.shape`` (``lead`` may be empty, e.g.
    a stack of components).  Returns ``(dminus, dplus)``, each shaped
    ``values.shape + (dim,)`` with the axis index in the trailing slot,
    matching the (x, p) convention of the Hamiltonian evaluators; ``out``
    supplies two such arrays to fill instead of fresh ones.  Periodic
    wrap-around is ``take(mode="wrap")`` of the grid's ``stencil``, and the
    forward quotients are copies of the backward ones shifted by one node,
    so ``roll(dplus, 1) == dminus`` holds exactly.
    """
    if out is None:
        dminus = np.empty(values.shape + (grid.dim,))
        dplus = np.empty_like(dminus)
    else:
        dminus, dplus = out
    for k in range(grid.dim):
        diff_axis(values, grid, values.ndim - grid.dim + k, dminus[..., k], dplus[..., k])
    return dminus, dplus


def diff_axis(values: np.ndarray, grid: Grid, axis: int, dm: np.ndarray, dp: np.ndarray) -> None:
    """One axis of ``diff_arrays``: the quotients along ``axis`` into ``dm`` and ``dp``."""
    back, forward, h = grid.stencil
    np.subtract(values, values.take(back, axis, mode="wrap"), out=dm)
    np.divide(dm, h, out=dm)
    dm.take(forward, axis, out=dp, mode="wrap")


def one_sided_diffs(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Periodic one-sided difference quotients of a GridFunction."""
    return diff_arrays(u.values, u.grid)


def sup_norm(u: GridFunction | np.ndarray) -> float:
    v = u.values if isinstance(u, GridFunction) else np.asarray(u)
    return float(np.max(np.abs(v)))


def osc(u: GridFunction | np.ndarray) -> float:
    v = u.values if isinstance(u, GridFunction) else np.asarray(u)
    return float(np.max(v) - np.min(v))


def linf_distance(u: GridFunction, w: GridFunction) -> float:
    if u.grid != w.grid:
        raise ValueError("grid mismatch")
    return float(np.max(np.abs(u.values - w.values)))


def interp_periodic(values: np.ndarray, grid: Grid, points: np.ndarray) -> np.ndarray:
    """Multilinear periodic interpolation of node values at arbitrary points.

    ``points`` has shape (k, dim); returns shape (k,).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != grid.dim:
        raise ValueError(f"points must have {grid.dim} coordinates")
    n = grid.n
    s = pts * n
    i0 = np.floor(s).astype(int)
    w = s - i0
    i0 %= n
    i1 = (i0 + 1) % n
    if grid.dim == 1:
        a, b = i0[:, 0], i1[:, 0]
        return (1 - w[:, 0]) * values[a] + w[:, 0] * values[b]
    ax, bx, ay, by = i0[:, 0], i1[:, 0], i0[:, 1], i1[:, 1]
    wx, wy = w[:, 0], w[:, 1]
    return (
        (1 - wx) * (1 - wy) * values[ax, ay]
        + wx * (1 - wy) * values[bx, ay]
        + (1 - wx) * wy * values[ax, by]
        + wx * wy * values[bx, by]
    )


# -- serialization ----------------------------------------------------------
#
# CSV: one row per node, "index,x[,y],value", floats via repr (round-trip).
# Binary: int32 little-endian header (dim, n), then row-major float64
# little-endian values.
# JSON artifacts: indent 2, sorted keys, a trailing newline.  A report is
# ``dataclasses.asdict`` of its dataclass, so its fields are its keys.


def save_csv(u: GridFunction, path) -> None:
    pts = u.grid.nodes()
    flat = u.values.reshape(-1)
    cols = "index," + ",".join("xy"[k] for k in range(u.grid.dim)) + ",value"
    rows = [(i, *pts[i], flat[i]) for i in range(flat.size)]
    save_table(rows, *os.path.split(os.path.abspath(path)), cols)


def load_csv(path) -> GridFunction:
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip()]
    header = rows[0].split(",")
    dim = len(header) - 2
    flat = np.array([float(r.split(",")[-1]) for r in rows[1:]])
    n = round(flat.size ** (1.0 / dim))
    grid = Grid(dim, n)
    return GridFunction(grid, flat.reshape(grid.shape))


def save_binary(u: GridFunction, path) -> None:
    with open(path, "wb") as fh:
        fh.write(np.array([u.grid.dim, u.grid.n], dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_binary(path) -> GridFunction:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise ValueError(f"{path}: {len(raw)} bytes is shorter than the 8-byte header")
    dim, n = (int(v) for v in np.frombuffer(raw[:8], dtype="<i4"))
    grid = Grid(dim, n)
    want = 8 + 8 * grid.num_nodes
    if len(raw) != want:
        raise ValueError(
            f"{path}: expected {want} bytes for a {dim}D grid with n = {n}, got {len(raw)}"
        )
    vals = np.frombuffer(raw[8:], dtype="<f8").reshape(grid.shape)
    return GridFunction(grid, vals)


def save_json(obj, directory, name: str) -> str:
    """Write ``obj`` as the JSON artifact ``directory/name``, creating the
    directory; returns the path.  Every JSON artifact uses this format."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def save_table(rows, directory, name: str, header: str) -> str:
    """Write ``rows`` under ``header`` as the CSV table ``directory/name`` like
    ``save_json``: ints as written, every other entry as repr(float(x))."""
    lines = [header]
    lines += [",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in r) for r in rows]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
