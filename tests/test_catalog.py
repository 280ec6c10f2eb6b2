"""Catalog Fourier sources against the formula they replaced, and the
catalog's reading of its numbers."""

from __future__ import annotations

import numpy as np
import pytest

from hjsys.catalog import F1, F2, build_hamiltonian, direction_profile, fourier_function
from hjsys.errors import ConfigError


def _reference_fourier(params: dict, dim: int):
    """The earlier evaluator: a full array of the constant, and each term's
    phase from np.sum over k.x, in 1D as in 2D."""
    const = float(params.get("const", 0.0))
    terms = [
        (np.asarray(t.get("k", [1] * dim), dtype=float).reshape(-1),
         float(t.get("cos", 0.0)), float(t.get("sin", 0.0)))
        for t in params.get("terms", [])
    ]

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


# -0.0 as const keeps the sign of a -0.0 term, so these see a -0.0 phase
_SPECS_1D = [
    F1,
    F2,
    {"const": 0.7},
    {},
    {"terms": [{"k": [3], "cos": 0.2, "sin": -0.4}, {"k": [-2], "sin": 1.0}]},
    {"const": -0.0, "terms": [{"k": [1], "sin": 1.0}]},
    {"const": -0.0, "terms": [{"k": [-1], "sin": 0.5}, {"k": [2], "cos": 0.0}]},
    {"const": 1.0, "terms": [{"cos": -1.0}]},
]
_SPECS_2D = [
    {"const": 1.0, "terms": [{"k": [1, 1], "cos": -1.0}]},
    {"const": -0.0, "terms": [{"k": [1, -1], "sin": 1.0}, {"k": [0, 2], "cos": 0.5}]},
    {"const": 2.5},
    {"terms": [{"sin": 0.3}]},
]


def _points(dim: int) -> list:
    rng = np.random.default_rng(dim)
    rows = rng.uniform(-1.0, 2.0, (64, dim))
    signed = np.array([[-0.0] * dim, [0.0] * dim, [0.5] * dim, [-0.5] * dim, [1.0] * dim])
    if dim == 2:
        signed = np.concatenate([signed, [[-0.0, 0.25], [0.25, -0.0], [-0.0, 0.0]]])
    rows = np.concatenate([rows, signed])
    # rows, a batch of rows, and a single point
    return [rows, rows.reshape(-1, 1, dim), rows[0], signed[0]]


@pytest.mark.parametrize("dim, specs", [(1, _SPECS_1D), (2, _SPECS_2D)])
def test_fourier_function_matches_the_reference_bit_for_bit(dim, specs):
    for spec in specs:
        got_fn, ref_fn = fourier_function(spec, dim), _reference_fourier(spec, dim)
        for x in _points(dim):
            got, ref = got_fn(x), ref_fn(x)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (spec, x)


@pytest.mark.parametrize(
    "build, message",
    [(lambda: fourier_function({"const": True}, 1), "fourier const must be a number, got True"),
     (lambda: fourier_function({"terms": [{"k": [1, True]}]}, 2),
      "fourier terms[0].k must be a number, got True"),
     (lambda: fourier_function({"terms": [{"sin": "1"}]}, 1),
      "fourier terms[0].sin must be a number, got '1'"),
     (lambda: fourier_function({"terms": [{"k": [1, 1]}]}, 1),
      "fourier terms[0].k must have 1 entries, got [1, 1]"),
     (lambda: direction_profile({"angle": [{"j": True}]}, 1),
      "direction profile angle[0].j must be a number, got True"),
     (lambda: direction_profile({"angle": [{"j": 0.5}]}, 1),
      "direction profile angle[0].j must be an integer, got 0.5"),
     (lambda: direction_profile({"const": False}, 2),
      "direction profile const must be a number, got False"),
     (lambda: build_hamiltonian("linear_eikonal", {"p_box": True}), "p_box must be a number"),
     (lambda: build_hamiltonian("linear_eikonal", {"p_box": -1.0}), "p_box must be positive")],
)
def test_catalog_numbers_reject_booleans_and_strings(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert message in str(exc.value)
