"""Shared fixtures and strategies for the test suite.

The five theorem suites are expensive (tens of seconds each), so they run
once per session and the acceptance tests read the cached results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from hjsys.suites import SuiteResult, run_suite

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def random_monotone_matrix(
    rng: np.random.Generator,
    m: int | None = None,
    ensure_irreducible: bool = False,
) -> np.ndarray:
    """Random matrix with nonpositive off-diagonal entries and zero row sums.

    Sparsity is drawn per entry; with ensure_irreducible a full cycle
    0 -> 1 -> ... -> 0 is forced so the coupling graph is strongly connected.
    """
    if m is None:
        m = int(rng.integers(2, 7))
    density = rng.uniform(0.2, 0.9)
    mask = rng.random((m, m)) < density
    mags = np.exp(rng.normal(0.0, 0.7, size=(m, m)))
    entries = np.where(mask, -mags, 0.0)
    if ensure_irreducible:
        for i in range(m):
            j = (i + 1) % m
            if entries[i, j] == 0.0:
                entries[i, j] = -float(np.exp(rng.normal(0.0, 0.7)))
    np.fill_diagonal(entries, 0.0)
    np.fill_diagonal(entries, -entries.sum(axis=1))
    return entries


def delta_rate_bruteforce(entries: np.ndarray) -> float:
    """Oracle for ``delta_rate``: the minimum over ordered pairs i != j and
    over every subset I with j in I, i not in I of
    -(sum_{k in I} d_ik + sum_{k not in I} d_jk), by enumeration (small m
    only).  Returns the raw minimum, with no positivity check."""
    m = entries.shape[0]
    best = np.inf
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            others = [k for k in range(m) if k not in (i, j)]
            # all subsets I = {j} | S, S subset of others; complement holds i
            for bits in range(1 << len(others)):
                in_i, out_j = entries[i, j], entries[j, i]
                for t, k in enumerate(others):
                    if bits >> t & 1:
                        in_i += entries[i, k]
                    else:
                        out_j += entries[j, k]
                best = min(best, -(in_i + out_j))
    return float(best)


@st.composite
def monotone_matrices(draw, max_m: int = 6, ensure_irreducible: bool = False):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    m = draw(st.integers(min_value=2, max_value=max_m))
    rng = np.random.default_rng(seed)
    return random_monotone_matrix(rng, m=m, ensure_irreducible=ensure_irreducible)


@pytest.fixture(scope="session")
def suite_largenew() -> SuiteResult:
    return run_suite("largenew-eikonal")


@pytest.fixture(scope="session")
def suite_mainresult() -> SuiteResult:
    return run_suite("mainresult-nonconvex")


@pytest.fixture(scope="session")
def suite_exist_smoo() -> SuiteResult:
    return run_suite("exist-smoo-strictconvex")


@pytest.fixture(scope="session")
def suite_identical_gap() -> SuiteResult:
    return run_suite("identical-gap")


@pytest.fixture(scope="session")
def suite_appendix_mc() -> SuiteResult:
    return run_suite("appendix-mc")
