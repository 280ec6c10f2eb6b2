"""Coupling-matrix validation, graph structure, Perron weights, and rates."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given

from hjsys.catalog import builtin_coupling, fourier_function
from hjsys.coupling import (
    CouplingMatrix,
    StructureError,
    analyze,
    constant_solution,
    delta_rate,
    ergodic_constant_formula,
    irreducible_bruteforce,
    is_irreducible,
    pairwise_nonzero,
    perron_vector,
    validate_monotone,
)
from hjsys.grid import Grid, sample

from conftest import delta_rate_bruteforce, monotone_matrices, random_monotone_matrix


SYM = np.array([[1.0, -1.0], [-1.0, 1.0]])
ASYM = np.array([[1.0, -1.0], [-2.0, 2.0]])
CYC3 = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [-1.0, 0.0, 1.0]])


class TestValidation:
    def test_symmetric_pair_is_monotone(self):
        ok, violations = validate_monotone(CouplingMatrix(2, entries=SYM))
        assert ok and violations == []

    def test_row_sum_violation(self):
        bad = np.array([[1.0, -2.0], [-1.0, 1.0]])
        ok, violations = validate_monotone(CouplingMatrix(2, entries=bad))
        assert not ok
        assert any(j is None for (_, j, _) in violations)

    def test_positive_offdiagonal_flagged(self):
        bad = np.array([[-1.0, 1.0], [1.0, -1.0]])
        ok, violations = validate_monotone(CouplingMatrix(2, entries=bad))
        assert not ok
        kinds = {(i, j) for (i, j, _) in violations if j is not None}
        assert (0, 1) in kinds

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_flagged(self, bad):
        e = np.array([[bad, -1.0], [-1.0, 1.0]])
        ok, violations = validate_monotone(e)
        assert not ok
        assert any((i, j) == (0, 0) and "non-finite" in why for (i, j, why) in violations)
        e = np.array([[1.0, -1.0], [bad, bad]])
        ok, violations = validate_monotone(e)
        assert not ok
        flagged = {(i, j) for (i, j, why) in violations if "non-finite" in why}
        assert flagged == {(1, 0), (1, 1)}

    def test_zero_matrix_monotone_but_reducible(self):
        z = CouplingMatrix(2, entries=np.zeros((2, 2)))
        ok, _ = validate_monotone(z)
        assert ok
        assert not is_irreducible(z)


class TestGraphStructure:
    def test_block_diagonal_reducible(self):
        D = np.zeros((4, 4))
        D[:2, :2] = SYM
        D[2:, 2:] = SYM
        cm = CouplingMatrix(4, entries=D)
        assert not is_irreducible(cm)
        assert not irreducible_bruteforce(cm)

    def test_one_way_chain_reducible(self):
        # 0 -> 1 only: irreducibility needs strong connectivity, not weak.
        D = np.array([[1.0, -1.0], [0.0, 0.0]])
        cm = CouplingMatrix(2, entries=D)
        assert not is_irreducible(cm)

    def test_cycle_irreducible(self):
        cm = CouplingMatrix(3, entries=CYC3)
        assert is_irreducible(cm)
        assert irreducible_bruteforce(cm)

    def test_pairwise_nonzero(self):
        assert pairwise_nonzero(CouplingMatrix(2, entries=SYM))
        # cyclic rows share columns pairwise even though single entries vanish
        assert pairwise_nonzero(CouplingMatrix(3, entries=CYC3))
        # disconnected blocks have disjoint row supports
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = SYM
        blocks[2:, 2:] = SYM
        assert not pairwise_nonzero(CouplingMatrix(4, entries=blocks))

    @given(monotone_matrices(ensure_irreducible=True))
    def test_bfs_matches_bruteforce_irreducible(self, entries):
        cm = CouplingMatrix(entries.shape[0], entries=entries)
        assert is_irreducible(cm)
        assert irreducible_bruteforce(cm)

    @given(monotone_matrices())
    def test_bfs_matches_bruteforce_any(self, entries):
        cm = CouplingMatrix(entries.shape[0], entries=entries)
        assert is_irreducible(cm) == irreducible_bruteforce(cm)


class TestPerron:
    def test_symmetric_pair_weights(self):
        pv = perron_vector(CouplingMatrix(2, entries=SYM))
        assert np.allclose(pv.weights, [0.5, 0.5], atol=1e-12)
        assert pv.residual <= 1e-10

    def test_asymmetric_pair_weights(self):
        pv = perron_vector(CouplingMatrix(2, entries=ASYM))
        assert np.allclose(pv.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_cyclic_weights(self):
        pv = perron_vector(CouplingMatrix(3, entries=CYC3))
        assert np.allclose(pv.weights, 1.0 / 3.0, atol=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(StructureError):
            perron_vector(CouplingMatrix(2, entries=np.zeros((2, 2))))

    def test_non_monotone_rejected(self):
        with pytest.raises(StructureError):
            perron_vector(CouplingMatrix(2, entries=np.array([[1.0, -2.0], [-1.0, 1.0]])))

    @given(monotone_matrices(ensure_irreducible=True))
    def test_properties_on_random_matrices(self, entries):
        m = entries.shape[0]
        pv = perron_vector(CouplingMatrix(m, entries=entries))
        assert np.all(pv.weights > 0)
        assert abs(float(np.sum(pv.weights)) - 1.0) <= 1e-12
        assert float(np.max(np.abs(entries.T @ pv.weights))) <= 1e-10

    @given(monotone_matrices(ensure_irreducible=True))
    def test_matches_scipy_null_space(self, entries):
        m = entries.shape[0]
        pv = perron_vector(CouplingMatrix(m, entries=entries))
        ns = scipy.linalg.null_space(entries.T)
        assert ns.shape[1] == 1
        ref = ns[:, 0] / ns[:, 0].sum()
        assert np.allclose(pv.weights, ref, atol=1e-9)


class TestConstantSolution:
    def test_pair_example(self):
        # b = (4, 2) with the symmetric pair: u = (1, 0), a = 3.
        u, a = constant_solution(CouplingMatrix(2, entries=SYM), np.array([4.0, 2.0]))
        assert np.allclose(u, [1.0, 0.0], atol=1e-12)
        assert np.isclose(a, 3.0, atol=1e-12)

    def test_shift_in_b_moves_only_a(self):
        cm = CouplingMatrix(3, entries=CYC3)
        b = np.array([0.3, -1.2, 0.5])
        u0, a0 = constant_solution(cm, b)
        u1, a1 = constant_solution(cm, b + 2.5)
        assert np.allclose(u0, u1, atol=1e-12)
        assert np.isclose(a1 - a0, 2.5, atol=1e-12)

    def test_last_component_anchored(self):
        cm = CouplingMatrix(2, entries=ASYM)
        u, _ = constant_solution(cm, np.array([1.0, -1.0]))
        assert u[-1] == 0.0

    @given(monotone_matrices(ensure_irreducible=True))
    def test_residual_on_random_systems(self, entries):
        m = entries.shape[0]
        rng = np.random.default_rng(m)
        b = rng.standard_normal(m)
        cm = CouplingMatrix(m, entries=entries)
        u, a = constant_solution(cm, b)
        pv = perron_vector(cm)
        assert float(np.max(np.abs(entries @ u + a - b))) <= 1e-10
        assert np.isclose(a, float(pv.weights @ b), atol=1e-10)


class TestErgodicFormula:
    def _fs(self, n=256):
        grid = Grid(dim=1, n=n)
        f1 = sample(fourier_function({"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}, 1), grid)
        f2 = sample(fourier_function({"const": 2.0, "terms": [{"k": [1], "cos": -2.0}]}, 1), grid)
        return [f1, f2]

    def test_weighted_min_value(self):
        # fs share the minimizer x = 0 where (f1 + f2)/2 = 0.25.
        c = ergodic_constant_formula(CouplingMatrix(2, entries=SYM), self._fs())
        assert np.isclose(c, -0.25, atol=1e-12)

    def test_invariant_under_coupling_rescale(self):
        fs = self._fs()
        c1 = ergodic_constant_formula(CouplingMatrix(2, entries=SYM), fs)
        c2 = ergodic_constant_formula(CouplingMatrix(2, entries=7.0 * SYM), fs)
        assert abs(c1 - c2) <= 1e-12

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            ergodic_constant_formula(CouplingMatrix(2, entries=SYM), self._fs()[:1])

    def test_grid_mismatch(self):
        f1 = sample(lambda x: x[..., 0], Grid(dim=1, n=8))
        f2 = sample(lambda x: x[..., 0], Grid(dim=1, n=16))
        with pytest.raises(ValueError):
            ergodic_constant_formula(CouplingMatrix(2, entries=SYM), [f1, f2])


class TestDeltaRate:
    def test_symmetric_pair_rate(self):
        assert np.isclose(delta_rate(CouplingMatrix(2, entries=SYM)), 2.0, atol=1e-12)

    def test_asymmetric_pair_rate(self):
        # min over the two orderings of d_ij + d_ji style sums gives 3.
        assert np.isclose(delta_rate(CouplingMatrix(2, entries=ASYM)), 3.0, atol=1e-12)

    def test_cyclic_rate_certifies_decay(self):
        # cyclic3 has spectral gap 1.5; the enumerated rate is a valid
        # lower bound on the true decay, not necessarily sharp.
        delta = delta_rate(CouplingMatrix(3, entries=CYC3))
        assert 0.0 < delta <= 1.5 + 1e-12

    def test_needs_pairwise_nonzero(self):
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = SYM
        blocks[2:, 2:] = SYM
        with pytest.raises(StructureError):
            delta_rate(CouplingMatrix(4, entries=blocks))

    @pytest.mark.parametrize("m", [13, 40])
    def test_full_matrix_rate_beyond_enumeration(self, m):
        # -1 + m I: every pair gives 2 + (m - 2), exactly, with no size cap
        full = -np.ones((m, m)) + m * np.eye(m)
        assert delta_rate(CouplingMatrix(m, entries=full)) == float(m)

    @given(monotone_matrices(max_m=8, ensure_irreducible=True))
    def test_matches_subset_enumeration(self, entries):
        # the closed form regroups the enumerated sums: bit-equal for a
        # pair, where both read -(d_ij + d_ji), and equal to roundoff beyond
        if not pairwise_nonzero(entries):
            return
        want = delta_rate_bruteforce(entries)
        if want <= 0:
            with pytest.raises(StructureError):
                delta_rate(entries)
        elif entries.shape[0] == 2:
            assert delta_rate(entries) == want
        else:
            assert abs(delta_rate(entries) - want) <= 1e-12 * abs(want)

    @given(monotone_matrices(max_m=4, ensure_irreducible=True))
    def test_homogeneity(self, entries):
        # delta is built from sums of entries, so it scales linearly.
        cm = CouplingMatrix(entries.shape[0], entries=entries)
        if not pairwise_nonzero(cm):
            return
        d1 = delta_rate(cm)
        d2 = delta_rate(CouplingMatrix(entries.shape[0], entries=3.0 * entries))
        assert np.isclose(d2, 3.0 * d1, rtol=1e-12)

    def test_gap_decay_matches_ode(self):
        # For a pair the gap of the linear ODE u' = -Du decays at exactly
        # |d_12| + |d_21| (the nonzero eigenvalue); fit it from expm.
        for entries in (SYM, ASYM, np.array([[2.0, -2.0], [-0.5, 0.5]])):
            cm = CouplingMatrix(2, entries=entries)
            delta = delta_rate(cm)
            ts = np.linspace(0.5, 3.0, 11)
            gaps = []
            u0 = np.array([1.0, -1.0])
            for t in ts:
                ut = scipy.linalg.expm(-t * entries) @ u0
                gaps.append(abs(ut[0] - ut[1]))
            rate = -np.polyfit(ts, np.log(gaps), 1)[0]
            assert abs(rate - delta) <= 0.05 * delta

    def test_certified_rate_bounds_ode_decay(self):
        # On a cycle of three the certified rate undershoots the sharp one
        # but the exponential with the certified rate still dominates.
        delta = delta_rate(CouplingMatrix(3, entries=CYC3))
        u0 = np.array([1.0, 0.0, -1.0])
        for t in (0.5, 1.0, 2.0, 4.0):
            ut = scipy.linalg.expm(-t * CYC3) @ u0
            gap = float(np.max(ut) - np.min(ut))
            assert gap <= (np.max(u0) - np.min(u0)) * np.exp(-delta * t) + 1e-12


class TestAnalyze:
    def test_report_fields(self):
        rep = analyze(CouplingMatrix(2, entries=SYM))
        assert rep.monotone and rep.irreducible and rep.pairwise_nonzero
        assert rep.rank == 1
        assert np.isclose(rep.delta_rate, 2.0)
        d = rep.to_dict()
        assert np.allclose(d["perron"], [0.5, 0.5], atol=1e-12)

    def test_report_on_invalid(self):
        rep = analyze(CouplingMatrix(2, entries=np.array([[1.0, -2.0], [-1.0, 1.0]])))
        assert not rep.monotone
        assert rep.perron is None

    def test_non_finite_entries_raise_structure_error(self):
        with pytest.raises(StructureError, match="finite"):
            analyze(np.array([[np.nan, -1.0], [-1.0, 1.0]]))

    def test_builtin_names_round_trip(self):
        assert np.array_equal(builtin_coupling("symmetric_pair"), SYM)
        assert np.array_equal(builtin_coupling("asymmetric_pair"), ASYM)
        assert np.array_equal(builtin_coupling("cyclic3"), CYC3)
