"""Hamiltonian builders, numerical flux, and sampled assumption checks."""

from __future__ import annotations

import re

import numpy as np
import pytest

from hjsys.catalog import (
    BUILTIN_HAMILTONIAN_IDS,
    F1,
    F2,
    build_hamiltonian,
    direction_profile,
    fourier_function,
    unit_ball_eikonal_process,
    vector_field,
)
from hjsys.errors import ConfigError
from hjsys.hamiltonians import (
    AssumptionReport,
    Hamiltonian,
    SamplerConfig,
    check_assumption,
    grad_p,
    lax_friedrichs_flux,
    make_linear_eikonal,
    make_nonconvex_example,
    make_quadratic_eikonal,
    numerical_flux,
    sum_p,
)
from hjsys.switching import SwitchingProcessSpec, hamiltonian_from_spec

F_SHIFTED_COS = {"const": 1.5, "terms": [{"k": [1], "cos": -1.0}]}


def _f(params=F_SHIFTED_COS, dim=1):
    return fourier_function(params, dim)


class TestBuilders:
    def test_quadratic_values(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        x = np.array([0.0])
        # f(0) = 0.5, so H(0, p) = p^2 - 0.5
        assert np.isclose(H(x, np.array([2.0])), 3.5, atol=1e-14)
        assert np.isclose(H(x, np.array([0.0])), -0.5, atol=1e-14)

    def test_quadratic_split_identity(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.random(1)
            p = rng.uniform(-2, 2, 1)
            assert abs(H(x, p) - (np.sum(p * p, axis=-1) - H.source(x))) <= 1e-14

    def test_quadratic_tags_and_alpha(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        assert {"convex", "strictly_convex", "coercive"} <= H.class_tags
        # sup over the p box of |H_p| = 2 * 2.5, padded by the 1.1 factor
        assert 5.0 <= H.lf_alpha <= 6.5

    def test_linear_eikonal(self):
        H = make_linear_eikonal(_f(), dim=1)
        x = np.array([0.25])
        # f(0.25) = 1.5, |p| = 2
        assert np.isclose(H(x, np.array([-2.0])), 0.5, atol=1e-14)
        assert H.lf_alpha == pytest.approx(1.1)

    def test_periodicity(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        p = np.array([0.7])
        for x0 in (0.13, 0.77):
            a = H(np.array([x0]), p)
            b = H(np.array([x0 + 1.0]), p)
            assert abs(a - b) <= 1e-12

    def test_compact_zero_set(self):
        # f = 1 - cos(2 pi x) vanishes only at x = 0; the predicate flags it.
        H = make_quadratic_eikonal(
            _f({"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]}), dim=1
        )
        K = H.compact_set_K
        assert K is not None
        mask = K(np.array([[0.0], [0.25], [0.5]]))
        assert mask.tolist() == [True, False, False]

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigError):
            Hamiltonian(dim=1, bind=lambda X: (lambda p: 0.0, None), lf_alpha=0.0)

    def test_catalog_unknown_id(self):
        with pytest.raises(ConfigError):
            build_hamiltonian("not_a_real_id", {})

    def test_catalog_builds_quadratic(self):
        H = build_hamiltonian("quadratic_eikonal", {"f": F_SHIFTED_COS}, dim=1)
        assert np.isclose(H(np.array([0.0]), np.array([1.0])), 0.5)


class TestNonconvexBuilder:
    def _H(self):
        prof, slope = direction_profile(
            {"const": 1.0, "angle": [{"j": 1, "cos": 0.4}]}, 1
        )
        return make_nonconvex_example(
            prof, _f(), q=lambda x: np.ones_like(x), dim=1, F_angle_slope=slope
        )

    def test_value_at_zero_momentum(self):
        # H(x, 0) = -f(x) regardless of the direction profile.
        H = self._H()
        for x0 in (0.0, 0.3, 0.9):
            x = np.array([x0])
            assert np.isclose(H(x, np.zeros(1)), -float(_f()(x)), atol=1e-13)

    def test_reduces_to_shifted_quadratic_for_flat_profile(self):
        prof, _ = direction_profile({"const": 1.0}, 1)
        H = make_nonconvex_example(
            prof, _f(), q=lambda x: 0.5 * np.ones_like(x), dim=1
        )
        x = np.array([0.1])
        for pv in (-1.5, 0.4, 2.0):
            p = np.array([pv])
            expect = (pv + 0.5) ** 2 - 0.25 - float(_f()(x))
            assert np.isclose(H(x, p), expect, atol=1e-12)

    def test_1d_evaluator_matches_the_generic_formula(self):
        # the 1D evaluator selects F(x, +1) or F(x, -1) by the sign of p;
        # the generic formula evaluates F(x, p/|p|), zero momentum gives -f
        prof, slope = direction_profile({"const": 1.0, "angle": [{"j": 1, "cos": 0.4}]}, 1)
        q = vector_field([{"terms": [{"k": [1], "sin": 0.3}]}], 1)
        H = make_nonconvex_example(prof, _f(), q, dim=1, p_box=2.5, F_angle_slope=slope)
        X = np.linspace(0.0, 1.0, 16, endpoint=False)[:, None]
        qv, fv = q(X), _f()(X)
        tiny = np.nextafter(0.0, 1.0)
        for pv in (0.0, -0.0, tiny, -tiny, 1e-160, -1e-160, 1e-3, -1e-3, 2.5, -2.5):
            p = np.full(X.shape, pv)
            pn = np.sqrt(np.sum(p * p, axis=-1))
            psi = np.sum((p + qv) ** 2, axis=-1) - np.sum(qv * qv, axis=-1)
            moving = pn > 0
            d = p / np.where(moving, pn, 1.0)[..., None]
            want = np.where(moving, psi * prof(X, d) - fv, -fv)
            got = H(X, p)
            assert got.tobytes() == want.tobytes(), pv

    def test_tags(self):
        H = self._H()
        assert "nonconvex_example" in H.class_tags
        assert "coercive" in H.class_tags

    def test_rejects_nonpositive_profile(self):
        prof, _ = direction_profile(
            {"const": 0.2, "angle": [{"j": 1, "cos": 0.5}]}, 1
        )
        with pytest.raises(ConfigError):
            make_nonconvex_example(prof, _f(), q=lambda x: np.ones_like(x), dim=1)


class TestGradient:
    def test_exact_on_quadratic(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        x = np.array([0.2])
        p = np.array([0.7])
        g = grad_p(H, x, p)
        assert np.isclose(g[0], 1.4, atol=1e-9)

    def test_central_difference_order(self):
        # halving the step shrinks the error about 4x on a smooth profile
        H = Hamiltonian(
            dim=1, bind=lambda X: (lambda p: float(np.cos(p[0])), None), lf_alpha=1.0
        )
        x = np.zeros(1)
        p = np.array([0.9])
        exact = -np.sin(0.9)
        e1 = abs(grad_p(H, x, p, step=1e-2)[0] - exact)
        e2 = abs(grad_p(H, x, p, step=5e-3)[0] - exact)
        assert 3.0 <= e1 / e2 <= 5.0


class TestFlux:
    def test_consistency(self):
        # equal one-sided slopes collapse the flux to a pointwise evaluation
        H = make_quadratic_eikonal(_f(), dim=1)
        x = np.array([0.3])
        p = np.array([1.2])
        assert np.isclose(
            lax_friedrichs_flux(H, x, p, p), H(x, p), atol=1e-14
        )

    def test_dissipation_value(self):
        H = Hamiltonian(dim=1, bind=lambda X: (lambda p: float(p @ p), None), lf_alpha=5.0)
        val = lax_friedrichs_flux(H, np.zeros(1), np.array([0.0]), np.array([2.0]))
        # H(midpoint) - (alpha/2)(pp - pm) = 1 - 5 = -4
        assert np.isclose(val, -4.0, atol=1e-14)

    def test_monotone_in_slope_arguments(self):
        # within the sampled p box, alpha dominates |H_p|, so the flux is
        # nondecreasing in the left slope and nonincreasing in the right one
        H = make_quadratic_eikonal(_f(), dim=1)
        rng = np.random.default_rng(12)
        for _ in range(400):
            pm = rng.uniform(-2.4, 2.1, 1)
            pp = rng.uniform(-2.4, 2.1, 1)
            bump = rng.uniform(0.0, 0.3)
            x = rng.random(1)
            base = lax_friedrichs_flux(H, x, pm, pp)
            up_m = lax_friedrichs_flux(H, x, pm + bump, pp)
            up_p = lax_friedrichs_flux(H, x, pm, pp + bump)
            assert up_m >= base - 1e-12
            assert up_p <= base + 1e-12

    def test_local_mode_consistency(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        x = np.array([0.3])
        p = np.array([1.2])
        assert np.isclose(
            numerical_flux(H, x, p, p, mode="local"), H(x, p), atol=1e-14
        )

    def test_local_dissipation_below_global(self):
        # the stencil-bound alpha never exceeds the global one for this H
        H = make_quadratic_eikonal(_f(), dim=1)
        rng = np.random.default_rng(3)
        for _ in range(100):
            pm = rng.uniform(-2.0, 2.0, 1)
            pp = rng.uniform(pm[0], 2.0, 1)  # pp >= pm
            x = rng.random(1)
            local = numerical_flux(H, x, pm, pp, mode="local")
            glob = numerical_flux(H, x, pm, pp, mode="global")
            assert local >= glob - 1e-12

    def test_unknown_mode(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        with pytest.raises(ConfigError):
            numerical_flux(H, np.zeros(1), np.zeros(1), np.zeros(1), mode="upwind")


class TestAssumptionChecks:
    CFG = SamplerConfig(n_x=24, n_p=64, seed=11)

    def test_strict_convexity_passes_on_quadratic(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        rep = check_assumption(H, "strictconvex", self.CFG)
        assert rep.passed
        assert rep.sample_count > 0
        assert rep.violations == []

    def test_strict_convexity_fails_on_linear(self):
        # |p| is convex but 1-homogeneous: collinear probes betray flatness.
        H = make_linear_eikonal(_f(), dim=1)
        rep = check_assumption(H, "strictconvex", self.CFG)
        assert not rep.passed
        assert len(rep.violations) > 0

    def test_coercive_check(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        assert check_assumption(H, "coercive", self.CFG).passed

    def test_h10_on_quadratic_with_zero_set(self):
        H = make_quadratic_eikonal(
            _f({"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]}), dim=1
        )
        rep = check_assumption(H, "H10", self.CFG)
        assert rep.passed

    def test_h7_grades_the_zero_set_and_the_radial_excess(self):
        # H7 is H10 without the pointwise listing: it fails on the sign of H
        # on the zero set (shift 0.3) or on the per-eta excess (shift -50)
        H = make_quadratic_eikonal(
            _f({"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]}), dim=1
        )
        rep = check_assumption(H, "H7", self.CFG)
        assert rep.passed
        assert [val > 0 for _, val in rep.eta_psi_profile[:4]] == [True] * 4
        on_k = check_assumption(H, "H7", self.CFG, shift_c=0.3)
        assert [v[-1] for v in on_k.violations] == ["H < 0 on the compact zero set"]
        low = check_assumption(H, "H7", self.CFG, shift_c=-50.0)
        assert not low.passed
        assert {v[-1] for v in low.violations} == {"radial excess not positive"}
        assert len(check_assumption(H, "H10", self.CFG, shift_c=-50.0).violations) == 10 + 4

    def test_h5_missing_compact_set_noted(self):
        H = Hamiltonian(
            dim=1,
            bind=lambda X: (lambda p: np.sum(p * p, axis=-1) - 1.0, None),
            lf_alpha=6.0,
            class_tags=frozenset({"convex"}),
        )
        rep = check_assumption(H, "H5", self.CFG)
        assert any("compact set" in n for n in rep.notes)

    def test_unknown_assumption_id(self):
        H = make_quadratic_eikonal(_f(), dim=1)
        with pytest.raises(ConfigError):
            check_assumption(H, "H99", self.CFG)

    def test_shift_changes_h10(self):
        # H10 compares values against the large-time constant; shifting by
        # a huge constant must break it.
        H = make_quadratic_eikonal(
            _f({"const": 1.0, "terms": [{"k": [1], "cos": -1.0}]}), dim=1
        )
        rep = check_assumption(H, "H10", self.CFG, shift_c=-50.0)
        assert not rep.passed


class TestDirectionProfile:
    def test_positive_with_slope_bound(self):
        prof, slope = direction_profile(
            {"const": 1.0, "angle": [{"j": 2, "cos": 0.5}]}, 1
        )
        xs = np.linspace(0, 1, 33)[:, None]
        e = np.ones((33, 1))
        vals = prof(xs, e)
        assert np.all(vals > 0)
        assert slope == pytest.approx(1.0)

    def test_direction_dependence_in_2d(self):
        prof, _ = direction_profile(
            {"const": 1.0, "angle": [{"j": 1, "cos": 0.3}]}, 2
        )
        x = np.zeros((1, 2))
        east = prof(x, np.array([[1.0, 0.0]]))
        west = prof(x, np.array([[-1.0, 0.0]]))
        assert np.isclose(east[0], 1.3)
        assert np.isclose(west[0], 0.7)

    @pytest.mark.parametrize(
        "params,field",
        [
            ({"const": float("nan")}, "const"),
            ({"angle": [{"j": 1, "cos": 0.3}, {"j": 2, "sin": float("inf")}]}, "angle[1].sin"),
        ],
    )
    def test_non_finite_coefficient_names_the_field(self, params, field):
        message = rf"direction profile {re.escape(field)} must be a finite number, got (nan|inf)"
        with pytest.raises(ConfigError, match=message):
            direction_profile(params, 1)


_SRC_2D = {"const": 1.0, "terms": [{"k": [1, 1], "cos": -1.0}]}
_Q_2D = [{"terms": [{"k": [1, 1], "sin": 0.3}]}] * 2
_CONVEX = ["coercive", "convex"]
_NONCONVEX = ["coercive", "nonconvex_example"]

# lf_alpha (as float.hex) and class tags of each built-in family.  lf_alpha
# sets dt for every solve, so it must not move when the evaluators are
# rearranged; the 2D nonconvex case with angle data has a steep direction
# profile, so there the sampled sup of |dH/dp| sets lf_alpha, not the
# analytic bound.
PINNED_ALPHA = [
    ("linear_eikonal", None, 1, "0x1.199999999999ap+0", _CONVEX),
    ("nonconvex_bs00", None, 1, "0x1.004189374bc6ap+3", _NONCONVEX),
    ("quadratic_eikonal", None, 1, "0x1.6000000017551p+2", _CONVEX + ["strictly_convex"]),
    ("linear_eikonal", {"f": _SRC_2D}, 2, "0x1.199999999999ap+0", _CONVEX),
    ("nonconvex_bs00", {"f": _SRC_2D, "q": _Q_2D}, 2, "0x1.004189374bc6ap+3", _NONCONVEX),
    ("quadratic_eikonal", {"f": _SRC_2D}, 2, "0x1.6000000017551p+2", _CONVEX + ["strictly_convex"]),
    (
        "nonconvex_bs00",
        {"f": _SRC_2D, "q": _Q_2D, "F": {"const": 1.0, "angle": [{"j": 3, "cos": 0.5}]}},
        2,
        "0x1.7e8d3b0d35b0fp+3",
        _NONCONVEX,
    ),
    (
        # |dH/dp| reaches the analytic bound 2(p_box + |q|) F_max only at
        # x = 3/4, p = -p_box, which the probe lattice leaves out
        "nonconvex_bs00",
        {
            "q": [{"terms": [{"k": [1], "sin": 0.2}]}],
            "F": {"const": 1.0, "angle": [{"j": 1, "cos": -0.25}]},
        },
        1,
        "0x1.db33333333334p+2",
        _NONCONVEX,
    ),
]


@pytest.mark.parametrize("ham_id,params,dim,alpha_hex,tags", PINNED_ALPHA)
def test_builtin_lf_alpha_is_pinned(ham_id, params, dim, alpha_hex, tags):
    H = build_hamiltonian(ham_id, params, dim)
    assert H.lf_alpha.hex() == alpha_hex
    assert sorted(H.class_tags) == tags


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p_box", [2.5, 1.0])
def test_quadratic_lf_alpha_is_the_bound_at_the_box_corner(dim, p_box):
    # |dH/dp_k| = 2|p_k| peaks at p_k = -p_box, a node of the probe lattice
    H = build_hamiltonian("quadratic_eikonal", {"p_box": p_box}, dim)
    assert H.lf_alpha == pytest.approx(1.1 * 2.0 * p_box, rel=1e-10)


# each family's default data leaves k out, so it is [1] * dim: in 2D the
# defaults are the k = [1, 1] data of the pinned 2D cases
_DEFAULTS_2D = {
    "linear_eikonal": {"f": _SRC_2D},
    "nonconvex_bs00": {"f": _SRC_2D, "q": _Q_2D},
    "quadratic_eikonal": {"f": _SRC_2D},
}


@pytest.mark.parametrize("ham_id", sorted(_DEFAULTS_2D))
def test_builtin_defaults_build_in_2d(ham_id):
    H = build_hamiltonian(ham_id, None, 2)
    ref = build_hamiltonian(ham_id, _DEFAULTS_2D[ham_id], 2)
    rng = np.random.default_rng(4)
    x, p = rng.random((32, 2)), rng.uniform(-2.0, 2.0, (32, 2))
    assert H.lf_alpha == ref.lf_alpha
    assert np.array_equal(H(x, p), ref(x, p))
    assert np.array_equal(H.source(x), ref.source(x))


def test_switching_lf_alpha_is_pinned():
    # the two modes of the appendix-mc process: 64 actions in [-1, 1]
    spec = unit_ball_eikonal_process([F1, F2], [[-1.0, 1.0], [1.0, -1.0]])
    for mode in range(2):
        H = hamiltonian_from_spec(spec, mode)
        assert H.lf_alpha.hex() == "0x1.0cccccccccccdp+0"
        assert sorted(H.class_tags) == ["coercive", "convex"]


# -- the per-x reference of check_assumption ----------------------------------
#
# check_assumption binds H once per check and reduces over the whole (x, p)
# sample.  The reference below is the earlier form, which evaluates H(x, p)
# one x at a time and takes the central difference in p axis by axis; the
# reports of both must agree bit for bit.


def _reference_grad_p(H, x, p, step):
    out = np.empty_like(p)
    for k in range(p.shape[-1]):
        dp = np.zeros_like(p)
        dp[..., k] = step
        out[..., k] = (H(x, p + dp) - H(x, p - dp)) / (2 * step)
    return out


def _reference_torus_dist(xs, anchors):
    if anchors.size == 0:
        return np.full(xs.shape[0], np.inf)
    diff = np.abs(xs[:, None, :] - anchors[None, :, :])
    diff = np.minimum(diff, 1.0 - diff)
    return np.sqrt(np.sum(diff**2, axis=-1)).min(axis=1)


def _reference_check_assumption(H, assumption_id, config, shift_c=0.0):
    rng = np.random.default_rng(config.seed)
    dim = H.dim
    xs = rng.uniform(0.0, 1.0, size=(config.n_x, dim))
    ps = rng.uniform(-config.p_box, config.p_box, size=(config.n_p, dim))
    ps = ps[np.sqrt(np.sum(ps * ps, axis=-1)) > config.kink_radius]

    def Hs(x, p):
        return H(x, p) - shift_c

    report = AssumptionReport(assumption_id=assumption_id, passed=True, sample_count=0)
    if assumption_id == "strictconvex":
        qs = rng.uniform(-config.p_box, config.p_box, size=(ps.shape[0], dim))
        qs[: max(1, len(qs) // 4)] = 2.0 * ps[: max(1, len(qs) // 4)]
        for x in xs[:: max(1, len(xs) // 16)]:
            xa = np.broadcast_to(x, ps.shape)
            hp, hq = Hs(xa, ps), Hs(xa, qs)
            for lam in config.lambdas:
                gap = lam * hp + (1 - lam) * hq - Hs(xa, lam * ps + (1 - lam) * qs)
                sep = np.sqrt(np.sum((ps - qs) ** 2, axis=-1))
                bad = (gap <= config.margin) & (sep > 1e-6)
                report.sample_count += len(gap)
                for idx in np.flatnonzero(bad)[:5]:
                    report.violations.append(
                        (x.tolist(), ps[idx].tolist(), qs[idx].tolist(), lam, float(gap[idx]))
                    )
        report.passed = not report.violations
        return report
    if assumption_id == "coercive":
        radii = np.array([0.25, 0.5, 1.0]) * config.p_box
        if dim == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
            dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        mins = []
        for r in radii:
            worst = np.inf
            for d in dirs:
                worst = min(worst, float(np.min(Hs(xs, np.broadcast_to(r * d, xs.shape)))))
            mins.append(worst)
            report.sample_count += len(xs) * len(dirs)
        if not (mins[0] < mins[1] < mins[2]):
            report.violations.append((radii.tolist(), mins, "min H not increasing in |p|"))
        report.notes.append(f"min H at radii {radii.tolist()}: {mins}")
        report.passed = not report.violations
        return report
    if H.compact_set_K is None:
        anchors = np.empty((0, dim))
        report.notes.append("no compact set supplied; treated as empty (dist = inf)")
    else:
        lattice = np.linspace(0.0, 1.0, 256, endpoint=False)
        nodes = lattice[:, None] if dim == 1 else np.stack(
            np.meshgrid(lattice[::8], lattice[::8], indexing="ij"), axis=-1
        ).reshape(-1, 2)
        anchors = nodes[np.asarray(H.compact_set_K(nodes)).reshape(-1)]
        if anchors.size == 0:
            report.notes.append("compact set predicate is empty on the sample lattice")
    dist = _reference_torus_dist(xs, anchors)
    profile = []
    if assumption_id == "H5":
        qs = rng.uniform(-config.p_box, config.p_box, size=(len(ps), dim))
        rows = []
        for a, x in enumerate(xs):
            xa = np.broadcast_to(x, ps.shape)
            h_tot, h_q = Hs(xa, ps + qs), Hs(xa, qs)
            g = _reference_grad_p(Hs, xa, ps + qs, config.fd_step)
            rows.append((h_tot, h_q, np.sum(g * ps, axis=-1) - h_tot, dist[a]))
            report.sample_count += len(ps)
        for eta in config.etas:
            vals = [
                float(np.min(exc[sel]))
                for (ht, hq, exc, dx) in rows
                if dx >= eta and np.any(sel := (ht >= eta) & (hq <= 0.0))
            ]
            val = min(vals) if vals else None
            profile.append((float(eta), val))
            if val is not None and val <= 0:
                report.violations.append((float(eta), val, "perturbation excess not positive"))
        report.eta_psi_profile = profile
        report.passed = not report.violations
        return report
    hvals = np.empty((len(xs), len(ps)))
    rvals = np.empty_like(hvals)
    for a, x in enumerate(xs):
        xa = np.broadcast_to(x, ps.shape)
        hvals[a] = Hs(xa, ps)
        g = _reference_grad_p(Hs, xa, ps, config.fd_step)
        rvals[a] = np.sum(g * ps, axis=-1) - Hs(xa, ps)
    report.sample_count = hvals.size
    if assumption_id == "H10":
        for a, b in zip(*np.nonzero(rvals < -config.margin)):
            if len(report.violations) >= 10:
                break
            report.violations.append(
                (xs[a].tolist(), ps[b].tolist(), float(rvals[a, b]), "H_p . p - H < 0")
            )
    if anchors.size:
        on_k = Hs(np.repeat(anchors, len(ps), axis=0), np.tile(ps, (len(anchors), 1)))
        report.sample_count += on_k.size
        if np.min(on_k) < -config.margin:
            report.violations.append((float(np.min(on_k)), "H < 0 on the compact zero set"))
    for eta in config.etas:
        sel = (hvals >= eta) & (dist[:, None] >= eta)
        val = float(np.min(rvals[sel])) if np.any(sel) else None
        profile.append((float(eta), val))
        if val is not None and val <= 0:
            report.violations.append((float(eta), val, "radial excess not positive"))
    report.eta_psi_profile = profile
    report.passed = not report.violations
    return report


def _switching_2d_process():
    # 12 unit velocities in the plane, running cost f or 2 f
    f = fourier_function(_SRC_2D, 2)
    th = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    return SwitchingProcessSpec(
        m=2,
        dynamics=(lambda x, a: np.broadcast_to(a, np.broadcast_shapes(np.shape(x), np.shape(a))),) * 2,
        costs=(lambda x, a: f(x) + 0 * a[..., 0], lambda x, a: 2 * f(x) + 0 * a[..., 0]),
        rates=[[-1.0, 1.0], [0.5, -1.0]],
        control_set=np.stack([np.cos(th), np.sin(th)], axis=-1),
        terminal=(lambda x: np.zeros(np.shape(x)[:-1]),) * 2,
        dim=2,
    )


def _sampled_hamiltonian(name):
    family, dim = name.split("/")
    if family in BUILTIN_HAMILTONIAN_IDS:
        params = {} if dim == "1" else {"f": _SRC_2D, "q": _Q_2D}
        if family != "nonconvex_bs00":
            params.pop("q", None)
        return build_hamiltonian(family, params, int(dim))
    if family == "zero_set":
        return build_hamiltonian("quadratic_eikonal", {"f": {"const": 1.0, "terms": [{"cos": -1.0}]}})
    if family == "switching":
        spec = unit_ball_eikonal_process([F1, F2], [[-1.0, 1.0], [1.0, -1.0]])
        return hamiltonian_from_spec(spec if dim == "1" else _switching_2d_process(), 1)
    # custom: convex in 1D, concave (so failing every check) in 2D
    sign = 1.0 if dim == "1" else -1.0
    return Hamiltonian(
        dim=int(dim),
        bind=lambda X: (lambda p: sign * (np.sum(p * p, axis=-1) - 1.0), None),
        lf_alpha=6.0,
    )


_SAMPLED = [f"{family}/{dim}" for family in BUILTIN_HAMILTONIAN_IDS for dim in (1, 2)] + [
    "zero_set/1", "switching/1", "switching/2", "custom/1", "custom/2",
]
_SAMPLER_CONFIGS = [
    SamplerConfig(),
    SamplerConfig(n_x=24, n_p=64, seed=5, p_box=1.7, lambdas=(0.3, 0.6)),
]


@pytest.mark.parametrize("name", _SAMPLED)
def test_check_assumption_matches_the_per_x_reference(name):
    H = _sampled_hamiltonian(name)
    for assumption_id in ("H5", "H7", "H10", "strictconvex", "coercive"):
        for shift_c in (0.0, -50.0, 0.3):
            for config in _SAMPLER_CONFIGS:
                got = check_assumption(H, assumption_id, config, shift_c)
                want = _reference_check_assumption(H, assumption_id, config, shift_c)
                assert repr(got) == repr(want), (assumption_id, shift_c, config)


@pytest.mark.parametrize("name", _SAMPLED)
def test_grad_p_matches_the_axis_by_axis_reference(name):
    H = _sampled_hamiltonian(name)
    rng = np.random.default_rng(3)
    x, p = rng.random((7, H.dim)), rng.uniform(-2.0, 2.0, (7, H.dim))
    for step in (1e-5, 1e-3):
        assert grad_p(H, x, p, step).tobytes() == _reference_grad_p(H, x, p, step).tobytes()


# -- the family evaluators' x-only work is bound, the bits stay ----------------


def _reference_quadratic_h(p, fx):
    return sum_p(p * p) - fx


def _reference_linear_h(p, fx):
    return np.sqrt(sum_p(p * p)) - fx


def _reference_nonconvex_h1(p, qv, qq, fv, fplus, fminus):
    psi = sum_p((p + qv) ** 2) - qq
    return np.where(sum_p(p * p) > 0, psi * np.where(p[..., 0] >= 0, fplus, fminus) - fv, -fv)


def _reference_nonconvex_alpha(pabs, qmax, fmax, fangle):
    pn = np.sqrt(sum_p(pabs * pabs))[..., None]
    bound = 2.0 * (pn + qmax) * fmax + (pn + 2.0 * qmax) * fangle
    return bound if bound.shape == pabs.shape else np.broadcast_to(bound, pabs.shape)


_SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-160, -1e-200,
            1e-310, 0.7, -1.5, 1e154, -1e200]


def _momenta(dim):
    """Every special value in every slot of the p axis, then random momenta
    on a (2, 3, n) batch: the shapes the step plan hands an evaluator."""
    special = np.array(np.meshgrid(*[_SPECIAL] * dim, indexing="ij")).reshape(dim, -1).T
    return [special, np.random.default_rng(dim).normal(size=(2, 3, 17, dim))]


def _bound(ham_id, dim, shape):
    """A built-in's ``bind`` at random nodes shaped ``shape``."""
    params = {"f": F_SHIFTED_COS} if dim == 1 else {}
    if ham_id == "nonconvex_bs00":
        params["F"] = {"const": 1.0, "angle": [{"j": 1, "cos": 0.3}]}
        params["q"] = [{"terms": [{"k": [1] * dim, "sin": 0.3}]}] * dim
    ham = build_hamiltonian(ham_id, params, dim)
    X = np.random.default_rng(5).uniform(size=shape + (dim,))
    return ham.bind(X)


@pytest.mark.parametrize("dim", (1, 2))
def test_family_evaluators_match_the_reference_bits(dim):
    # the 1D sums of squares skip sum_p's + 0.0, the nonconvex -f(x) and
    # 2|q| are bound once; every output byte is the reference's, NaN signs too
    for p in _momenta(dim):
        pabs = np.abs(p)
        for ham_id, reference in (("quadratic_eikonal", _reference_quadratic_h),
                                  ("linear_eikonal", _reference_linear_h),
                                  ("nonconvex_bs00", _reference_nonconvex_h1)):
            H, alpha = _bound(ham_id, dim, p.shape[:-1])
            keys = dict(H.keywords)
            if ham_id == "nonconvex_bs00":
                alpha_keys = {k: v for k, v in alpha.keywords.items() if k != "qmax2"}
                with np.errstate(all="ignore"):
                    got, want = alpha(pabs), _reference_nonconvex_alpha(pabs, **alpha_keys)
                assert got.tobytes() == want.tobytes()
                if dim == 2:  # the 2D evaluator calls F and is unchanged
                    continue
                assert keys.pop("nfv").tobytes() == (-keys["fv"]).tobytes()
            with np.errstate(all="ignore"):
                got, want = H(p), reference(p, **keys)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
