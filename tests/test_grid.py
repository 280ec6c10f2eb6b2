"""Periodic grid, sampling, one-sided differences, norms, and file round trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hjsys.grid import (
    Grid,
    GridFunction,
    diff_arrays,
    interp_periodic,
    linf_distance,
    load_binary,
    load_csv,
    one_sided_diffs,
    osc,
    sample,
    save_binary,
    save_csv,
    sup_norm,
)


class TestGridConstruction:
    def test_spacing_and_shape_1d(self):
        g = Grid(dim=1, n=64)
        assert g.h == 1.0 / 64
        assert g.shape == (64,)
        assert g.num_nodes == 64

    def test_spacing_and_shape_2d(self):
        g = Grid(dim=2, n=16)
        assert g.shape == (16, 16)
        assert g.num_nodes == 256

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Grid(dim=1, n=7)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Grid(dim=3, n=16)

    def test_rejects_oversized_2d(self):
        with pytest.raises(ValueError):
            Grid(dim=2, n=1024)
        Grid(dim=1, n=1024)  # 1d has no such cap

    def test_axis_coords_left_endpoints(self):
        g = Grid(dim=1, n=8)
        assert np.array_equal(g.axis_coords(), np.arange(8) / 8.0)

    def test_mesh_shape(self):
        g = Grid(dim=2, n=8)
        assert g.mesh().shape == (8, 8, 2)
        assert g.nodes().shape == (64, 2)

    def test_node_index_wraps(self):
        g = Grid(dim=1, n=8)
        assert g.node_index(np.array([0.375])) == (3,)
        assert g.node_index(np.array([1.0])) == (0,)
        assert g.node_index(np.array([-0.125])) == (7,)


class TestSampling:
    def test_cosine_at_four_points(self):
        # cos(2 pi x) on {0, 1/4, 1/2, 3/4} hits (1, 0, -1, 0).
        g = Grid(dim=1, n=8)
        f = sample(lambda x: np.cos(2 * np.pi * x[..., 0]), g)
        vals = f.values[::2]
        assert np.allclose(vals, [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_2d_separable(self):
        g = Grid(dim=2, n=8)
        f = sample(lambda x: x[..., 0] + 2 * x[..., 1], g)
        xs = g.axis_coords()
        assert np.allclose(f.values, xs[:, None] + 2 * xs[None, :])

    def test_rejects_nonfinite(self):
        g = Grid(dim=1, n=8)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            GridFunction(g, vals)

    def test_values_are_copied_and_locked(self):
        g = Grid(dim=1, n=8)
        src = np.zeros(8)
        f = GridFunction(g, src)
        src[0] = 5.0
        assert f.values[0] == 0.0
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestDifferences:
    def test_shift_identity(self):
        # D^- at node j equals D^+ at node j-1, exactly in floating point.
        g = Grid(dim=1, n=32)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(32)
        dminus, dplus = diff_arrays(u, g)
        assert np.array_equal(dminus[..., 0], np.roll(dplus[..., 0], 1))

    def test_shift_identity_2d(self):
        g = Grid(dim=2, n=8)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((8, 8))
        dminus, dplus = diff_arrays(u, g)
        for axis in range(2):
            assert np.array_equal(
                dminus[..., axis], np.roll(dplus[..., axis], 1, axis=axis)
            )

    def test_sawtooth(self):
        # u_j = j h: forward slope 1 everywhere except the wrap node.
        g = Grid(dim=1, n=16)
        u = np.arange(16) / 16.0
        dminus, dplus = diff_arrays(u, g)
        assert np.allclose(dplus[:-1, 0], 1.0)
        assert np.isclose(dplus[-1, 0], 1.0 - 16)
        assert np.allclose(dminus[1:, 0], 1.0)
        assert np.isclose(dminus[0, 0], 1.0 - 16)

    def test_first_order_accuracy(self):
        # |D^+ u - u'| <= (h/2) sup|u''| for u = sin(2 pi x).
        g = Grid(dim=1, n=128)
        xs = g.axis_coords()
        u = np.sin(2 * np.pi * xs)
        _, dplus = diff_arrays(u, g)
        err = np.max(np.abs(dplus[:, 0] - 2 * np.pi * np.cos(2 * np.pi * xs)))
        assert err <= 2 * np.pi**2 * g.h

    @pytest.mark.parametrize("dim,lead", [(1, ()), (1, (2, 3)), (2, ()), (2, (3,))])
    def test_matches_the_slicing_reference_bit_for_bit(self, dim, lead):
        # the reference writes the interior and the wrap node by slicing
        g = Grid(dim=dim, n=8)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(lead + g.shape) * 10.0 ** rng.integers(-300, 300, lead + g.shape)
        u.flat[:6] = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
        want_m, want_p = np.empty(u.shape + (dim,)), np.empty(u.shape + (dim,))
        out = (np.empty_like(want_m), np.empty_like(want_p))
        with np.errstate(over="ignore"):  # 1e308 - (-1e308)
            for k in range(dim):
                tail = (slice(None),) * (dim - 1 - k)
                first, last = (Ellipsis, slice(0, 1)) + tail, (Ellipsis, slice(-1, None)) + tail
                head, rest = (Ellipsis, slice(None, -1)) + tail, (Ellipsis, slice(1, None)) + tail
                dm, dp = want_m[..., k], want_p[..., k]
                dm[rest] = u[rest] - u[head]
                dm[first] = u[first] - u[last]
                dm /= g.h
                dp[head], dp[last] = dm[rest], dm[first]
            for got in (diff_arrays(u, g), diff_arrays(u, g, out=out)):
                assert [a.tobytes() for a in got] == [want_m.tobytes(), want_p.tobytes()]
            assert diff_arrays(u, g, out=out)[0] is out[0]

    def test_one_sided_diffs_wrapper(self):
        g = Grid(dim=1, n=16)
        f = sample(lambda x: x[..., 0] ** 0 * 0.0, g)
        dminus, dplus = one_sided_diffs(f)
        assert np.all(dminus == 0.0) and np.all(dplus == 0.0)


class TestNormsAndInterp:
    def test_sup_norm_and_osc(self):
        g = Grid(dim=1, n=8)
        u = np.array([-3.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert sup_norm(u) == 3.0
        assert osc(u) == 5.0
        assert sup_norm(GridFunction(g, u)) == 3.0

    def test_linf_distance_grid_mismatch(self):
        f = sample(lambda x: x[..., 0], Grid(dim=1, n=8))
        f2 = sample(lambda x: x[..., 0], Grid(dim=1, n=16))
        with pytest.raises(ValueError, match="grid"):
            linf_distance(f, f2)

    def test_interp_exact_at_nodes(self):
        g = Grid(dim=1, n=32)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(32)
        out = interp_periodic(u, g, g.nodes())
        assert np.allclose(out, u, atol=1e-14)

    def test_interp_linear_exact_on_linear_data(self):
        # Between nodes, interpolation of u_j = j h reproduces x exactly.
        g = Grid(dim=1, n=16)
        u = np.arange(16) / 16.0
        pts = np.array([[0.03125], [0.5 + 1 / 64], [0.9]])
        out = interp_periodic(u, g, pts)
        # the last cell wraps to 0, so only probe away from it
        assert np.allclose(out[:2], pts[:2, 0], atol=1e-14)

    def test_interp_midpoint_error_bound(self):
        # Linear interpolation error at cell midpoints is at most
        # (h^2 / 8) sup|f''| = (pi^2 / 2) h^2 for f = cos(2 pi x).
        g = Grid(dim=1, n=64)
        xs = g.axis_coords()
        u = np.cos(2 * np.pi * xs)
        mids = (xs + g.h / 2)[:, None]
        out = interp_periodic(u, g, mids)
        err = np.max(np.abs(out - np.cos(2 * np.pi * mids[:, 0])))
        assert err <= (np.pi**2 / 2) * g.h**2

    def test_interp_periodic_wrap_2d(self):
        g = Grid(dim=2, n=8)
        f = sample(lambda x: np.cos(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1]), g)
        shifted = interp_periodic(f.values, g, g.nodes() + 1.0)
        assert np.allclose(shifted.reshape(8, 8), f.values, atol=1e-12)


class TestFileRoundTrips:
    def test_csv_roundtrip_1d(self, tmp_path):
        g = Grid(dim=1, n=8)
        f = sample(lambda x: np.sin(2 * np.pi * x[..., 0]), g)
        path = tmp_path / "f.csv"
        save_csv(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "index,x,value"
        g2 = load_csv(path)
        assert np.array_equal(g2.values, f.values)
        assert g2.grid == g

    def test_csv_roundtrip_2d(self, tmp_path):
        g = Grid(dim=2, n=8)
        f = sample(lambda x: x[..., 0] * x[..., 1], g)
        path = tmp_path / "f.csv"
        save_csv(f, path)
        assert path.read_text().splitlines()[0] == "index,x,y,value"
        g2 = load_csv(path)
        assert np.array_equal(g2.values, f.values)

    def test_binary_roundtrip(self, tmp_path):
        g = Grid(dim=2, n=16)
        rng = np.random.default_rng(9)
        f = GridFunction(g, rng.standard_normal((16, 16)))
        path = tmp_path / "f.bin"
        save_binary(f, path)
        g2 = load_binary(path)
        assert np.array_equal(g2.values, f.values)
        assert g2.grid == g

    def test_binary_layout(self, tmp_path):
        # Header is two little-endian int32 (dim, n); payload is row-major f8.
        g = Grid(dim=1, n=8)
        f = GridFunction(g, np.arange(8, dtype=float))
        path = tmp_path / "f.bin"
        save_binary(f, path)
        raw = path.read_bytes()
        head = np.frombuffer(raw[:8], dtype="<i4")
        assert list(head) == [1, 8]
        assert np.array_equal(np.frombuffer(raw[8:], dtype="<f8"), np.arange(8.0))

    def test_truncated_binary_names_file_and_sizes(self, tmp_path):
        f = GridFunction(Grid(dim=1, n=8), np.arange(8, dtype=float))
        path = tmp_path / "f.bin"
        save_binary(f, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match=r"f\.bin: expected 72 bytes .* got 67"):
            load_binary(path)


@given(st.integers(min_value=8, max_value=128), st.integers(min_value=0, max_value=2**31))
def test_diff_arrays_sum_telescopes(n, seed):
    # Forward differences telescope around the torus: sum_j D^+ u_j = 0.
    g = Grid(dim=1, n=n)
    u = np.random.default_rng(seed).standard_normal(n)
    _, dplus = diff_arrays(u, g)
    assert abs(float(np.sum(dplus)) * g.h) <= 1e-10 * max(1.0, np.max(np.abs(u)))
