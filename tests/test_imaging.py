"""Indicators, noise, masking, grids."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from plate_echo import imaging
from plate_echo.forward import FarFieldMatrix, assemble_far_field_matrix, uniform_directions
from plate_echo.geometry import make_curve
from plate_echo.imaging import (
    INDICATOR_BLOCK,
    ApertureMask,
    ImagingGrid,
    NoiseModel,
    add_noise,
    apply_mask,
    evaluate_grid,
    indicator_values,
    phi_z,
    save_grid_csv,
    save_grid_pgm,
)
from plate_echo.oracle import _converged_modes, disk_far_field_matrix
from plate_echo.specfun import bessel_j

K = 4.0
EXTENT = (-4.0, 4.0, -4.0, 4.0)


def _identity_ff(n=64):
    return FarFieldMatrix(k=K, entries=np.eye(n, dtype=complex))


def _explicit_indicator(ff, points, which):
    """Raw indicator (rho = 1) from the unblocked (points, N) test vectors P."""
    P = np.exp(-1j * ff.k * (points @ ff.directions.T))
    FP = P @ ff.entries.T
    if which == "ip":
        return np.abs(np.sum(np.conj(P) * FP, axis=1))
    return np.sqrt(np.sum(np.abs(FP) ** 2, axis=1))


class TestNoise:
    def test_zero_delta_is_identity(self, ff_star):
        out = add_noise(ff_star, NoiseModel(0.0, seed=9))
        assert np.array_equal(out.entries, ff_star.entries)

    def test_same_seed_reproduces(self, ff_star):
        a = add_noise(ff_star, NoiseModel(0.3, seed=42))
        b = add_noise(ff_star, NoiseModel(0.3, seed=42))
        assert np.array_equal(a.entries, b.entries)

    def test_different_seeds_differ(self, ff_star):
        a = add_noise(ff_star, NoiseModel(0.3, seed=1))
        b = add_noise(ff_star, NoiseModel(0.3, seed=2))
        assert not np.array_equal(a.entries, b.entries)

    def test_frobenius_bound_and_monte_carlo_mean(self, ff_star):
        # per entry |R| <= sqrt(2); E|R_ij|^2 = 2/3 gives mean relative
        # Frobenius perturbation delta*sqrt(2/3) (Monte-Carlo verified)
        delta = 0.02
        norm = np.linalg.norm(ff_star.entries)
        rels = np.empty(1000)
        for seed in range(1000):
            noisy = add_noise(ff_star, NoiseModel(delta, seed))
            rels[seed] = np.linalg.norm(noisy.entries - ff_star.entries) / norm
        assert rels.max() <= delta * np.sqrt(2.0)
        assert rels.mean() == pytest.approx(delta * np.sqrt(2.0 / 3.0), rel=0.05)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            NoiseModel(1.0)
        with pytest.raises(ValueError):
            NoiseModel(-0.1)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(0.1, seed)

    def test_large_seed_draws_as_before(self, ff_star):
        n = ff_star.n_dirs
        draws = np.random.default_rng(2**40).uniform(-1.0, 1.0, size=(n, n, 2))
        expected = ff_star.entries * (1.0 + 0.3 * (draws[..., 0] + 1j * draws[..., 1]))
        assert np.array_equal(add_noise(ff_star, NoiseModel(0.3, 2**40)).entries, expected)


class TestMask:
    def test_empty_mask_is_identity(self, ff_star):
        assert ApertureMask().is_empty()
        out = apply_mask(ff_star, ApertureMask())
        assert np.array_equal(out.entries, ff_star.entries)

    def test_benchmark_mask(self, ff_star):
        mask = ApertureMask(
            receiver_rows=tuple(range(1, 17)), source_cols=tuple(range(48, 65))
        )
        assert not mask.is_empty()
        assert not ApertureMask(receiver_rows=(1,)).is_empty()
        assert not ApertureMask(source_cols=(1,)).is_empty()
        out = apply_mask(ff_star, mask)
        assert np.all(out.entries[:16, :] == 0.0)
        assert np.all(out.entries[:, 47:] == 0.0)
        # entry (17, 47) in 1-based indexing survives untouched
        assert out.entries[16, 46] == ff_star.entries[16, 46]

    @given(
        rows=st.sets(st.integers(1, 64), max_size=10),
        cols=st.sets(st.integers(1, 64), max_size=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_mask_idempotent(self, rows, cols):
        ff = _identity_ff()
        mask = ApertureMask(receiver_rows=tuple(sorted(rows)), source_cols=tuple(sorted(cols)))
        once = apply_mask(ff, mask)
        twice = apply_mask(once, mask)
        assert np.array_equal(once.entries, twice.entries)

    def test_out_of_range_raises(self, ff_star):
        with pytest.raises(IndexError):
            apply_mask(ff_star, ApertureMask(receiver_rows=(65,)))
        with pytest.raises(IndexError):
            apply_mask(ff_star, ApertureMask(source_cols=(0,)))


class TestPhiZ:
    def test_origin_gives_ones(self):
        d = uniform_directions(16)
        assert np.array_equal(phi_z(K, d, (0.0, 0.0)), np.ones(16, complex))

    @given(
        zx=st.floats(-10, 10, allow_nan=False),
        zy=st.floats(-10, 10, allow_nan=False),
        n=st.sampled_from([8, 16, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_modulus_and_norm(self, zx, zy, n):
        p = phi_z(K, uniform_directions(n), (zx, zy))
        assert np.allclose(np.abs(p), 1.0, atol=1e-12)
        assert np.linalg.norm(p) == pytest.approx(np.sqrt(n), rel=1e-12)


class TestIndicators:
    def test_matrix_apply_is_the_product_with_the_transpose(self, ff_star):
        # F u for each row u of P, the GEMM the indicator core has always made
        P = phi_z(K, ff_star.directions, np.random.default_rng(2).uniform(-4, 4, size=(9, 2)))
        assert np.array_equal(ff_star.apply(P), P @ ff_star.entries.T)

    def test_zero_matrix(self):
        ff = FarFieldMatrix(k=K, entries=np.zeros((16, 16), complex))
        assert indicator_values(ff, (0.3, 0.1), 4.0, "ip")[0] == 0.0
        assert indicator_values(ff, (0.3, 0.1), 4.0, "norm")[0] == 0.0

    def test_identity_matrix_value(self):
        ff = _identity_ff(64)
        assert indicator_values(ff, (1.2, -0.4), 3.0, "ip")[0] == pytest.approx(64.0**3.0, rel=1e-12)

    def test_homogeneity(self, ff_star):
        z = (0.7, 0.2)
        for rho in (1.0, 4.0):
            scaled = FarFieldMatrix(k=ff_star.k, entries=2.5 * ff_star.entries)
            assert indicator_values(scaled, z, rho, "ip")[0] == pytest.approx(
                2.5**rho * indicator_values(ff_star, z, rho, "ip")[0], rel=1e-12
            )
            assert indicator_values(scaled, z, rho, "norm")[0] == pytest.approx(
                2.5**rho * indicator_values(ff_star, z, rho, "norm")[0], rel=1e-12
            )

    def test_rho_positive_required(self, ff_star):
        with pytest.raises(ValueError):
            indicator_values(ff_star, (0, 0), 0.0, "ip")[0]
        with pytest.raises(ValueError):
            indicator_values(ff_star, (0, 0), -1.0, "norm")[0]
        # a non-finite rho passes "rho <= 0"; it is refused before any work
        for rho in (np.nan, np.inf):
            with pytest.raises(ValueError, match="rho"):
                indicator_values(ff_star, (0.5, 0.5), rho, "ip")
            with pytest.raises(ValueError, match="rho"):
                evaluate_grid(ff_star, EXTENT, (10, 10), rho, "norm")

    def test_batch_matches_scalar(self, ff_star):
        pts = np.array([[0.0, 0.0], [1.0, -2.0], [3.3, 0.4]])
        batch = indicator_values(ff_star, pts, 4.0, "ip")
        single = []
        for z in pts:
            p = np.exp(-1j * K * (ff_star.directions @ z))
            single.append(abs(np.vdot(p, ff_star.entries @ p)) ** 4.0)
        assert np.allclose(batch, single, rtol=1e-12)

    def test_blocks_match_whole_array_evaluation(self, ff_star):
        # more points than one block, against the unblocked (points, N) formula
        n_points = INDICATOR_BLOCK // ff_star.n_dirs + 7
        pts = np.random.default_rng(11).uniform(-4, 4, size=(n_points, 2))
        P = np.exp(-1j * K * (pts @ ff_star.directions.T))
        FP = P @ ff_star.entries.T
        ip = np.abs(np.einsum("mi,mi->m", P.conj(), FP)) ** 4.0
        norm = np.linalg.norm(FP, axis=1) ** 8.0
        assert np.allclose(indicator_values(ff_star, pts, 4.0, "ip"), ip, rtol=1e-12)
        assert np.allclose(indicator_values(ff_star, pts, 8.0, "norm"), norm, rtol=1e-12)

    def test_pairs_match_single_calls(self, ff_star, monkeypatch):
        # several (rho, which) pairs share each block's F phi_z product; 50-point
        # blocks leave a short last block. Each array equals its own call bit for bit.
        monkeypatch.setattr(imaging, "INDICATOR_BLOCK", 50 * ff_star.n_dirs)
        pts = np.random.default_rng(3).uniform(-4, 4, size=(137, 2))
        rhos, whiches = (1.0, 2.0, 8.0, 4.0), ("ip", "norm", "norm", "ip")
        values = indicator_values(ff_star, pts, rhos, whiches)
        assert len(values) == 4
        for r, w, v in zip(rhos, whiches, values):
            assert np.array_equal(v, indicator_values(ff_star, pts, r, w))

    def test_far_point_much_smaller_than_centroid(self, ff_star):
        # at rho = 4 the indicator drops by orders of magnitude ten units out;
        # the quantitative dist^-4 rate is asserted by the decay-slope check,
        # which needs more directions than N = 64 resolves at that range
        centroid = indicator_values(ff_star, (0.0, 0.0), 4.0, "ip")[0]
        ang = 2 * np.pi * np.arange(32) / 32
        ring = 11.95 * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        ring_mean = indicator_values(ff_star, ring, 4.0, "ip").mean()
        assert centroid / ring_mean > 1e2

    def test_rank_correlation_between_indicators(self, ff_star):
        # with rho_norm = 2 rho_ip both indicators share the decay rate
        pts = np.random.default_rng(5).uniform(-4, 4, size=(500, 2))
        a = indicator_values(ff_star, pts, 4.0, "ip")
        b = indicator_values(ff_star, pts, 8.0, "norm")
        assert spearmanr(a, b).statistic >= 0.95


class TestGrid:
    def test_normalized_max_is_one(self, benchmark_grids):
        for grid, _ in benchmark_grids.values():
            assert grid.values.max() == 1.0
            assert grid.values.min() >= 0.0

    def test_benchmark_argmax_inside_cavity(self, benchmark_grids):
        grid, curve = benchmark_grids["star", 0.02, "ip"]
        assert curve.contains(grid.argmax_point()[None, :])[0]

    def test_noiseless_argmax_inside_cavity(self, ff_star, ff_peanut):
        for ff, kind in ((ff_star, "star"), (ff_peanut, "peanut")):
            grid = evaluate_grid(ff, EXTENT, (150, 150), 4.0, "ip")
            assert make_curve(kind).contains(grid.argmax_point()[None, :])[0]

    def test_ray_envelope_decays(self, benchmark_grids):
        # windowed max along the +x ray is non-increasing beyond dist 2
        grid, _ = benchmark_grids["star", 0.02, "ip"]
        iy = int(np.argmin(np.abs(grid.ys)))
        ray = grid.values[iy, grid.xs >= 2.0]
        window = 15
        wmax = np.array([ray[i:i + window].max() for i in range(len(ray) - window + 1)])
        assert np.all(np.diff(wmax) <= 1e-12)

    def test_scale_invariance_of_normalized_grid(self, ff_star):
        g1 = evaluate_grid(ff_star, EXTENT, (40, 40), 4.0, "ip")
        scaled = FarFieldMatrix(k=ff_star.k, entries=3.0 * ff_star.entries)
        g2 = evaluate_grid(scaled, EXTENT, (40, 40), 4.0, "ip")
        assert np.allclose(g1.values, g2.values, atol=1e-12)
        assert np.array_equal(g1.argmax_point(), g2.argmax_point())

    def test_degenerate_grid_raises(self):
        ff = FarFieldMatrix(k=K, entries=np.zeros((16, 16), complex))
        with pytest.raises(ValueError):
            evaluate_grid(ff, EXTENT, (10, 10), 4.0, "ip")

    def test_resolution_precondition(self, ff_star):
        with pytest.raises(ValueError):
            evaluate_grid(ff_star, EXTENT, (1, 10), 4.0, "ip")
        # a fractional count used to be truncated: (2.9, 5) built 2 columns
        for bad in ((2.9, 5), (10, 10.0), (True, 10)):
            with pytest.raises(ValueError, match="resolution"):
                evaluate_grid(ff_star, EXTENT, bad, 4.0, "ip")
        assert evaluate_grid(ff_star, EXTENT, (np.int64(3), 2), 4.0, "ip").values.shape == (2, 3)
        with pytest.raises(ValueError):
            evaluate_grid(ff_star, EXTENT, (10, 10, 7), 4.0, "ip")
        # non-finite, reversed (min y would land on the PGM's top row), flat and wrong-length extents
        for bad in ((-4.0, np.nan, -4.0, 4.0), (-4.0, 4.0, -np.inf, 4.0), (4.0, -4.0, -4.0, 4.0),
                    (-4.0, 4.0, 4.0, -4.0), (1.0, 1.0, -4.0, 4.0), (-4.0, 4.0, 2.0, 2.0),
                    (-4.0, 4.0, -4.0), (-4.0, 4.0, -4.0, 4.0, 0.0)):
            with pytest.raises(ValueError, match="extent"):
                evaluate_grid(ff_star, bad, (10, 10), 4.0, "ip")

    @pytest.mark.parametrize("block", [16, INDICATOR_BLOCK, 4096])
    @pytest.mark.parametrize("resolution", [(7, 5), (301, 3), (40, 37)])
    @pytest.mark.parametrize("which, rho", [("ip", 4.0), ("norm", 8.0)])
    def test_grid_matches_pointwise_indicator(self, ff_star, monkeypatch, block,
                                              resolution, which, rho):
        # the folded grid rows against phi_z at every grid point; the block size
        # sets indicator_values' blocks only: at N = 64 a block of 16 entries
        # holds one point, and 4096 and the default leave partial last blocks
        monkeypatch.setattr(imaging, "INDICATOR_BLOCK", block)
        grid = evaluate_grid(ff_star, (-3.0, 2.5, -1.5, 4.0), resolution, rho, which)
        assert grid.values.shape == resolution[::-1]
        direct = indicator_values(ff_star, grid.points(), rho, which)
        direct = (direct / direct.max()).reshape(grid.values.shape)
        assert np.abs(grid.values - direct).max() < 1e-13

    @pytest.mark.parametrize("which", ["ip", "norm"])
    def test_indicator_core_matches_explicit_formulas(self, ff_star, monkeypatch, which):
        # a 23 x 17 grid with 50-point blocks: grids take one row per block and
        # indicator_values 50 points, so its last block is shorter than the buffer
        monkeypatch.setattr(imaging, "INDICATOR_BLOCK", 50 * ff_star.n_dirs)
        grid = evaluate_grid(ff_star, (-3.0, 2.5, -1.5, 4.0), (23, 17), 1.0, which)
        explicit = _explicit_indicator(ff_star, grid.points(), which)
        values = indicator_values(ff_star, grid.points(), 1.0, which)
        assert np.max(np.abs(values - explicit) / explicit) <= 1e-13
        normalized = (explicit / explicit.max()).reshape(grid.values.shape)
        assert np.max(np.abs(grid.values - normalized) / normalized) <= 1e-13

    @pytest.mark.parametrize("n_dirs", [4, 5, 6, 64, 65])
    @pytest.mark.parametrize("which", ["ip", "norm"])
    def test_grid_fold_holds_for_any_matrix(self, which, n_dirs):
        # the fold of direction i onto N - i uses only the directions, not
        # reciprocity of the data: a random complex matrix with a masked
        # aperture covers class 0, the lone class N/2 of even N, and odd N
        rng = np.random.default_rng(n_dirs)
        entries = rng.standard_normal((n_dirs, n_dirs)) + 1j * rng.standard_normal((n_dirs, n_dirs))
        mask = ApertureMask(receiver_rows=(2,), source_cols=(n_dirs,))
        ff = apply_mask(FarFieldMatrix(k=K, entries=entries), mask)
        grid = evaluate_grid(ff, (-3.0, 2.5, -1.5, 4.0), (19, 13), 1.0, which)
        explicit = _explicit_indicator(ff, grid.points(), which)
        normalized = (explicit / explicit.max()).reshape(grid.values.shape)
        assert np.max(np.abs(grid.values - normalized) / normalized) <= 1e-13

    @pytest.mark.parametrize("a, k, n_dirs", [(1.0, 4.0, 128), (1.0, 4.0, 64),
                                              (0.5, 2.0, 65), (1.3, 8.0, 256)])
    @pytest.mark.parametrize("which", ["ip", "norm"])
    def test_grid_matches_disk_closed_forms(self, a, k, n_dirs, which):
        # Jacobi-Anger on F_ij = -4i sum_n ra_n e^{in(theta_i - theta_j)} gives
        # (phi_z, F phi_z) = -4i N^2 sum_n ra_n J_n(k|z|)^2 and
        # ||F phi_z|| = 4 N^{3/2} (sum_n |ra_n|^2 J_n(k|z|)^2)^{1/2}
        # while k|z| <= N/4, before the directions alias
        half = n_dirs / (6.0 * k)                  # k|z| <= sqrt(2) N / 6 on the grid
        ff = disk_far_field_matrix(a, k, n_dirs)
        grid = evaluate_grid(ff, (-half, 0.9 * half, -0.8 * half, half), (31, 23), 1.0, which)
        order, ra, _ = _converged_modes(a, k)
        kr = k * np.hypot(*grid.points().T)
        J2 = bessel_j(np.arange(-order, order + 1)[:, None], kr[None, :]) ** 2
        if which == "ip":
            exact = np.abs(-4j * n_dirs**2 * (ra @ J2))
        else:
            exact = 4.0 * n_dirs**1.5 * np.sqrt(np.abs(ra) ** 2 @ J2)
        normalized = (exact / exact.max()).reshape(grid.values.shape)
        assert np.max(np.abs(grid.values - normalized)) <= 1e-12

    def test_translation_covariance(self, ff_star):
        v = np.array([0.5, -0.3])
        star = make_curve("star")

        def moved_frame(t):
            x, dx, ddx = star._frame(t)
            return x + v, dx, ddx

        moved_star = dataclasses.replace(star, _frame=moved_frame)
        shifted = assemble_far_field_matrix(moved_star, K, 64, 128)
        zs = np.random.default_rng(8).uniform(-2, 2, size=(50, 2))
        orig = indicator_values(ff_star, zs, 4.0, "ip")
        moved = indicator_values(shifted, zs + v, 4.0, "ip")
        assert np.max(np.abs(moved - orig) / orig) < 1e-6


def _reference_csv(grid):
    """The grid CSV as a per-float Python writer makes it."""
    lines = ["x,y,value"] + [f"{x:.17g},{y:.17g},{grid.values[iy, ix]:.17g}"
                             for iy, y in enumerate(grid.ys) for ix, x in enumerate(grid.xs)]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestGridFiles:
    def test_csv_round_trip(self, tmp_path, ff_star):
        grid = evaluate_grid(ff_star, (-1.0, 1.0, -1.0, 1.0), (5, 4), 2.0, "norm")
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "x,y,value"
        assert len(rows) == 1 + 5 * 4
        x0, y0, v0 = rows[1].split(",")
        assert float(x0) == -1.0 and float(y0) == -1.0
        assert float(v0) == grid.values[0, 0]
        # row-major: x runs fastest
        x1 = float(rows[2].split(",")[0])
        assert x1 == grid.xs[1]

    def test_csv_lines_follow_the_format(self, tmp_path):
        # awkward text forms: signed zero, the smallest subnormal, a huge value,
        # an exact integer, an inexact decimal and negatives
        xs = np.array([-0.0, 0.1, 1e300, -7.0])
        ys = np.array([5e-324, -1.0, 1.0])
        values = np.array([[-0.0, 5e-324, 1e300, 1.0],
                           [0.1, -2.5e-7, -1e-300, 0.0],
                           [1.0, 0.5, 1 / 3, -0.1]])
        grid = ImagingGrid(xs=xs, ys=ys, values=values)
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        assert path.read_bytes() == _reference_csv(grid)

    @pytest.mark.parametrize("shape", ["evaluated-300x300", "wider-than-a-block", "mixed-widths"])
    def test_csv_bytes_match_the_per_float_writer(self, tmp_path, ff_star, shape):
        rng = np.random.default_rng(3)
        if shape == "evaluated-300x300":
            grid = evaluate_grid(ff_star, EXTENT, (300, 300), 4.0, "ip")
        elif shape == "wider-than-a-block":     # nx = SAVE_BLOCK_LINES + 1
            grid = ImagingGrid(np.linspace(-4.0, 4.0, 4097), np.array([-0.5, 2.0]), rng.random((2, 4097)))
        else:                                   # 21 lines, axis cells of 2 to 25 bytes
            values = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-30, 30, (3, 7))
            grid = ImagingGrid(np.array([0.0, -1.0, 0.1, 1e-7, -2.5e300, 7.0, 1 / 3]),
                               np.array([-0.0, 1e22, 0.3]), values)
        path = tmp_path / "grid.csv"
        save_grid_csv(grid, path)
        assert path.read_bytes() == _reference_csv(grid)

    @pytest.mark.parametrize("shape", [(2, 4), (4, 4), (3, 5), "2-d axis"], ids=str)
    def test_csv_refuses_a_bad_grid_shape(self, tmp_path, shape):
        xs, ys = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3)
        if shape == "2-d axis":
            xs, shape = xs[:, None], (3, 4)
        path = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match="shape"):
            save_grid_csv(ImagingGrid(xs=xs, ys=ys, values=np.ones(shape)), path)
        assert not path.exists()

    def test_csv_peak_memory_stays_small(self, tmp_path):
        n = 600
        axis = np.linspace(-4.0, 4.0, n)
        grid = ImagingGrid(axis, axis, np.random.default_rng(5).random((n, n)))
        tracemalloc.start()
        try:
            save_grid_csv(grid, tmp_path / "grid.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6                      # a per-line Python writer peaks at 11.7 MB here

    def test_pgm_format(self, tmp_path, ff_star):
        grid = evaluate_grid(ff_star, EXTENT, (30, 20), 4.0, "ip")
        path = tmp_path / "grid.pgm"
        save_grid_pgm(grid, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n30 20\n255\n")
        pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
        assert pixels.size == 30 * 20
        assert pixels.max() == 255
