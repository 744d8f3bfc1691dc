"""Verification checks: identities, equivalence, decay, overlap scoring."""

import re
import tracemalloc

import numpy as np
import pytest

from plate_echo.forward import FarFieldMatrix, ScatteringSolver, assemble_far_field_matrix
from plate_echo.geometry import make_curve
from plate_echo.imaging import ImagingGrid, indicator_values
from plate_echo.verify import (
    CheckRecord,
    check_decay_slope,
    check_equivalence_chain,
    check_funk_hecke,
    check_operator_identity,
    reconstruction_overlap,
)

K = 4.0
J0_FIRST_ZERO = 2.404825557695773


class TestFunkHecke:
    def test_coincident_points(self):
        assert check_funk_hecke(K, (0.4, 0.4), (0.4, 0.4), 64) < 1e-13

    def test_j0_zero_separation(self):
        sep = J0_FIRST_ZERO / K
        assert check_funk_hecke(K, (sep, 0.0), (0.0, 0.0), 64) < 1e-12

    def test_moderate_separation(self):
        assert check_funk_hecke(K, (2.5, 0.0), (0.0, 0.0), 64) < 1e-10

    def test_superalgebraic_decay_in_n(self):
        res = [check_funk_hecke(1.0, (6.0, 0.0), (0.0, 0.0), n) for n in (8, 12, 16, 24)]
        assert res[0] > res[1] > res[2] > res[3]
        assert res[3] < 1e-10

    def test_minimum_directions(self):
        with pytest.raises(ValueError):
            check_funk_hecke(K, (1.0, 0.0), (0.0, 0.0), 4)


class TestOperatorIdentity:
    def test_zero_matrix_flags_degenerate(self):
        ff = FarFieldMatrix(k=K, entries=np.zeros((8, 8), complex))
        rep = check_operator_identity(ff)
        assert np.isnan(rep.value) and not rep.passed
        assert rep.line() == "check=operator_identity shape=- k=4 N=8 value=nan tol=0.01 pass=0"

    def test_oracle_path(self, ff_oracle):
        rep = check_operator_identity(ff_oracle, tolerance=1e-6)
        assert rep.passed
        assert rep.value < 1e-6

    def test_bie_star(self, ff_star):
        rep = check_operator_identity(ff_star, tolerance=1e-2)
        assert rep.passed

    def test_both_disk_paths_satisfy_identity(self, ff_disk, ff_oracle):
        # integral-equation path and mode-matching path agree on the residual
        assert check_operator_identity(ff_disk).value < 1e-6
        assert check_operator_identity(ff_oracle).value < 1e-6

    def test_residual_sweep_never_grows_past_plateau(self, ff_star, ff_star_256,
                                                     ff_peanut, ff_peanut_256):
        # residual decreases with refinement until it hits the direction-
        # aliasing/round-off floor (~1e-10 at N=64); allow 10% slack or floor
        floor = 1e-9
        star = make_curve("star")
        peanut = make_curve("peanut")
        seq_star = [
            check_operator_identity(assemble_far_field_matrix(star, K, 64, 64)).value,
            check_operator_identity(ff_star).value,
            check_operator_identity(ff_star_256).value,
            check_operator_identity(assemble_far_field_matrix(star, K, 64, 512)).value,
        ]
        seq_peanut = [
            check_operator_identity(assemble_far_field_matrix(peanut, K, 64, 64)).value,
            check_operator_identity(ff_peanut).value,
            check_operator_identity(ff_peanut_256).value,
            check_operator_identity(assemble_far_field_matrix(peanut, K, 64, 512)).value,
        ]
        for seq in (seq_star, seq_peanut):
            for coarse, fine in zip(seq, seq[1:]):
                assert fine <= max(1.1 * coarse, floor)

    @pytest.mark.parametrize("kind", ["circle", "ellipse", "kite"])
    def test_residual_sweep_remaining_shapes(self, kind):
        floor = 1e-9
        curve = make_curve(kind)
        seq = [
            check_operator_identity(assemble_far_field_matrix(curve, K, 64, m)).value
            for m in (64, 128, 256)
        ]
        for coarse, fine in zip(seq, seq[1:]):
            assert fine <= max(1.1 * coarse, floor)

    def test_report_line_format(self, ff_star):
        rep = check_operator_identity(ff_star, tolerance=1e-2)
        line = rep.line()
        assert line.startswith("check=operator_identity shape=star k=4 N=64 value=")
        assert "pass=1" in line
        # CheckRecord alone decides pass= and formats the line
        assert CheckRecord("x", "", 12.5, 8, 0.0123456789, 0.4).line() == (
            "check=x shape=- k=12.5 N=8 value=1.234568e-02 tol=0.4 pass=1")
        assert " k=16 " in CheckRecord("x", "-", 16, 64, 0.0, 1.0).line()
        # a k that six digits would round prints exactly, so lines stay distinct
        assert CheckRecord("x", "-", 4.0000001, 64, 0.0, 1.0).line() == (
            "check=x shape=- k=4.0000001 N=64 value=0.000000e+00 tol=1 pass=1")
        assert CheckRecord("x", "-", 4.0, 64, 1e-2, 1e-2).passed
        assert not CheckRecord("x", "-", 4.0, 64, float("nan"), 1e-2).passed


class TestEquivalenceChain:
    def test_zero_matrix_zero_slack(self):
        ff = FarFieldMatrix(k=K, entries=np.zeros((16, 16), complex))
        assert check_equivalence_chain(ff, np.array([[0.5, 0.5]])) == 0.0

    def test_oracle_path(self, ff_oracle, sample_points):
        assert check_equivalence_chain(ff_oracle, sample_points) <= 1e-6

    def test_bie_peanut(self, ff_peanut, sample_points):
        assert check_equivalence_chain(ff_peanut, sample_points) <= 0.05

    def test_disk_paths_agree(self, ff_disk, ff_oracle, sample_points):
        # entrywise agreement of the two solution paths ...
        rel = np.abs(ff_disk.entries - ff_oracle.entries).max() / np.abs(ff_oracle.entries).max()
        assert rel < 1e-6
        # ... and both satisfy the chain with comparable (here: zero) slack
        eps_bie = check_equivalence_chain(ff_disk, sample_points)
        eps_orc = check_equivalence_chain(ff_oracle, sample_points)
        assert eps_bie <= max(10 * eps_orc, 1e-6)


    def test_one_pass_matches_two_indicator_calls(self, ff_star, sample_points):
        # the slack from one F phi_z product per point block, bit for bit the
        # formula over separate ip (rho 1) and norm (rho 2) evaluations
        w = 2.0 * np.pi / ff_star.n_dirs
        ip_w = w**2 * indicator_values(ff_star, sample_points, 1.0, "ip")
        nrm2_w = w**3 * indicator_values(ff_star, sample_points, 2.0, "norm")
        eps_lower = nrm2_w / (8.0 * np.pi) / ip_w - 1.0
        eps_upper = ip_w / (np.sqrt(2.0 * np.pi) * np.sqrt(nrm2_w)) - 1.0
        expected = float(max(eps_lower.max(), eps_upper.max(), 0.0))
        assert check_equivalence_chain(ff_star, sample_points) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_refused(self, ff_star, bad, monkeypatch):
        # a NaN point used to give slack 0.0, a pass; refused by value before any F u
        monkeypatch.setattr(FarFieldMatrix, "apply", lambda self, P: pytest.fail("F applied"))
        with pytest.raises(ValueError, match=rf"finite, got \[\[{bad}, 0.0\]\]"):
            check_equivalence_chain(ff_star, [[bad, 0.0]])
        with pytest.raises(ValueError, match=str(bad)):
            indicator_values(ff_star, [[1.0, 2.0], [0.5, bad]], 1.0, "norm")


class TestDecaySlope:
    RADII = np.geomspace(10.0, 100.0, 12)

    def test_ip_slope(self, ff_star_many_dirs):
        slope = check_decay_slope(ff_star_many_dirs, "ip", 1.0, self.RADII)
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_norm_slope(self, ff_star_many_dirs):
        slope = check_decay_slope(ff_star_many_dirs, "norm", 2.0, self.RADII)
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_scaling_leaves_slope(self, ff_star_many_dirs):
        scaled = FarFieldMatrix(k=ff_star_many_dirs.k, entries=10.0 * ff_star_many_dirs.entries)
        s1 = check_decay_slope(ff_star_many_dirs, "ip", 1.0, self.RADII)
        s2 = check_decay_slope(scaled, "ip", 1.0, self.RADII)
        assert abs(s1 - s2) < 1e-9

    def test_pairs_match_scalar_calls(self, ff_star_many_dirs):
        # four (which, rho) pairs from one evaluation of the rings: the same
        # floats, bit for bit, as one call per pair
        whiches, rhos = ("ip", "ip", "norm", "norm"), (1.0, 2.0, 1.0, 2.0)
        slopes = check_decay_slope(ff_star_many_dirs, whiches, rhos, self.RADII)
        assert slopes == [check_decay_slope(ff_star_many_dirs, w, r, self.RADII)
                          for w, r in zip(whiches, rhos)]
        assert all(type(s) is float for s in slopes)

    def test_pairs_need_equal_lengths(self, ff_star):
        with pytest.raises(ValueError):
            check_decay_slope(ff_star, ("ip", "norm"), 1.0, self.RADII)
        with pytest.raises(ValueError):
            check_decay_slope(ff_star, ("ip", "norm"), (1.0, 2.0, 4.0), self.RADII)
        with pytest.raises(ValueError):
            check_decay_slope(ff_star, ("ip", "bogus"), (1.0, 2.0), self.RADII)

    def test_zero_average_raises(self):
        ff = FarFieldMatrix(k=K, entries=np.zeros((16, 16), complex))
        with pytest.raises(RuntimeError):
            check_decay_slope(ff, "ip", 1.0, self.RADII)

    def test_radii_must_increase(self, ff_star):
        with pytest.raises(ValueError):
            check_decay_slope(ff_star, "ip", 1.0, [10.0, 9.0, 11.0])

    @pytest.mark.parametrize("radii, bad", [
        ([0.0, 10.0, 20.0], "[0.0]"), ([-20.0, -10.0], "[-20.0, -10.0]"),
        ([10.0, np.inf], "[inf]"), ([10.0, np.nan, 30.0], "[nan]"),
    ])
    def test_radii_must_be_finite_and_positive(self, ff_star, radii, bad, monkeypatch, capfd):
        # these used to reach polyfit: LAPACK printed DLASCL errors and the SVD failed
        monkeypatch.setattr(FarFieldMatrix, "apply", lambda self, P: pytest.fail("F applied"))
        with pytest.raises(ValueError, match=f"finite and > 0, got {re.escape(bad)}"):
            check_decay_slope(ff_star, "ip", 1.0, radii)
        assert capfd.readouterr().err == ""

    def test_operator_slopes_match_the_matrix(self, star_curve, ff_star_many_dirs):
        # F applied through the solver (ring blocks of 64 points, one solve each)
        # against the tabulated 1024 x 1024 matrix of the same solver setup
        op = ScatteringSolver(star_curve, K, 128).far_field_operator(1024)
        whiches, rhos = ("ip", "ip", "norm", "norm"), (1.0, 2.0, 1.0, 2.0)
        slopes = check_decay_slope(op, whiches, rhos, self.RADII)
        assert np.allclose(slopes, check_decay_slope(ff_star_many_dirs, whiches, rhos, self.RADII),
                           rtol=0, atol=1e-12)

    def test_operator_decay_check_tabulates_no_matrix(self, star_curve):
        # the four-pair check peaks at 26.2 MB on the matrix (16.8 MB of entries)
        solver = ScatteringSolver(star_curve, K, 128)
        tracemalloc.start()
        try:
            check_decay_slope(solver.far_field_operator(1024), ("ip", "ip", "norm", "norm"),
                              (1.0, 2.0, 1.0, 2.0), self.RADII)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13e6


class TestReconstructionOverlap:
    def _indicator_grid(self, curve, n=120):
        xs = np.linspace(-4, 4, n)
        ys = np.linspace(-4, 4, n)
        X, Y = np.meshgrid(xs, ys)
        pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
        vals = curve.contains(pts).astype(float).reshape(n, n)
        return ImagingGrid(xs=xs, ys=ys, values=vals)

    def test_perfect_indicator(self, star_curve):
        grid = self._indicator_grid(star_curve)
        assert reconstruction_overlap(grid, star_curve, 0.5) == 1.0

    def test_all_ones_gives_area_fraction(self, star_curve):
        grid = self._indicator_grid(star_curve)
        ones = ImagingGrid(xs=grid.xs, ys=grid.ys, values=np.ones_like(grid.values))
        frac = reconstruction_overlap(ones, star_curve, 0.5)
        assert frac == pytest.approx(grid.values.mean(), abs=1e-12)

    def test_calibrated_star_regression(self, benchmark_grids):
        # threshold calibrated once on this implementation (0.05 maximizes the
        # worst-case overlap across the benchmark grids); frozen floor below
        grid, curve = benchmark_grids["star", 0.02, "ip"]
        assert reconstruction_overlap(grid, curve, 0.05) >= 0.33

    def test_threshold_domain(self, star_curve):
        grid = self._indicator_grid(star_curve)
        with pytest.raises(ValueError):
            reconstruction_overlap(grid, star_curve, 0.0)
        with pytest.raises(ValueError):
            reconstruction_overlap(grid, star_curve, 1.0)

    def test_degenerate_empty_set(self, star_curve):
        grid = self._indicator_grid(star_curve)
        zeros = ImagingGrid(xs=grid.xs, ys=grid.ys, values=np.zeros_like(grid.values))
        with pytest.raises(ValueError):
            reconstruction_overlap(zeros, star_curve, 0.5)
