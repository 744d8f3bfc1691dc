"""Acceptance criteria.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
pytest -s or in captured output on failure) and asserts the criterion at its
stated tolerance. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
from scipy.stats import spearmanr

from plate_echo.cli import main
from plate_echo.forward import assemble_far_field_matrix
from plate_echo.geometry import make_curve
from plate_echo.imaging import ApertureMask, NoiseModel, add_noise, apply_mask, evaluate_grid
from plate_echo.verify import (
    check_decay_slope,
    check_equivalence_chain,
    check_funk_hecke,
    check_operator_identity,
    reconstruction_overlap,
)

K = 4.0
N = 64
EXTENT = (-4.0, 4.0, -4.0, 4.0)
RESOLUTION = (150, 150)
J0_FIRST_ZERO = 2.404825557695773

# overlap threshold calibrated once on this implementation; per-case floors
# frozen from measured values (~12% headroom)
OVERLAP_THRESHOLD = 0.05
JACCARD_FLOORS = {("star", "ip"): 0.33, ("star", "norm"): 0.32,
                  ("peanut", "ip"): 0.38, ("peanut", "norm"): 0.40}

BENCHMARK_MASK = ApertureMask(receiver_rows=tuple(range(1, 17)),
                              source_cols=tuple(range(48, 65)))


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _distance_to_cavity(curve, point):
    if curve.contains(np.asarray(point)[None, :])[0]:
        return 0.0
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    bd = curve.position(t)
    return float(np.min(np.hypot(bd[:, 0] - point[0], bd[:, 1] - point[1])))


def test_criterion_1_disk_oracle_equivalence(ff_oracle):
    t0 = time.perf_counter()
    ff = assemble_far_field_matrix(make_curve("circle", (1.0,)), K, N, 128)
    elapsed = time.perf_counter() - t0
    rel = np.abs(ff.entries - ff_oracle.entries).max() / np.abs(ff_oracle.entries).max()
    _report(1, "disk-oracle-equivalence", rel <= 1e-6 and elapsed <= 30.0,
            f"entrywise rel={rel:.3e} (tol 1e-6), runtime={elapsed:.2f}s (limit 30s)")


def test_criterion_2_operator_identity(ff_oracle, ff_star, ff_star_256,
                                        ff_peanut, ff_peanut_256):
    r_orc = check_operator_identity(ff_oracle).value
    r_star = check_operator_identity(ff_star).value
    r_star2 = check_operator_identity(ff_star_256).value
    r_pea = check_operator_identity(ff_peanut).value
    r_pea2 = check_operator_identity(ff_peanut_256).value
    # refinement decreases the residual until the direction-aliasing floor
    floor = 1e-9
    ok = (
        r_orc <= 1e-6
        and r_star <= 1e-2
        and r_pea <= 1e-2
        and r_star2 <= max(1.1 * r_star, floor)
        and r_pea2 <= max(1.1 * r_pea, floor)
    )
    _report(2, "operator-identity", ok,
            f"oracle={r_orc:.2e} star128={r_star:.2e} star256={r_star2:.2e} "
            f"peanut128={r_pea:.2e} peanut256={r_pea2:.2e}")


def test_criterion_3_funk_hecke():
    seps = np.concatenate([np.linspace(0.0, 10.0, 21), [J0_FIRST_ZERO]])
    worst = max(
        check_funk_hecke(K, (kappa / K, 0.0), (0.0, 0.0), N) for kappa in seps
    )
    _report(3, "funk-hecke", worst <= 1e-10,
            f"worst residual {worst:.3e} over k|x-z| in [0,10] incl. J0 zero (tol 1e-10)")


def test_criterion_4_equivalence_chain(ff_oracle, ff_star, ff_peanut, sample_points):
    eps_orc = check_equivalence_chain(ff_oracle, sample_points)
    eps_star = check_equivalence_chain(ff_star, sample_points)
    eps_pea = check_equivalence_chain(ff_peanut, sample_points)
    ok = eps_orc <= 1e-6 and eps_star <= 0.05 and eps_pea <= 0.05
    _report(4, "equivalence-chain", ok,
            f"oracle eps={eps_orc:.2e} (tol 1e-6), star={eps_star:.2e}, "
            f"peanut={eps_pea:.2e} (tol 0.05), 100 points")


def test_criterion_5_decay_rates(ff_star_many_dirs):
    radii = np.geomspace(10.0, 100.0, 12)
    results = []
    ok = True
    for which, rho in (("ip", 1.0), ("ip", 2.0), ("norm", 1.0), ("norm", 2.0)):
        expected = -rho if which == "ip" else -rho / 2.0
        slope = check_decay_slope(ff_star_many_dirs, which, rho, radii)
        good = abs(slope - expected) <= 0.2 * abs(expected)
        ok = ok and good
        results.append(f"{which},rho={rho:g}: {slope:.3f} (want {expected:g} +-20%)")
    _report(5, "decay-rates", ok, "; ".join(results))


def test_criterion_6_paper_regressions(ff_star, ff_peanut, star_curve, peanut_curve):
    src = {"star": (ff_star, star_curve), "peanut": (ff_peanut, peanut_curve)}
    rho = {"ip": 4.0, "norm": 8.0}
    ok = True
    details = []
    for shape, deltas in (("star", (0.0, 0.02)), ("peanut", (0.1, 0.3))):
        ff, curve = src[shape]
        for delta in deltas:
            noisy = add_noise(ff, NoiseModel(delta, seed=0))
            grids = {}
            for which in ("ip", "norm"):
                t0 = time.perf_counter()
                grids[which] = evaluate_grid(noisy, EXTENT, RESOLUTION, rho[which], which)
                dt = time.perf_counter() - t0
                ok = ok and dt <= 60.0
                inside = curve.contains(grids[which].argmax_point()[None, :])[0]
                jac = reconstruction_overlap(grids[which], curve, OVERLAP_THRESHOLD)
                floor = JACCARD_FLOORS[shape, which]
                good = inside and jac >= floor
                ok = ok and good
                details.append(f"{shape} d={delta:g} {which}: in={int(inside)} "
                               f"jac={jac:.3f}>={floor} t={dt:.1f}s")
            rank = spearmanr(grids["ip"].values.ravel(),
                             grids["norm"].values.ravel()).statistic
            ok = ok and rank >= 0.95
            details.append(f"{shape} d={delta:g} spearman={rank:.4f}>=0.95")
    _report(6, "paper-regressions", ok, "; ".join(details))


def test_criterion_7_partial_aperture(ff_star, ff_peanut, star_curve, peanut_curve):
    src = {"star": (ff_star, star_curve), "peanut": (ff_peanut, peanut_curve)}
    ok = True
    details = []
    for shape, (ff, curve) in src.items():
        noisy = apply_mask(add_noise(ff, NoiseModel(0.1, seed=0)), BENCHMARK_MASK)
        grid = evaluate_grid(noisy, EXTENT, RESOLUTION, 4.0, "ip")
        dist = _distance_to_cavity(curve, grid.argmax_point())
        ok = ok and dist <= 0.5
        details.append(f"{shape}: argmax dist to cavity {dist:.3f} (limit 0.5)")
    _report(7, "partial-aperture", ok, "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    files = {}
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert main(["forward", "--preset", "paper-peanut", "--out", out]) == 0
        cfg = tmp_path / f"{run}.ini"
        cfg.write_text("[experiment]\nshape = peanut\n[noise]\ndelta = 0.1\nseed = 11\n")
        assert main(["image", f"{out}/farfield_peanut.txt", "--config", str(cfg),
                     "--out", out]) == 0
        files[run] = (
            (tmp_path / run / "farfield_peanut.txt").read_bytes(),
            (tmp_path / run / "grid_ip.csv").read_bytes(),
        )
    ok = files["a"] == files["b"]
    _report(8, "determinism", ok,
            "far-field and grid files byte-identical across reruns")
