"""Mode-matching disk solution: boundary conditions, symmetry, normalization."""

import numpy as np
import pytest

from plate_echo.oracle import (
    disk_far_field,
    disk_far_field_matrix,
    scattered_field,
    solve_disk,
)
from plate_echo.specfun import (
    bessel_j,
    bessel_k,
    bessel_k_deriv,
    hankel1,
    hankel1_deriv,
)
from plate_echo.verify import check_operator_identity

A, K = 1.0, 4.0


@pytest.fixture(scope="module")
def sol():
    return solve_disk(A, K, 26, (1.0, 0.0))


def test_mode_rows_residual(sol):
    z = K * A
    for idx, n in enumerate(sol.modes()):
        c = (1j) ** n  # theta_d = 0
        r1 = c * bessel_j(n, z) + sol.a_coef[idx] * hankel1(n, z) + sol.b_coef[idx] * bessel_k(n, z)
        r2 = (
            c * hankel1_deriv(n, z).real
            + sol.a_coef[idx] * hankel1_deriv(n, z)
            + sol.b_coef[idx] * bessel_k_deriv(n, z)
        )
        assert abs(r1) < 1e-13
        assert abs(r2) < 1e-13


def test_axis_symmetry(sol):
    # incidence along +x: the field is mirror-symmetric in y, i.e. the
    # coefficients on the absolute-order radial basis H_|n| pair up evenly
    # (with signed-order functions that reads a_{-n} = (-1)^n a_n)
    n = sol.order
    for m in range(1, n + 1):
        assert sol.a_coef[n - m] == pytest.approx(
            (-1.0) ** m * sol.a_coef[n + m], rel=1e-12, abs=1e-300
        )
    th = np.linspace(0.1, np.pi - 0.1, 9)
    up = scattered_field(sol, 1.5 * np.stack([np.cos(th), np.sin(th)], axis=-1))
    dn = scattered_field(sol, 1.5 * np.stack([np.cos(th), -np.sin(th)], axis=-1))
    assert np.allclose(up, dn, rtol=1e-12)


def test_clamped_conditions_on_boundary(sol):
    th = 2 * np.pi * np.arange(100) / 100
    pts = A * np.stack([np.cos(th), np.sin(th)], axis=-1)
    u_inc = np.exp(1j * K * pts[:, 0])
    du_inc = 1j * K * np.cos(th) * u_inc
    u = u_inc + scattered_field(sol, pts)
    du = du_inc + scattered_field(sol, pts, radial_derivative=True)
    assert np.abs(u).max() < 1e-10
    assert np.abs(du).max() < 1e-9


def test_rotational_invariance():
    beta = 0.83
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    d = np.array([np.cos(0.2), np.sin(0.2)])
    xh = np.array([np.cos(1.4), np.sin(1.4)])
    s1 = solve_disk(A, K, 26, d)
    s2 = solve_disk(A, K, 26, rot @ d)
    assert disk_far_field(s2, rot @ xh) == pytest.approx(disk_far_field(s1, xh), rel=1e-12)


def test_far_field_normalization_by_large_radius_quotient(sol):
    # evaluate the series far out and divide by the radiation prefactor
    R = 1e4
    xh = np.array([np.cos(0.7), np.sin(0.7)])
    u = scattered_field(sol, (R * xh)[None, :])[0]
    pref = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * K) * np.exp(1j * K * R) / np.sqrt(R)
    assert abs(u / pref - disk_far_field(sol, xh)) / abs(disk_far_field(sol, xh)) < 1e-3


def test_point_symmetry(sol):
    xh = np.array([np.cos(2.2), np.sin(2.2)])
    s_neg = solve_disk(A, K, 26, (-1.0, 0.0))
    assert disk_far_field(s_neg, -xh) == pytest.approx(disk_far_field(sol, xh), rel=1e-12)


def test_truncation_stability(sol):
    xh = np.array([1.0, 0.0])
    deep = solve_disk(A, K, 52, (1.0, 0.0))
    assert abs(disk_far_field(deep, xh) - disk_far_field(sol, xh)) < 1e-13


def test_order_precondition():
    with pytest.raises(ValueError):
        solve_disk(A, K, 10, (1.0, 0.0))
    with pytest.raises(ValueError):
        solve_disk(-1.0, K, 26, (1.0, 0.0))


def test_mode_amplitudes_on_identity_circle(sol):
    # per-mode consequence of the far-field operator identity: each far-field
    # mode amplitude mu_n = -4i a_n/c_n satisfies |mu_n - 2i| = 2
    mu = -4j * sol.reflect
    assert np.abs(np.abs(mu - 2j) - 2.0).max() < 1e-12


def test_oracle_matrix_identity_residual():
    ff = disk_far_field_matrix(A, K, 64)
    assert check_operator_identity(ff).value < 1e-6


@pytest.mark.parametrize("k", [16.0, 20.0, 30.0])
def test_oracle_matrix_identity_at_higher_frequency(k):
    # the default order grows until the mode tail converges (ceil(ka)+24 alone fails here)
    ff = disk_far_field_matrix(A, k, 128)
    assert check_operator_identity(ff).value < 1e-6


def test_default_order_kept_where_it_converges():
    assert np.array_equal(
        disk_far_field_matrix(A, K, 32).entries,
        disk_far_field_matrix(A, K, 32, order=int(np.ceil(K * A)) + 24).entries,
    )


def test_oracle_matrix_is_circulant():
    ff = disk_far_field_matrix(A, K, 32)
    e = ff.entries
    for s in (1, 5):
        assert np.allclose(np.roll(np.roll(e, s, 0), s, 1), e, atol=1e-12)
