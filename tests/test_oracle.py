"""Mode-matching disk solution: boundary conditions, symmetry, normalization."""

import numpy as np
import pytest

from plate_echo.oracle import _far_field, _mode_ratios, disk_far_field_matrix, scattered_field
from plate_echo.specfun import (
    bessel_j,
    bessel_k,
    bessel_k_deriv,
    hankel1,
    hankel1_deriv,
)
from plate_echo.verify import check_operator_identity

A, K = 1.0, 4.0
ORDER = 26


@pytest.fixture(scope="module")
def ratios():
    ra, rb, _ = _mode_ratios(A, K, ORDER)
    return ra, rb


def far_field(ra, xhat, d):
    """u_inf(xhat, d) for one pair of unit vectors."""
    return complex(_far_field(ra, [np.arctan2(xhat[1], xhat[0])], [np.arctan2(d[1], d[0])])[0, 0])


def test_mode_rows_residual(ratios):
    ra, rb = ratios
    z = K * A
    for idx, n in enumerate(range(-ORDER, ORDER + 1)):
        c = (1j) ** n  # theta_d = 0
        a_n, b_n = c * ra[idx], c * rb[idx]
        r1 = c * bessel_j(n, z) + a_n * hankel1(n, z) + b_n * bessel_k(n, z)
        r2 = (
            c * hankel1_deriv(n, z).real
            + a_n * hankel1_deriv(n, z)
            + b_n * bessel_k_deriv(n, z)
        )
        assert abs(r1) < 1e-13
        assert abs(r2) < 1e-13


def test_axis_symmetry(ratios):
    # incidence along +x: the field is mirror-symmetric in y, i.e. the
    # coefficients on the absolute-order radial basis H_|n| pair up evenly
    # (with signed-order functions that reads a_{-n} = (-1)^n a_n)
    a_coef = (1j) ** np.arange(-ORDER, ORDER + 1) * ratios[0]
    for m in range(1, ORDER + 1):
        assert a_coef[ORDER - m] == pytest.approx(
            (-1.0) ** m * a_coef[ORDER + m], rel=1e-12, abs=1e-300
        )
    th = np.linspace(0.1, np.pi - 0.1, 9)
    up, _ = scattered_field(A, K, (1.0, 0.0), 1.5 * np.stack([np.cos(th), np.sin(th)], axis=-1))
    dn, _ = scattered_field(A, K, (1.0, 0.0), 1.5 * np.stack([np.cos(th), -np.sin(th)], axis=-1))
    assert np.allclose(up, dn, rtol=1e-12)


def test_clamped_conditions_on_boundary():
    th = 2 * np.pi * np.arange(100) / 100
    pts = A * np.stack([np.cos(th), np.sin(th)], axis=-1)
    u_inc = np.exp(1j * K * pts[:, 0])
    du_inc = 1j * K * np.cos(th) * u_inc
    u_scat, du_scat = scattered_field(A, K, (1.0, 0.0), pts)
    assert np.abs(u_inc + u_scat).max() < 1e-10
    assert np.abs(du_inc + du_scat).max() < 1e-9


def test_rotational_invariance(ratios):
    beta = 0.83
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    d = np.array([np.cos(0.2), np.sin(0.2)])
    xh = np.array([np.cos(1.4), np.sin(1.4)])
    ra = ratios[0]
    assert far_field(ra, rot @ xh, rot @ d) == pytest.approx(far_field(ra, xh, d), rel=1e-12)


def test_far_field_normalization_by_large_radius_quotient(ratios):
    # evaluate the series far out and divide by the radiation prefactor
    R = 1e4
    xh = np.array([np.cos(0.7), np.sin(0.7)])
    u = scattered_field(A, K, (1.0, 0.0), (R * xh)[None, :])[0][0]
    pref = np.exp(1j * np.pi / 4) / np.sqrt(8 * np.pi * K) * np.exp(1j * K * R) / np.sqrt(R)
    u_inf = far_field(ratios[0], xh, (1.0, 0.0))
    assert abs(u / pref - u_inf) / abs(u_inf) < 1e-3


def test_point_symmetry(ratios):
    xh = np.array([np.cos(2.2), np.sin(2.2)])
    ra = ratios[0]
    assert far_field(ra, -xh, (-1.0, 0.0)) == pytest.approx(far_field(ra, xh, (1.0, 0.0)), rel=1e-12)


def test_truncation_stability(ratios):
    xh = d = (1.0, 0.0)
    deep, _, _ = _mode_ratios(A, K, 2 * ORDER)
    assert abs(far_field(deep, xh, d) - far_field(ratios[0], xh, d)) < 1e-13


def test_radius_precondition():
    with pytest.raises(ValueError):
        disk_far_field_matrix(-1.0, K, 32)


def test_mode_amplitudes_on_identity_circle(ratios):
    # per-mode consequence of the far-field operator identity: each far-field
    # mode amplitude mu_n = -4i a_n/c_n satisfies |mu_n - 2i| = 2
    mu = -4j * ratios[0]
    assert np.abs(np.abs(mu - 2j) - 2.0).max() < 1e-12


def test_oracle_matrix_identity_residual():
    ff = disk_far_field_matrix(A, K, 64)
    assert check_operator_identity(ff).value < 1e-6


@pytest.mark.parametrize("k", [16.0, 20.0, 30.0])
def test_oracle_matrix_identity_at_higher_frequency(k):
    # the order grows until the mode tail converges (ceil(ka)+24 alone fails here)
    ff = disk_far_field_matrix(A, k, 128)
    assert check_operator_identity(ff).value < 1e-6


def test_default_order_kept_where_it_converges():
    ra, _, _ = _mode_ratios(A, K, int(np.ceil(K * A)) + 24)
    theta = 2.0 * np.pi * np.arange(32) / 32
    assert np.array_equal(disk_far_field_matrix(A, K, 32).entries, _far_field(ra, theta, theta))


def test_oracle_matrix_is_circulant():
    ff = disk_far_field_matrix(A, K, 32)
    e = ff.entries
    for s in (1, 5):
        assert np.allclose(np.roll(np.roll(e, s, 0), s, 1), e, atol=1e-12)
