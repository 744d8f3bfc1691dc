"""Closed-form scattering solution for a clamped circular cavity.

Independent ground truth for the integral-equation solver. For a disk of
radius a centered at the origin and a plane wave exp(ik x.d), expand
everything in angular modes e^{in theta}. The incident wave contributes
c_n J_n(kr) with c_n = i^n e^{-in theta_d}; the scattered field is

    u_scat(r, th) = sum_n [ a_n H^(1)_n(kr) + b_n K_n(kr) ] e^{in th},

the propagating part carried by the Hankel terms and the evanescent part by
the K-Bessel terms. The clamped conditions u = 0 and du/dr = 0 at r = a give
one 2x2 system per mode:

    a_n H_n(ka)  + b_n K_n(ka)  = -c_n J_n(ka)
    a_n H_n'(ka) + b_n K_n'(ka) = -c_n J_n'(ka).

Per mode the ratios a_n/c_n, b_n/c_n are direction independent, so one solve
serves all incident directions.

Far field: with the amplitude normalization fixed by

    u_scat = (e^{i pi/4} / sqrt(8 pi k)) (e^{ik|x|} / sqrt|x|) (u_inf + O(1/|x|)),

the large-argument Hankel asymptotics give a mode-n far-field factor of
-4i (-i)^n, i.e.

    u_inf(xhat, d) = -4i sum_n (a_n/c_n) e^{in (th_x - th_d)}.

The constant was frozen only after passing the large-radius quotient test
(evaluate the series at |x| = 1e4, divide by the prefactor, compare), which
the test suite repeats. The K-Bessel part decays exponentially and never
reaches the far field.
"""

from __future__ import annotations

import numpy as np

from .farfield import FarFieldMatrix, uniform_directions
from .specfun import bessel_k, bessel_k_deriv, hankel1, hankel1_deriv


MODE_TAIL_TOL = 1e-12
ORDER_STEP = 4
MAX_ORDER_STEPS = 16


def _mode_ratios(a: float, k: float, order: int):
    """Direction-independent mode responses (ra_n, rb_n) = (a_n, b_n)/c_n and the mode tail.

    H, H', K and K' come from specfun at orders 0..order; J and J' are the
    real parts of H and H'.
    """
    z = k * a
    n = np.arange(order + 1)
    H, Hp = hankel1(n, z), hankel1_deriv(n, z)
    K, Kp = bessel_k(n, z), bessel_k_deriv(n, z)
    J, Jp = H.real, Hp.real
    det = H * Kp - Hp * K
    if np.any(np.abs(det) == 0.0) or np.any(~np.isfinite(det)):
        raise RuntimeError("singular clamped-disk mode system (determinant underflow)")
    ra = (Jp * K - J * Kp) / det
    rb = (Hp * J - H * Jp) / det
    # boundary contribution of the top retained mode
    tail = abs(ra[-1] * H[-1]) + abs(rb[-1] * K[-1])
    # Under n -> -n the J/H factors flip sign like (-1)^n while K does not:
    # the ra numerator and the determinant flip coherently (ra even), but the
    # rb numerator flips twice, so rb picks up (-1)^n.
    sign = (-1.0) ** n
    full = np.concatenate([ra[:0:-1], ra])
    fullb = np.concatenate([(sign * rb)[:0:-1], rb])
    return full, fullb, tail


def _converged_modes(a: float, k: float):
    """(order, ra, rb) for the disk, raising unless the mode tail is below MODE_TAIL_TOL.

    The order starts at ceil(ka) + 24 and grows by ORDER_STEP until the tail
    converges, giving up after MAX_ORDER_STEPS steps.
    """
    if a <= 0 or k <= 0:
        raise ValueError("the disk problem requires a > 0 and k > 0")
    start = int(np.ceil(k * a)) + 24
    for order in range(start, start + (MAX_ORDER_STEPS + 1) * ORDER_STEP, ORDER_STEP):
        ra, rb, tail = _mode_ratios(a, k, order)
        if tail <= MODE_TAIL_TOL:
            return order, ra, rb
    raise RuntimeError(
        f"mode tail not converged: top-mode boundary contribution {tail:.3e} > {MODE_TAIL_TOL:g}"
    )


def scattered_field(a: float, k: float, d, points):
    """Scattered field u and its radial derivative du/dr at |x| >= a, for incident direction d.

    Each cylinder family is one specfun call over all orders and points.
    """
    order, ra, rb = _converged_modes(a, k)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(r < a * (1 - 1e-12)):
        raise ValueError("scattered_field is defined for |x| >= a")
    n = np.arange(-order, order + 1)[:, None]
    ra, rb = ra[:, None], rb[:, None]
    # c_n e^{in theta} with c_n = i^n e^{-in theta_d}
    phase = (1j) ** n * np.exp(1j * n * (np.arctan2(pts[:, 1], pts[:, 0]) - np.arctan2(d[1], d[0])))
    kr = k * r
    u = (phase * (ra * hankel1(n, kr) + rb * bessel_k(n, kr))).sum(axis=0)
    du = (phase * (ra * hankel1_deriv(n, kr) + rb * bessel_k_deriv(n, kr))).sum(axis=0)
    return u, k * du


def _far_field(ra, theta_x, theta_d):
    """-4i sum_n ra_n e^{in (theta_x - theta_d)} for every pair (theta_x[i], theta_d[j])."""
    order = (len(ra) - 1) // 2
    n = np.arange(-order, order + 1)
    Ux = np.exp(1j * np.outer(theta_x, n))
    Ud = np.exp(1j * np.outer(theta_d, n))
    return (Ux * (-4j * ra)) @ Ud.conj().T


def disk_far_field_matrix(a: float, k: float, n_dirs: int) -> FarFieldMatrix:
    """Multi-static far-field matrix of the clamped disk on uniform directions.

    Entries u_inf(xhat_i, d_j) for theta_i = 2 pi i / n_dirs. Uses the
    direction-independent mode responses, so one mode solve serves every
    direction.
    """
    _, ra, _ = _converged_modes(a, k)
    theta = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    return FarFieldMatrix(
        k=float(k),
        directions=uniform_directions(n_dirs),
        entries=_far_field(ra, theta, theta),
        shape_kind="circle",
    )
