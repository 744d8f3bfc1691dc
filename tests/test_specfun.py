"""Cylinder functions against independent high-precision oracles."""

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from plate_echo.specfun import (
    bessel_i,
    bessel_j,
    bessel_k,
    bessel_k_deriv,
    bessel_y,
    erfc,
    hankel1,
    hankel1_deriv,
)

# first positive zero of J_0, located by bisection on the power series below
J0_FIRST_ZERO = 2.404825557695773


def j_deriv(n, t):
    """J_n'(t) as the real part of H_n'(t), the recurrence on J bit for bit."""
    return hankel1_deriv(n, t).real


def j0_power_series(x, terms=60):
    """Independent arbitrary-precision oracle: J_0 as its power series."""
    x = mpmath.mpf(x)
    s = term = mpmath.mpf(1)
    for m in range(1, terms):
        term *= -((x / 2) ** 2) / mpmath.mpf(m) ** 2
        s += term
    return s


class TestBesselJ:
    def test_origin_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(5, 0.0) == 0.0

    def test_first_zero_against_series_oracle(self):
        mpmath.mp.dps = 40
        lo, hi = mpmath.mpf(2), mpmath.mpf(3)
        for _ in range(120):
            mid = (lo + hi) / 2
            if j0_power_series(lo) * j0_power_series(mid) <= 0:
                hi = mid
            else:
                lo = mid
        oracle_zero = float((lo + hi) / 2)
        assert oracle_zero == pytest.approx(J0_FIRST_ZERO, abs=1e-14)
        assert abs(bessel_j(0, J0_FIRST_ZERO)) < 1e-10
        root = brentq(lambda t: bessel_j(0, t), 2.0, 3.0, xtol=1e-14)
        assert root == pytest.approx(oracle_zero, abs=1e-12)

    def test_negative_order_reflection(self):
        t = 3.7
        assert bessel_j(-3, t) == -bessel_j(3, t)
        assert bessel_j(-4, t) == bessel_j(4, t)

    def test_accuracy_at_range_edges(self):
        mpmath.mp.dps = 50
        for n, t in [(0, 1e-3), (0, 5.0), (0, 1000.0), (1, 1e-3), (1, 5.0), (1, 1000.0),
                     (32, 500.0), (64, 1000.0), (64, 64.0), (80, 40.0), (96, 64.0)]:
            assert abs(bessel_j(n, t) - float(mpmath.besselj(n, t))) < 1e-12

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)


class TestBesselY:
    def test_log_divergence_at_origin(self):
        assert bessel_y(0, 1e-6) < -8.0

    def test_against_mpmath(self):
        mpmath.mp.dps = 50
        for n, t in [(0, 1.0), (0, 0.001), (1, 0.001), (1, 5.0), (1, 1000.0), (3, 5.0),
                     (8, 20.0), (32, 50.0), (64, 1.0), (64, 1000.0), (0, 1000.0), (80, 40.0),
                     (96, 64.0)]:
            assert bessel_y(n, t) == pytest.approx(float(mpmath.bessely(n, t)), rel=1e-10)

    def test_wronskian_n3_t5(self):
        # J H' - J' H = i (J Y' - J' Y) = 2i / (pi t)
        t = 5.0
        w = bessel_j(3, t) * hankel1_deriv(3, t) - hankel1_deriv(3, t).real * hankel1(3, t)
        assert w == pytest.approx(2j / (np.pi * t), rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_y(0, 0.0)
        with pytest.raises(ValueError):
            bessel_y(2, -1.0)


class TestBesselK:
    def test_monotone_decay(self):
        vals = [bessel_k(0, t) for t in (1.0, 2.0, 3.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_against_quadrature_oracle(self):
        # K_0(t) = int_0^inf exp(-t cosh s) ds
        for t in (0.5, 1.0, 3.0):
            oracle, err = quad(lambda s: np.exp(-t * np.cosh(s)), 0.0, 40.0, limit=200)
            assert err < 1e-9  # conservative quad estimate; actual agreement below
            assert bessel_k(0, t) == pytest.approx(oracle, rel=1e-12)

    def test_asymptotic_leading_order(self):
        # K_0(t) ~ sqrt(pi/(2t)) e^{-t}
        assert bessel_k(0, 50.0) * np.exp(50.0) * np.sqrt(50.0 / (np.pi / 2)) == pytest.approx(
            1.0, abs=1e-2
        )

    def test_underflow_to_zero(self):
        assert bessel_k(0, 800.0) == 0.0

    def test_accuracy_across_contract_range(self):
        mpmath.mp.dps = 50
        for n, t in [(0, 1e-3), (0, 700.0), (1, 1e-3), (1, 700.0), (64, 1e-3), (64, 700.0),
                     (32, 350.0), (80, 40.0), (96, 64.0)]:
            exact = mpmath.besselk(n, t)
            rel = abs((bessel_k(n, t) - float(exact)) / float(exact))
            assert rel < 1e-12, f"K_{n}({t}): rel err {rel:.2e}"

    def test_bridges_to_hankel_of_imaginary_argument(self):
        # K_0(t) = (i pi / 2) H^(1)_0(i t), against scipy's complex Hankel routine
        import scipy.special as sp

        for t in (0.5, 2.0, 7.0):
            assert bessel_k(0, t) == pytest.approx(0.5j * np.pi * sp.hankel1(0, 1j * t), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_k(1, 0.0)


class TestBesselI:
    def test_against_mpmath(self):
        mpmath.mp.dps = 50
        for n, t in [(0, 1e-3), (0, 5.0), (0, 700.0), (1, 1e-3), (1, 5.0), (1, 700.0),
                     (5, 20.0), (64, 100.0), (80, 40.0), (96, 64.0)]:
            assert bessel_i(n, t) == pytest.approx(float(mpmath.besseli(n, t)), rel=1e-12)

    def test_negative_order_symmetry(self):
        assert bessel_i(-1, 2.5) == bessel_i(1, 2.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)


class TestErfc:
    def test_against_mpmath(self):
        # the solver's window evaluates erfc((tau - a)/sigma) on [-5, 5 (pi/a - 1)]
        mpmath.mp.dps = 50
        t = np.array([-5.0, -1.3, -1e-3, 0.0, 0.4, 1.0, 3.7, 5.0, 12.5, 26.0])
        ref = [float(mpmath.erfc(mpmath.mpf(x))) for x in t]
        assert np.allclose(erfc(t), ref, rtol=1e-13, atol=0)
        assert erfc(0.0) == 1.0

    def test_tails(self):
        t = np.linspace(0.0, 6.0, 61)
        assert np.allclose(erfc(-t) + erfc(t), 2.0, rtol=0, atol=1e-15)
        assert erfc(40.0) == 0.0 and erfc(-40.0) == 2.0


class TestHankel1:
    def test_h1_is_j_plus_iy(self):
        # exact: H is built from the two real parts
        t = np.geomspace(1e-3, 1000.0, 200)
        for n in (-3, -1, 0, 1, 2, 7):
            h = hankel1(n, t)
            assert np.array_equal(h.real, bessel_j(n, t))
            assert np.array_equal(h.imag, bessel_y(n, t))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hankel1(0, 0.0)


class TestArrayOrders:
    def test_match_one_order_calls(self):
        # an integer array of orders gives each single-order value bit for bit,
        # including orders 0 and 1 from the fixed-order routines
        n = np.arange(-6, 9)
        for t in (0.3, 4.0, 37.5):
            for f in (bessel_j, bessel_y, bessel_i, bessel_k, hankel1,
                      j_deriv, bessel_k_deriv, hankel1_deriv):
                assert np.array_equal(f(n, t), [f(int(m), t) for m in n]), f.__name__

    def test_broadcast_against_arguments(self):
        n = np.array([[0], [1], [3]])
        t = np.geomspace(0.1, 50.0, 7)
        for f in (bessel_j, bessel_y, bessel_i, bessel_k):
            assert np.array_equal(f(n, t), np.stack([f(m, t) for m in (0, 1, 3)]))


class TestWronskianAndRecurrences:
    def test_wronskian_sweep(self):
        t = np.geomspace(0.1, 100.0, 40)
        for n in (0, 1, 2, 5, 8, 16, 32):
            w = bessel_j(n, t) * hankel1_deriv(n, t) - hankel1_deriv(n, t).real * hankel1(n, t)
            assert np.max(np.abs(w * (np.pi * t) / 2j - 1.0)) < 1e-12

    def test_three_term_recurrence(self):
        t = np.geomspace(0.5, 200.0, 30)
        for n in range(1, 20):
            for f in (bessel_j, bessel_y):
                lhs = f(n + 1, t)
                rhs = (2.0 * n / t) * f(n, t) - f(n - 1, t)
                scale = np.maximum.reduce([np.abs(f(m, t)) for m in (n - 1, n, n + 1)])
                assert np.max(np.abs(lhs - rhs) / scale) < 1e-10
            lhs = bessel_k(n + 1, t)
            rhs = (2.0 * n / t) * bessel_k(n, t) + bessel_k(n - 1, t)
            ok = lhs > 0
            assert np.max(np.abs(lhs - rhs)[ok] / lhs[ok]) < 1e-10

    def test_derivatives_match_central_differences(self):
        rng = np.random.default_rng(7)
        pairs = list(zip(rng.integers(0, 16, 100), rng.uniform(1.0, 60.0, 100)))
        h = 1e-6
        fns = [
            (bessel_j, j_deriv),
            (bessel_k, bessel_k_deriv),
            (hankel1, hankel1_deriv),
        ]
        for n, t in pairs:
            n = int(n)
            for f, df in fns:
                fd = (f(n, t + h) - f(n, t - h)) / (2.0 * h)
                d = df(n, t)
                assert abs(fd - d) <= 1e-6 * max(abs(d), 0.1)
