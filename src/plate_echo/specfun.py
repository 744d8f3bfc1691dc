"""Cylinder functions: the one kernel-evaluation layer of the package.

Every Bessel-family value the solver and the disk oracle use comes from here;
no other module calls scipy.special. The layer is thin: arguments are
validated (out-of-domain raises instead of returning NaN), negative integer
orders are folded onto nonnegative ones through the reflection identities

    J_{-n} = (-1)^n J_n,   Y_{-n} = (-1)^n Y_n,   K_{-n} = K_n,   I_{-n} = I_n,

orders 0 and 1 use scipy's fixed-order routines (j0/j1, y0/y1, i0/i1,
k0e/k1e), which are about ten times cheaper on large arrays than the generic
jv/yv/iv/kve used for other orders, and H^(1)_n = J_n + i Y_n is built from
the two real parts, so its real part is exactly J_n. Derivatives use the
standard recurrences

    f_n'(t) = (f_{n-1}(t) - f_{n+1}(t)) / 2        for f in {J, H^(1)},
    K_n'(t) = -(K_{n-1}(t) + K_{n+1}(t)) / 2.

Note the minus sign in the oscillatory-family recurrence; a plus-sign variant
that circulates in some references is incorrect and is deliberately not used.

An order may also be an integer array, broadcast against t; each family is
then one call per routine, with orders 0 and 1 still taken from the
fixed-order routines, so every value equals the one-order call's bit for bit.

Routines are looked up through the module name `sp` at call time, so a
stand-in for scipy.special assigned to `specfun.sp` sees every evaluation.

Intended range: |n| <= 64, t in (0, 1000]; values are accurate to ~1e-12
absolute there. K_n underflows cleanly to 0 for large t.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

EULER_GAMMA = float(np.euler_gamma)


def _reflect(n, value):
    """Apply the (-1)^n factor of J_{-n} and Y_{-n}."""
    n = np.asarray(n)
    flip = (n < 0) & (n % 2 == 1)
    if n.ndim:
        return np.where(flip, -value, value)
    return -value if flip else value


def _by_order(m, t, fixed, generic):
    """Value at order(s) m >= 0: fixed[m](t) for orders 0 and 1, generic(m, t) above.

    m may be an integer array; it then broadcasts against t.
    """
    if np.ndim(m):
        return np.where(m == 0, fixed[0](t), np.where(m == 1, fixed[1](t), generic(m, t)))
    return fixed[m](t) if m < 2 else generic(m, t)


def bessel_j(n, t):
    """Bessel function of the first kind J_n(t), t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("bessel_j requires t >= 0")
    return _reflect(n, _by_order(np.abs(n), t, (sp.j0, sp.j1), sp.jv))


def bessel_y(n, t):
    """Bessel function of the second kind Y_n(t), t > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("bessel_y requires t > 0")
    return _reflect(n, _by_order(np.abs(n), t, (sp.y0, sp.y1), sp.yv))


def bessel_i(n, t):
    """Modified Bessel function of the first kind I_n(t), t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("bessel_i requires t >= 0")
    return _by_order(np.abs(n), t, (sp.i0, sp.i1), sp.iv)


def bessel_k(n, t):
    """Modified Bessel function of the second kind K_n(t), t > 0.

    Strictly positive and strictly decreasing in t; returns 0 once e^{-t}
    underflows (t beyond ~745). Evaluated through the exponentially scaled
    form so accuracy holds all the way down to that limit (plain kv gives up
    around t = 700).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("bessel_k requires t > 0")
    return _by_order(np.abs(n), t, (sp.k0e, sp.k1e), sp.kve) * np.exp(-t)


def hankel1(n, t):
    """Hankel function of the first kind H^(1)_n(t) = J_n(t) + i Y_n(t), t > 0."""
    return bessel_j(n, t) + 1j * bessel_y(n, t)


def bessel_j_deriv(n, t):
    return 0.5 * (bessel_j(n - 1, t) - bessel_j(n + 1, t))


def hankel1_deriv(n, t):
    return 0.5 * (hankel1(n - 1, t) - hankel1(n + 1, t))


def bessel_k_deriv(n, t):
    return -0.5 * (bessel_k(n - 1, t) + bessel_k(n + 1, t))
