"""Numerical verification of the analytic structure behind the method.

Three families of checks, none of which needs external reference data:

  1. the circle average of a plane wave reduces to a zeroth-order Bessel
     function (spectrally accurate under the trapezoid rule);
  2. the far-field operator satisfies F - F* = (i/4pi) F*F, which also pins
     the two-sided equivalence between the imaging indicators;
  3. the indicators fall off at known algebraic rates in the distance to the
     cavity: rho-th power for the inner-product form, half that for the norm
     form.

The decay check needs many directions; the sampled test vector e^{-ik z.d}
only resolves distances up to about N/(2k). It uses F only through F phi_z,
so the solver applies F to the ring test vectors directly instead of
tabulating a 1024 x 1024 matrix.
"""

import numpy as np

from plate_echo import (
    ScatteringSolver,
    assemble_far_field_matrix,
    check_decay_slope,
    check_equivalence_chain,
    check_funk_hecke,
    check_operator_identity,
    make_curve,
)

k = 4.0
star = make_curve("star")

print("circle-average identity (residual vs direction count, separation k|x-z| = 6):")
for n in (8, 12, 16, 24, 32):
    res = check_funk_hecke(1.0, (6.0, 0.0), (0.0, 0.0), n)
    print(f"  N={n:3d}: {res:.3e}")

print("\noperator identity residual vs quadrature size (star, N=64):")
for nodes in (32, 64, 128, 256):
    ff = assemble_far_field_matrix(star, k, 64, nodes)
    print(f"  2n={nodes:3d}: {check_operator_identity(ff).value:.3e}")

ff = assemble_far_field_matrix(star, k, 64, 128)
zs = np.random.default_rng(0).uniform(-4, 4, size=(100, 2))
print(f"\ntwo-sided equivalence slack over 100 points: "
      f"{check_equivalence_chain(ff, zs):.2e}")

print("\nindicator decay slopes (1024 directions, radii 10..100):")
big = ScatteringSolver(star, k, 128).far_field_operator(1024)
radii = np.geomspace(10.0, 100.0, 12)
whiches, rhos = ("ip", "ip", "norm", "norm"), (1.0, 2.0, 1.0, 2.0)
slopes = check_decay_slope(big, whiches, rhos, radii)       # all four from one pass over the rings
for which, rho, slope in zip(whiches, rhos, slopes):
    expected = -rho if which == "ip" else -rho / 2
    print(f"  {which:4s} rho={rho:g}: slope {slope:+.3f} (theory {expected:+.1f})")
