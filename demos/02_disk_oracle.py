"""Closed-form disk solution as ground truth for the integral-equation solver.

For a circular cavity the clamped scattering problem separates into angular
modes and solves in closed form. This script reads the far-field mode
amplitudes off the closed-form matrix, checks the operator identity on it,
and compares the solver's far-field matrix against the closed form entry by
entry. (tests/test_oracle.py checks the clamped boundary conditions and the
far-field normalization by a large-radius quotient.)
"""

import numpy as np

from plate_echo import (
    assemble_far_field_matrix,
    check_operator_identity,
    disk_far_field_matrix,
    make_curve,
)

a, k, N = 1.0, 4.0, 64
oracle = disk_far_field_matrix(a, k, N)

# the matrix is circulant, so one column's discrete Fourier transform gives
# the far-field mode amplitudes mu_n; each lies on the circle |mu - 2i| = 2,
# the per-mode form of the operator identity
mu = np.fft.fft(oracle.entries[:, 0]) / N
print(f"mode amplitudes on identity circle: max dev {np.abs(np.abs(mu - 2j) - 2).max():.2e}")
print(f"operator identity residual: {check_operator_identity(oracle).value:.2e}")

# the two independent solution paths agree entry by entry
bie = assemble_far_field_matrix(make_curve("circle", (a,)), k, N, 128)
rel = np.abs(bie.entries - oracle.entries).max() / np.abs(oracle.entries).max()
print(f"integral-equation vs closed form, entrywise relative: {rel:.2e}")
