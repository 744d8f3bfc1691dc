"""Forward scattering: from a cavity shape to the multi-static far-field matrix.

Walks through the basic pipeline: build a boundary curve, set up a solver
that discretizes, assembles and LU-factors the boundary integral system once,
solve for the right-hand side of one incident plane wave, then produce the
full 64x64 multi-static matrix from the same factorization, read far-field
values off it and save it in the text format the CLI uses.
"""

import numpy as np

from plate_echo import ScatteringSolver, make_curve, save_farfield
from plate_echo.forward import incident_trace
from plate_echo.verify import check_operator_identity

k = 4.0
star = make_curve("star")          # r(t) = 1.5 (1 + 0.3 cos 4t)
print(f"shape: {star.kind}, params {star.params}, diameter {star.diameter():.3f}")

# one discretization, assembly and factorization, reused by every solve below
solver = ScatteringSolver(star, k, n_nodes=128)
size, m = 2 * solver.disc.n_nodes, solver.group
print(f"system: {size}x{size}, split by the star's {m}-fold symmetry into {m} systems of {size // m}")

d = np.array([1.0, 0.0])
phi1, phi2 = solver.solve(incident_trace(solver.disc, k, d[None]))
print(f"densities solved for d = {d}; |phi1| max = {np.abs(phi1).max():.3f}")

# the full multi-static matrix: 64 more solves on the same factorization
ff = solver.far_field_matrix(64)
print(f"\nmulti-static matrix: {ff.n_dirs}x{ff.n_dirs}, |F| max = {np.abs(ff.entries).max():.2f}")

# column 0 is the incidence d = (1, 0); row i observes at angle 2 pi i / 64
for i in (0, 16, 32):
    print(f"  u_inf(angle {2 * np.pi * i / ff.n_dirs:4.2f}) = {ff.entries[i, 0]:.6f}")

# a built-in correctness probe needing no reference data: the far-field
# operator identity F - F* = (i/4pi) F*F, discretized with weight 2pi/N
report = check_operator_identity(ff, tolerance=1e-2)
print(report.line())

save_farfield(ff, "farfield_star.txt")
print("wrote farfield_star.txt")
