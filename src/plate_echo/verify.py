"""Numerical checks of the analytic structure of the far-field operator.

Everything here ties computed far-field data back to continuum statements
with no external reference values. With w = 2 pi / N the uniform quadrature
weight on the direction circle, the data matrix F approximates the integral
operator as w F, and the checks read:

  * circle-average identity: (2pi/N) sum_j e^{ik(x-z).d_j} = 2 pi J_0(k|x-z|)
    up to spectrally small aliasing;
  * operator identity: F - F^H = (i/4pi) w F^H F, measured as a relative
    Frobenius residual (exact in the continuum for noiseless data);
  * two-sided equivalence, with ip_w = w^2 |phi_z^H F phi_z| and
    nrm2_w = w^3 ||F phi_z||^2 approximating the L2 quantities:
        (1/8pi) nrm2_w <= ip_w      and      ip_w <= sqrt(2pi) sqrt(nrm2_w),
    reported as the largest multiplicative slack (1 + eps) needed;
  * indicator decay: the angular average of the 'ip' ('norm') indicator at
    radius r falls like r^{-rho} (r^{-rho/2}); measured as a log-log
    least-squares slope. Angular averaging (DECAY_RING_SAMPLES per radius)
    suppresses the Bessel oscillation that makes single rays non-monotone.
    The sampled test vectors resolve the radial oscillation only while
    k r < N/2, so decay checks need enough directions for the outermost
    radius (guidance: min radius >= 3 cavity diameters, N > 2 k max-radius).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .farfield import FarFieldMatrix, uniform_directions
from .geometry import ParametricCurve
from .imaging import ImagingGrid, indicator_values, phi_z
# cmd_verify takes its reference matrix from here, so importing verify loads the
# oracle too: perfbench wraps only the modules that its own imports load
from .oracle import disk_far_field_matrix  # noqa: F401
from .specfun import bessel_j

DECAY_RING_SAMPLES = 32   # points per ring, centred on the origin, in check_decay_slope


@dataclass(frozen=True)
class CheckRecord:
    """One check's outcome; passed iff value <= tolerance, so a NaN value fails."""

    check: str
    shape: str
    k: float
    n_dirs: int
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def line(self) -> str:
        """The machine-readable record printed by the commands; k prints exactly."""
        k = f"{self.k:g}"                               # six digits, unless they lose some
        k = k if float(k) == self.k else repr(float(self.k))
        return (
            f"check={self.check} shape={self.shape or '-'} k={k} N={self.n_dirs} "
            f"value={self.value:.6e} tol={self.tolerance:g} pass={int(self.passed)}"
        )


def check_funk_hecke(k: float, x, z, n_dirs: int) -> float:
    """Residual of the circle average of e^{ik(x-z).d} against 2 pi J_0(k|x-z|)."""
    if n_dirs < 8:
        raise ValueError("n_dirs must be >= 8")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    d = uniform_directions(n_dirs)
    quad = (2.0 * np.pi / n_dirs) * phi_z(k, d, z - x).sum()
    exact = 2.0 * np.pi * bessel_j(0, k * np.linalg.norm(x - z))
    return float(abs(quad - exact))


def check_operator_identity(ff: FarFieldMatrix, tolerance: float = 1e-2) -> CheckRecord:
    """Relative Frobenius residual of F - F^H = (i/4pi) w F^H F, w = 2pi/N; NaN for F = 0."""
    F = ff.entries
    norm = np.linalg.norm(F)
    residual = float("nan")
    if norm != 0.0:
        Fh = F.conj().T
        rhs = Fh @ F
        rhs *= (0.25j / np.pi) * (2.0 * np.pi / ff.n_dirs)    # w = 2 pi / N
        np.subtract(F, Fh, out=Fh)      # F - F^H - rhs, in F^H's buffer
        Fh -= rhs
        residual = float(np.linalg.norm(Fh) / norm)
    return CheckRecord("operator_identity", ff.shape_kind, ff.k, ff.n_dirs, residual, tolerance)


def check_equivalence_chain(ff, sample_points) -> float:
    """Largest slack eps needed for the two-sided indicator equivalence.

    ff is a FarFieldMatrix or a solver's far_field_operator (indicator_values).

    At each z checks (1/8pi)||F phi_z||^2 <= |(phi_z, F phi_z)| (1+eps) and
    |(phi_z, F phi_z)| <= sqrt(2pi) ||F phi_z|| (1+eps) in the weighted
    (L2-approximating) quantities; returns max(eps, 0) over the points.
    """
    w = 2.0 * np.pi / ff.n_dirs
    ip, nrm2 = indicator_values(ff, sample_points, (1.0, 2.0), ("ip", "norm"))
    ip_w = w**2 * ip
    nrm2_w = w**3 * nrm2
    live = (ip_w > 0) | (nrm2_w > 0)
    if not np.any(live):
        return 0.0
    ip_w, nrm2_w = ip_w[live], nrm2_w[live]
    # a vanishing inner product with nonvanishing norm means infinite slack
    with np.errstate(divide="ignore"):
        eps_lower = nrm2_w / (8.0 * np.pi) / ip_w - 1.0
        eps_upper = ip_w / (np.sqrt(2.0 * np.pi) * np.sqrt(nrm2_w)) - 1.0
    return float(max(eps_lower.max(), eps_upper.max(), 0.0))


def check_decay_slope(ff, which, rho, radii):
    """Log-log slope of the angularly averaged indicator vs radius.

    Expected about -rho for 'ip' and -rho/2 for 'norm'. radii must be finite,
    positive and strictly increasing (callers should start well outside the
    cavity). which and rho may also be equal-length sequences: then one slope
    per (which, rho) pair is returned, all from one evaluation of the rings.
    ff is a FarFieldMatrix or a solver's far_field_operator, which needs no
    N x N table for the many directions the outer rings take.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) < 2 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be a strictly increasing sequence")
    bad = radii[~((radii > 0) & (radii < np.inf))]
    if bad.size:
        raise ValueError(f"radii must be finite and > 0, got {bad.tolist()}")
    rings = radii[:, None, None] * uniform_directions(DECAY_RING_SAMPLES)  # (radii, samples, 2)
    values = indicator_values(ff, rings.reshape(-1, 2), rho, which)
    slopes = []
    for vals in [values] if isinstance(which, str) else values:
        means = vals.reshape(len(radii), -1).mean(axis=1)
        if np.any(means <= 0.0):
            raise RuntimeError("decay fit failed: zero indicator average at some radius")
        slopes.append(float(np.polyfit(np.log(radii), np.log(means), 1)[0]))
    return slopes[0] if isinstance(which, str) else slopes


def reconstruction_overlap(grid: ImagingGrid, curve: ParametricCurve, threshold: float) -> float:
    """Jaccard index between {grid >= threshold} and the rasterized cavity."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    above = grid.values.ravel() >= threshold
    inside = curve.contains(grid.points())
    if not above.any() or not inside.any():
        raise ValueError("degenerate overlap: empty thresholded set or empty rasterized cavity")
    union = np.logical_or(above, inside).sum()
    inter = np.logical_and(above, inside).sum()
    return float(inter / union)
