"""Nystrom solver for the clamped-plate scattering problem.

The scattered field is sought as (Helmholtz double layer) + (modified-
Helmholtz single layer) with densities (phi1, phi2). Zero Cauchy data on the
boundary plus the jump relations give the 2x2 block system

    [ K  + I    S~     ] [phi1]      [ u_inc      ]
    [ T         K~' - I] [phi2] = -2 [ dnu u_inc  ],

where, with Phi_k = (i/4) H^(1)_0(k|x-y|) and Phi~_k = (1/2pi) K_0(k|x-y|),

    S~ phi  = 2 int Phi~_k(x,y) phi(y) ds(y)
    K phi   = 2 int dnu(y) Phi_k(x,y) phi(y) ds(y)
    K~'phi  = 2 int dnu(x) Phi~_k(x,y) phi(y) ds(y)
    T phi   = 2 int dnu(x) dnu(y) Phi_k(x,y) phi(y) ds(y).

Discretization: 2n equispaced nodes t_j = j pi/n on [0, 2pi). Each kernel is
split as A(t,s) = A1(t,s) ln(4 sin^2((t-s)/2)) + A2(t,s) with analytic A1, A2
and integrated with the trigonometric product quadrature for the log factor
(weights R_j below) plus the trapezoid rule for the smooth factor. The
hypersingular block T is lowered to weakly singular integrals with the
tangential-derivative identity

    T phi = 2 d/ds int Phi_k phi'(s) ds + 2 k^2 int Phi_k (nu.nu) phi ds,

with both tangential derivatives applied through exact Fourier
differentiation of the trigonometric interpolant. All blocks converge
superalgebraically on analytic boundaries.

Diagonal limits of the smooth parts come from the small-argument expansions

    H^(1)_0(z) = J_0(z) + (2i/pi)(ln(z/2) + gamma) J_0(z) + ...
    K_0(z)     = -(ln(z/2) + gamma) I_0(z) + ...
    K_1(z)     = 1/z + ln(z/2) I_1(z) + ...

and from n(t).(x(t)-x(s)) ~ (1/2) n.x'' (t-s)^2 at coincident points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .geometry import ParametricCurve
from .specfun import EULER_GAMMA, bessel_i, bessel_j, bessel_k, bessel_y

SOLVE_RESIDUAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoundaryDiscretization:
    """Equispaced parameter nodes with precomputed boundary frames."""

    curve: ParametricCurve
    n_nodes: int               # 2n, even
    t: np.ndarray              # (2n,)
    x: np.ndarray              # (2n, 2) positions
    speed: np.ndarray          # (2n,) |x'|
    normal: np.ndarray         # (2n, 2) unit outward
    normal_raw: np.ndarray     # (2n, 2) (x2', -x1'), length |x'|
    curvature_term: np.ndarray # (2n,) n.x'' / |x'|^2

    @property
    def half(self) -> int:
        return self.n_nodes // 2


def discretize(curve: ParametricCurve, n_nodes: int, offset: float = 0.0) -> BoundaryDiscretization:
    """Sample the curve at 2n equispaced nodes (optionally phase-shifted)."""
    if n_nodes < 16 or n_nodes % 2:
        raise ValueError("n_nodes must be an even integer >= 16")
    t = offset + np.pi * np.arange(n_nodes) / (n_nodes // 2)
    x = curve.position(t)
    v = curve.velocity(t)
    a = curve.acceleration(t)
    speed = np.hypot(v[:, 0], v[:, 1])
    nraw = np.stack([v[:, 1], -v[:, 0]], axis=-1)
    ndotxpp = nraw[:, 0] * a[:, 0] + nraw[:, 1] * a[:, 1]
    return BoundaryDiscretization(
        curve=curve,
        n_nodes=n_nodes,
        t=t,
        x=x,
        speed=speed,
        normal=nraw / speed[:, None],
        normal_raw=nraw,
        curvature_term=ndotxpp / speed**2,
    )


@dataclass(frozen=True)
class FarFieldMatrix:
    """Multi-static far-field matrix entry(i,j) = u_inf(xhat_i, d_j)."""

    k: float
    directions: np.ndarray     # (N, 2), theta_i = 2 pi i / N
    entries: np.ndarray        # (N, N) complex
    shape_kind: str = ""

    @property
    def n_dirs(self) -> int:
        return self.entries.shape[0]


def uniform_directions(n_dirs: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


# ---------------------------------------------------------------------------
# quadrature ingredients
# ---------------------------------------------------------------------------
def kress_log_weights(half: int) -> np.ndarray:
    """Weights R_j for int_0^2pi ln(4 sin^2((t-s)/2)) f(s) ds at the nodes.

    R_j = -(2 pi/n) sum_{m=1}^{n-1} cos(m j pi/n)/m - (-1)^j pi/n^2, with n the
    half node count; exact for trigonometric polynomials of degree < n.
    """
    n = half
    j = np.arange(2 * n)
    m = np.arange(1, n)
    c = np.cos(np.pi * np.outer(j, m) / n) @ (1.0 / m)
    return -(2.0 * np.pi / n) * c - (np.pi / n**2) * np.cos(np.pi * j)


# Rows per kernel-evaluation block: ceil(n_nodes / KERNEL_ROW_BLOCKS).
KERNEL_ROW_BLOCKS = 16


def _symmetric_kernel(f, n, x):
    """f(n, x) for a symmetric matrix x and an elementwise f, evaluated once per symmetric pair.

    Each block of rows a:b evaluates f on the contiguous slice x[a:b, a:] and
    mirrors the part right of its diagonal block into the columns below it,
    so the result equals f(n, x) bit for bit at about half the evaluations.
    """
    m = x.shape[0]
    out = np.empty_like(x)
    step = -(-m // KERNEL_ROW_BLOCKS)
    for a in range(0, m, step):
        b = min(a + step, m)
        out[a:b, a:] = f(n, x[a:b, a:])
        out[b:, a:b] = out[a:b, b:].T
    return out


def _maue_product(X):
    """D X D for the Fourier differentiation matrix D on the equispaced nodes.

    D is circulant with symbol i kappa (Nyquist mode dropped) and
    antisymmetric, so differentiating the columns (i kappa_p) and then the rows
    from the right (-i kappa_q) multiplies the 2D spectrum by kappa_p kappa_q.
    """
    m = X.shape[0]
    kappa = np.fft.fftfreq(m, 1.0 / m)
    kappa[m // 2] = 0.0
    return np.fft.ifft2(np.fft.fft2(X) * np.outer(kappa, kappa))


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------
def assemble_system(disc: BoundaryDiscretization, k: float) -> np.ndarray:
    """Dense Nystrom matrix of the 2x2 block operator (4n x 4n).

    The kernels J_0, Y_0, J_1, Y_1, I_0, K_0, I_1 and K_1 of k|x_i - x_j| are
    evaluated once per symmetric node pair. S~ and K~' - I are real, and the
    Helmholtz blocks are split into real and imaginary parts, so every block
    is built in real arithmetic straight into the result.
    """
    if k <= 0:
        raise ValueError("assemble_system requires k > 0")
    m2 = disc.n_nodes
    half = disc.half
    speed = disc.speed
    w = np.pi / half
    diag = np.arange(m2)

    # --- pairwise geometry ---------------------------------------------------
    x1, x2 = disc.x[:, 0], disc.x[:, 1]
    dx1 = x1[:, None] - x1[None, :]
    dx2 = x2[:, None] - x2[None, :]
    r = np.hypot(dx1, dx2)
    # bounding-box diagonal of the nodes: the curve's size without a pairwise scan
    scale = max(float(np.hypot(*np.ptp(disc.x, axis=0))), 1e-30)
    r[diag, diag] = np.inf
    if r.min() < 1e-12 * scale:
        raise RuntimeError("degenerate boundary: coincident quadrature nodes")
    r[diag, diag] = 1.0  # placeholder; diagonals are set explicitly
    dt = disc.t[:, None] - disc.t[None, :]
    with np.errstate(divide="ignore"):
        lsin = np.log(4.0 * np.sin(dt / 2.0) ** 2)
    lsin[diag, diag] = 0.0
    nr = disc.normal_raw
    # n_j . (x_i - x_j) / r and n_i . (x_i - x_j)
    q_src = (dx1 * nr[None, :, 0] + dx2 * nr[None, :, 1]) / r
    q_obs = dx1 * nr[:, None, 0] + dx2 * nr[:, None, 1]
    kr = k * r
    Rlog = _as_circulant(kress_log_weights(half))

    def kernel(f, n, *factors):
        """f(n, kr) once per symmetric pair, multiplied in place by each factor in turn."""
        out = _symmetric_kernel(f, n, kr)
        for c in factors:
            out *= c
        return out

    def split(out, X1, X, diag1, diag2):
        """out = R o X1 + (pi/n) X2 for the split X = X1 lsin + X2, with both diagonals set.

        Overwrites X1 and X.
        """
        X -= X1 * lsin
        X1[diag, diag] = diag1
        X[diag, diag] = diag2
        np.multiply(Rlog, X1, out=out)
        X *= w
        out += X

    A = np.empty((2 * m2, 2 * m2), dtype=complex)
    Are, Aim = A.real, A.imag
    curvature = disc.curvature_term / (2.0 * np.pi)
    log_speed = np.log(0.5 * k * speed) + EULER_GAMMA

    # --- block (1,1): Helmholtz double layer K + I ---------------------------
    # L = (k/2)(-Y_1 + i J_1) q/r, with the log split of its real part from J_1
    Jq = kernel(bessel_j, 1, q_src)
    L = kernel(bessel_y, 1, -0.5 * k, q_src)
    split(Are[:m2, :m2], -(k / (2.0 * np.pi)) * Jq, L, 0.0, curvature)
    Are[diag, diag] += 1.0
    np.multiply(Jq, 0.5 * k * w, out=Aim[:m2, :m2])
    Aim[diag, diag] = 0.0

    # --- block (1,2): modified-Helmholtz single layer (real) -----------------
    M1 = kernel(bessel_i, 0, -(1.0 / (2.0 * np.pi)), speed)
    M = kernel(bessel_k, 0, 1.0 / np.pi, speed)
    split(Are[:m2, m2:], M1, M, -(1.0 / (2.0 * np.pi)) * speed, -(1.0 / np.pi) * log_speed * speed)

    # --- block (2,2): modified-Helmholtz adjoint double layer - I (real) -----
    geo = q_obs * speed[None, :] / (speed[:, None] * r)
    P1 = kernel(bessel_i, 1, -(k / (2.0 * np.pi)), geo)
    P = kernel(bessel_k, 1, -(k / np.pi), geo)
    block_Kp = Are[m2:, m2:]
    split(block_Kp, P1, P, 0.0, curvature)
    block_Kp[diag, diag] -= 1.0
    Aim[:, m2:] = 0.0

    # --- block (2,1): hypersingular block through the Maue split -------------
    # A_phi is the split of G = -Y_0/4 + i J_0/4, whose log part comes from J_0
    J0 = kernel(bessel_j, 0)
    G = kernel(bessel_y, 0, -0.25)
    A_phi = np.empty((m2, m2), dtype=complex)
    split(A_phi.real, -(1.0 / (4.0 * np.pi)) * J0, G, -(1.0 / (4.0 * np.pi)),
          -(1.0 / (2.0 * np.pi)) * log_speed)
    phi_im = A_phi.imag
    np.multiply(J0, 0.25 * w, out=phi_im)
    phi_im[diag, diag] = 0.25 * w
    # A_nu = A_phi o (nu_i . nu_j |x'_j|), that factor's diagonal being |x'_i|
    nu = disc.normal
    nunu = nu @ nu.T
    nunu *= speed
    nunu[diag, diag] = speed
    nunu *= 2.0 * k**2
    block_T = A[m2:, :m2]
    np.multiply(A_phi, nunu, out=block_T)
    DAD = _maue_product(A_phi)
    DAD *= (2.0 / speed)[:, None]
    block_T += DAD
    return A


def _as_circulant(weights: np.ndarray) -> np.ndarray:
    n = len(weights)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return weights[idx]


def incident_trace(disc: BoundaryDiscretization, k: float, d) -> np.ndarray:
    """Right-hand side -2 (u_inc, dnu u_inc) at the nodes for incident direction(s) d.

    One direction of shape (2,) gives a vector of length 2 n_nodes; an (M, 2)
    array gives a (2 n_nodes, M) matrix, one column per direction.
    """
    d = np.asarray(d, dtype=float)
    phase = np.exp(1j * k * (disc.x @ d.T))
    dn = 1j * k * (disc.normal @ d.T) * phase
    return -2.0 * np.concatenate([phase, dn])


def _backward_error(system, sol, rhs) -> float:
    """Normwise backward error of a linear solve (tiny for a stable solve)."""
    num = np.linalg.norm(system @ sol - rhs)
    den = np.linalg.norm(system) * np.linalg.norm(sol) + np.linalg.norm(rhs)
    return float(num / den)


class ScatteringSolver:
    """One boundary discretization, assembled and LU-factored once.

    Every call to `solve` or `far_field_matrix` reuses the factorization, so
    any number of direction sets cost one assembly.
    """

    def __init__(self, curve: ParametricCurve, k: float, n_nodes: int, node_offset: float = 0.0):
        self.k = float(k)
        self.disc = discretize(curve, n_nodes, offset=node_offset)
        self.system = assemble_system(self.disc, self.k)
        self.lu = lu_factor(self.system)

    def solve(self, directions):
        """Densities (phi1, phi2) for one incident direction or an (M, 2) array of them.

        Returns two (n_nodes, M) arrays, column j belonging to directions[j].
        """
        rhs = incident_trace(self.disc, self.k, np.atleast_2d(directions))
        sols = lu_solve(self.lu, rhs)
        resid = _backward_error(self.system, sols, rhs)
        if not np.all(np.isfinite(sols)) or resid > SOLVE_RESIDUAL_TOL:
            raise RuntimeError(
                f"linear solve failed (relative residual {resid:.3e}); "
                "the discretized system may be singular"
            )
        m2 = self.disc.n_nodes
        return sols[:m2], sols[m2:]

    def far_field_matrix(self, n_dirs: int) -> FarFieldMatrix:
        """N x N multi-static matrix over uniform directions: N solves, N^2 evaluations.

        u_inf(xhat) = -ik int nu(y).xhat e^{-ik xhat.y} phi1(y) ds(y), evaluated
        with the trapezoid rule; only phi1 enters (the evanescent part carries
        no far field).
        """
        if n_dirs < 4:
            raise ValueError("n_dirs must be >= 4")
        dirs = uniform_directions(n_dirs)
        phi1, _ = self.solve(dirs)
        disc = self.disc
        w = np.pi / disc.half
        proj = dirs @ disc.normal_raw.T                    # (N, 2n): n_j . xhat_i
        phase = np.exp(-1j * self.k * (dirs @ disc.x.T))   # (N, 2n)
        E = -1j * self.k * w * proj * phase
        return FarFieldMatrix(k=self.k, directions=dirs, entries=E @ phi1, shape_kind=disc.curve.kind)


def assemble_far_field_matrix(
    curve: ParametricCurve,
    k: float,
    n_dirs: int,
    n_nodes: int,
    node_offset: float = 0.0,
) -> FarFieldMatrix:
    """Build the N x N multi-static matrix from a fresh ScatteringSolver."""
    return ScatteringSolver(curve, k, n_nodes, node_offset).far_field_matrix(n_dirs)


# ---------------------------------------------------------------------------
# far-field matrix file format
# ---------------------------------------------------------------------------
def save_farfield(ff: FarFieldMatrix, path) -> None:
    """Write the far-field matrix file.

    UTF-8 text: header '# biharmonic-farfield v1 N=<N> k=<k> shape=<kind>',
    then N^2 lines 'i j re im' (1-based indices, row-major, 17 significant
    digits).
    """
    n = ff.n_dirs
    row_template = "".join(f"%d {j + 1} %.17g %.17g\n" for j in range(n))
    args = np.empty((n, 3))                            # (i, re, im) per line of a row
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# biharmonic-farfield v1 N={n} k={ff.k:.17g} shape={ff.shape_kind}\n")
        for i, row in enumerate(ff.entries):
            args[:, 0] = i + 1
            args[:, 1] = row.real
            args[:, 2] = row.imag
            fh.write(row_template % tuple(args.ravel().tolist()))


def load_farfield(path) -> FarFieldMatrix:
    """Read a far-field matrix file written by save_farfield.

    The body must be exactly N^2 lines of four tokens 'i j re im' with 1-based
    indices in row-major order (blank lines are skipped); anything else
    raises ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = header.split()
        if fields[:3] != ["#", "biharmonic-farfield", "v1"]:
            raise ValueError(f"not a biharmonic-farfield v1 file: {header!r}")
        try:
            meta = dict(f.split("=", 1) for f in fields[3:])
            n = int(meta["N"])
            k = float(meta["k"])
            if n < 1:
                raise ValueError("N must be positive")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad far-field header {header!r}") from exc
        kind = meta.get("shape", "")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")                # an empty body is caught below
            rows = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    if rows.shape != (n * n, 4):
        raise ValueError(f"expected {n * n} entries of 4 values, found {rows.shape[0]}")
    i, j = np.divmod(np.arange(n * n), n)
    if not (np.array_equal(rows[:, 0], i + 1) and np.array_equal(rows[:, 1], j + 1)):
        raise ValueError("far-field entries are not 'i j' in 1-based row-major order")
    entries = np.ascontiguousarray(rows[:, 2:]).view(complex).reshape(n, n)
    return FarFieldMatrix(k=k, directions=uniform_directions(n), entries=entries, shape_kind=kind)
