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

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# the file functions are re-exported, so the solver module serves the whole far-field workflow
from .farfield import FarFieldMatrix, is_index, load_farfield, save_farfield, uniform_directions  # noqa: F401
from .geometry import ParametricCurve
from .specfun import EULER_GAMMA, bessel_i, bessel_j, bessel_k, bessel_y, erfc

SOLVE_RESIDUAL_TOL = 1e-10
# the split window's edge a = kappa / (k max|x'|), and the largest eps I_0(k diam) left unwindowed
WINDOW_KAPPA, WINDOW_THETA = 12.0, 1e-9


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
    if not is_index(n_nodes) or n_nodes < 16 or n_nodes % 2:
        raise ValueError(f"n_nodes must be an even integer >= 16, not {n_nodes!r}")
    n_nodes = operator.index(n_nodes)
    if not np.isfinite(offset):
        raise ValueError(f"the node offset must be finite, got {offset!r}")
    t = offset + np.pi * np.arange(n_nodes) / (n_nodes // 2)
    x, v, a = curve.frame(t)
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


# ---------------------------------------------------------------------------
# quadrature ingredients
# ---------------------------------------------------------------------------
def kress_log_weights(half: int) -> np.ndarray:
    """Weights R_j for int_0^2pi ln(4 sin^2((t-s)/2)) f(s) ds at the nodes.

    R_j = -(2 pi/n) sum_{m=1}^{n-1} cos(m j pi/n)/m - (-1)^j pi/n^2, with n the
    half node count; exact for trigonometric polynomials of degree < n. The
    sum is the real part of one length-2n FFT, whose twiddles are reduced
    exactly, so no unreduced angle m j pi/n is formed.
    """
    n = half
    c = np.zeros(2 * n)
    c[1:n] = 1.0 / np.arange(1, n)
    return -(2.0 * np.pi / n) * np.fft.fft(c).real - (np.pi / n**2) * (-1.0) ** np.arange(2 * n)


# Node rows per assembly block: ceil(n_nodes / KERNEL_ROW_BLOCKS). The system
# is built one block of rows at a time, so every pairwise array (geometry,
# kernels, split products) has a block's size, not the full n_nodes^2. The
# Schur complement is built in as many column blocks, for the same reason.
KERNEL_ROW_BLOCKS = 16


def _maue_product(X, group=1):
    """Rows 0..h-1 of D A D, D the Fourier differentiation matrix on n equispaced nodes.

    A is n x n with first h = n/group rows X and A[i + h, j + h] = A[i, j]
    (indices mod n); group 1 is a general A = X. D is circulant with symbol
    i kappa (Nyquist mode dropped) and antisymmetric, so differentiating the
    columns (i kappa_p) and then the rows from the right (-i kappa_q)
    multiplies the 2D spectrum by kappa_p kappa_q. A's spectrum is nonzero
    only at p = r + l group, r = -q mod group, and its column q there is the
    length-h transform over X's rows s with the twiddles e^{-2 pi i r s/n}:
    no n x n array is formed.
    """
    h, n = X.shape
    kappa = np.fft.fftfreq(n, 1.0 / n)
    kappa[n // 2] = 0.0
    r = -np.arange(group) % group                     # r of the columns q = u group + c, by c
    # fft2's axes in its order (last first), then the inverses in reverse, in one buffer
    Y = X.copy()
    Y3 = Y.reshape(h, h, group)                       # [s or l, u, c]: column q = u group + c
    np.fft.fft(Y, axis=1, out=Y)
    if group > 1:
        twiddle = np.exp(-2j * np.pi / n * np.outer(np.arange(h), r))[:, None, :]
        Y3 *= twiddle
    np.fft.fft(Y, axis=0, out=Y)
    kappa3 = kappa.reshape(h, group)
    Y3 *= kappa3[:, None, r] * kappa3                 # kappa_p kappa_q at p = r + l group
    np.fft.ifft(Y, axis=0, out=Y)
    if group > 1:
        Y3 *= twiddle.conj()
    np.fft.ifft(Y, axis=1, out=Y)
    return Y


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------
def _fill_block(left, right, disc: BoundaryDiscretization, k: float, Q: np.ndarray, Qw: np.ndarray,
                rows: slice, cols: slice, scale: float, kernels=None):
    """Write the off-diagonal entries of the four blocks at node pairs rows x cols of every group.

    left and right are the strips as (2h, m, h) arrays, column j of group g
    being node g h + j. Each pair's own geometry is computed from its nodes i
    in rows and j: r, n_j.(x_i - x_j)/r and the geo factor. Its log split
    reads the tables Q (the J-based blocks) and Qw (the I-based ones) at the
    node lag (i - j) mod 2n. At lag 0, the diagonal, r is 1 as a placeholder,
    diagonals being set explicitly. The kernels J_0, Y_0, J_1, Y_1, I_0, K_0,
    I_1, K_1 of k r are evaluated unless given (the values of the mirrored
    pairs), read only, returned.
    """
    h, m = right.shape[0] // 2, right.shape[1]        # the lower blocks start at row h
    m2 = disc.n_nodes
    w = np.pi / disc.half

    def col(a):
        """a's values at the column nodes, (m, cols)."""
        return a.reshape(m, h)[:, cols]

    x1, x2 = disc.x[:, 0], disc.x[:, 1]
    dx1 = x1[rows, None, None] - col(x1)
    dx2 = x2[rows, None, None] - col(x2)
    r = np.hypot(dx1, dx2)
    node = np.arange(m2)
    lag = (node[rows, None, None] - col(node)) % m2
    on_diag = lag == 0
    r[on_diag] = np.inf
    if r.min() < 1e-12 * scale:
        raise RuntimeError("degenerate boundary: coincident quadrature nodes")
    r[on_diag] = 1.0
    nr, speed = disc.normal_raw, disc.speed
    # n_j . (x_i - x_j) / r and n_i . (x_i - x_j)
    q_src = (dx1 * col(nr[:, 0]) + dx2 * col(nr[:, 1])) / r
    q_obs = dx1 * nr[rows, 0, None, None] + dx2 * nr[rows, 1, None, None]
    geo = q_obs * col(speed) / (speed[rows, None, None] * r)
    if kernels is None:
        kr = k * r
        kernels = [bessel_j(0, kr), bessel_y(0, kr), bessel_j(1, kr), bessel_y(1, kr),
                   bessel_i(0, kr), bessel_k(0, kr), bessel_i(1, kr), bessel_k(1, kr)]
    J0, Y0, J1, Y1, I0, K0, I1, K1 = kernels
    lo_r = slice(rows.start + h, rows.stop + h)

    def split(out, table, X1, X):
        """out = R o X1 + (pi/n)(X - X1 ln 4 sin^2) = table[lag] o X1 + (pi/n) X. Overwrites X."""
        np.multiply(table[lag], X1, out=out)
        X *= w
        out += X

    # --- block (1,1): Helmholtz double layer K + I ---------------------------
    # L = (k/2)(-Y_1 + i J_1) q/r, with the log split of its real part from J_1
    Jq = J1 * q_src
    L = Y1 * (-0.5 * k)
    L *= q_src
    split(left.real[rows, :, cols], Q, -(k / (2.0 * np.pi)) * Jq, L)
    np.multiply(Jq, 0.5 * k * w, out=left.imag[rows, :, cols])

    # --- block (1,2): modified-Helmholtz single layer (real) -----------------
    M1 = I0 * -(1.0 / (2.0 * np.pi))
    M1 *= col(speed)
    M = K0 * (1.0 / np.pi)
    M *= col(speed)
    split(right[rows, :, cols], Qw, M1, M)

    # --- block (2,2): modified-Helmholtz adjoint double layer - I (real) -----
    P1 = I1 * -(k / (2.0 * np.pi))
    P1 *= geo
    P = K1 * -(k / np.pi)
    P *= geo
    split(right[lo_r, :, cols], Qw, P1, P)

    # --- block (2,1), first A_phi: the split of G = -Y_0/4 + i J_0/4 ---------
    G = Y0 * -0.25
    split(left.real[lo_r, :, cols], Q, -(1.0 / (4.0 * np.pi)) * J0, G)
    np.multiply(J0, 0.25 * w, out=left.imag[lo_r, :, cols])
    return kernels


def assemble_system(disc: BoundaryDiscretization, k: float,
                    group: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nystrom matrix of the 2x2 block operator as its column halves (left, right).

    left is the complex [A11; A21], right the real [A12; A22] (S~ and K~' - I
    are real), each 2 n_nodes x n_nodes: np.hstack((left, right)) is 4n x 4n.
    With group m > 1 dividing gcd(curve.rotation_order, n_nodes) (any other
    group is refused), every block has A[i + h, j + h] = A[i, j] with
    h = n_nodes/m (indices mod n_nodes), and only each block's first h rows
    are built: left and right are then 2h x n_nodes.

    The rows are built in blocks [a:b] of nodes. Column block g, columns
    g h .. g h + h - 1, holds the kernel values of block -g mod m transposed,
    since |x_i - x_{j + g h}| = |x_j - x_{i - g h}|. For each row block,
    _fill_block evaluates J_0, Y_0, J_1, Y_1, I_0, K_0, I_1 and K_1 of
    k|x_i - x_j| on the upper trapezoid [a:b, a:] of every column block and
    fills those entries of all four blocks, and a second call fills the
    mirrored [b:h, a:b] of each block g from block -g's kernel values
    transposed and its own geometry. So the kernels are evaluated about once
    per pair orbit, and besides the result only the Maue product's FFT
    buffer, its kappa weights and the real nu_i . nu_j matrix nunu are
    h x n_nodes.
    The Helmholtz blocks are split into real and imaginary parts, so every
    block is built in real arithmetic straight into the result.
    The log split's factors but the kernels depend on the node lag l = (i - j) mod 2n only: the
    table Q_l = R_l - (pi/n) ln(4 sin^2(t_l/2)), t_l = l pi/n (Q_0 = R_0). Kress's split of K_0, K_1
    by I_0, I_1 cancels terms of size I_0(k diam), diam the curve's diameter; past WINDOW_THETA, if
    a + 5 sigma = 2a < pi, the I-based blocks read Q chi, chi = erfc((t_l wrapped - a)/sigma)/2.
    """
    if not 0 < k < np.inf:
        raise ValueError(f"assemble_system requires a finite k > 0, got k={k!r}")
    m2 = disc.n_nodes
    order = math.gcd(disc.curve.rotation_order, m2)
    if not is_index(group) or group < 1 or order % group:
        raise ValueError(f"group={group!r} does not divide gcd(rotation order, n_nodes) = {order}")
    h = m2 // group
    speed = disc.speed
    w = np.pi / disc.half
    step = -(-h // KERNEL_ROW_BLOCKS)
    diam = max(disc.curve.diameter(), 1e-30)
    t_lag = np.pi * np.arange(m2) / disc.half
    Q = kress_log_weights(disc.half)
    Q[1:] -= w * np.log(4.0 * np.sin(t_lag[1:] / 2.0) ** 2)
    a_win = WINDOW_KAPPA / (k * speed.max())
    kress = 2.0 * a_win >= np.pi or np.finfo(float).eps * bessel_i(0, k * diam) <= WINDOW_THETA
    Qw = Q if kress else Q * 0.5 * erfc((np.pi - np.abs(np.pi - t_lag) - a_win) / (a_win / 5.0))

    left = np.empty((2 * h, m2), dtype=complex)
    right = np.empty((2 * h, m2))
    mirror = -np.arange(group) % group                # column block g holds block -g transposed
    fill = partial(_fill_block, left.reshape(2 * h, group, h), right.reshape(2 * h, group, h),
                   disc, k, Q, Qw, scale=diam)
    for a in range(0, h, step):
        b = min(a + step, h)
        kernels = fill(slice(a, b), slice(a, h))
        if b < h:
            fill(slice(b, h), slice(a, b),
                 kernels=[K[:, mirror, b - a:].transpose(2, 1, 0) for K in kernels])

    # --- diagonals of the splits, R_0 diag1 + (pi/n) diag2, and the +-1 -------
    # (diag1 = 0 for both double layers, so theirs are (pi/n) curvature +- 1)
    diag = np.arange(h)
    low = diag + h
    speed_h = speed[:h]
    curvature = disc.curvature_term[:h] / (2.0 * np.pi) * w
    log_speed = np.log(0.5 * k * speed_h) + EULER_GAMMA
    left.real[diag, diag] = curvature + 1.0
    left.imag[diag, diag] = 0.0
    right[diag, diag] = (Q[0] * (-(1.0 / (2.0 * np.pi)) * speed_h)
                         + (-(1.0 / np.pi) * log_speed * speed_h) * w)
    right[low, diag] = curvature - 1.0
    left.real[low, diag] = Q[0] * -(1.0 / (4.0 * np.pi)) + (-(1.0 / (2.0 * np.pi)) * log_speed) * w
    left.imag[low, diag] = 0.25 * w

    # --- block (2,1): hypersingular block through the Maue split -------------
    # A_nu = A_phi o (nu_i . nu_j |x'_j|), that factor's diagonal being |x'_i|;
    # A_phi sits in the block until DAD is taken from it
    block_T = left[h:]
    DAD = _maue_product(block_T, group)
    nu = disc.normal
    nunu = nu[:h] @ nu.T
    nunu *= speed
    nunu[diag, diag] = speed_h
    nunu *= 2.0 * k**2
    block_T *= nunu
    DAD *= (2.0 / speed_h)[:, None]
    block_T += DAD
    return left, right


def incident_trace(disc: BoundaryDiscretization, k: float, d) -> np.ndarray:
    """Right-hand side -2 (u_inc, dnu u_inc) at the nodes for incident direction(s) d.

    One direction of shape (2,) gives a vector of length 2 n_nodes; an (M, 2)
    array gives a (2 n_nodes, M) matrix, one column per direction.
    """
    d = np.asarray(d, dtype=float)
    m2 = disc.n_nodes
    out = np.empty((2 * m2, *d.shape[:-1]), dtype=complex)
    top, bottom = out[:m2], out[m2:]
    np.exp(np.multiply(1j * k, disc.x @ d.T, out=top), out=top)
    np.multiply(1j * k, disc.normal @ d.T, out=bottom)
    bottom *= top
    out *= -2.0
    return out


def _pairs(f, A, X, **kwargs):
    """f(A, X) for complex X; a real A (or LU of one) meets X's interleaved (re, im) columns."""
    if np.iscomplexobj(A[0]):
        return f(A, X, **kwargs)
    return np.ascontiguousarray(f(A, X.view(float), **kwargs)).view(complex)


def _stack(m, h, dtype):
    """An empty stack of m Fortran-ordered h x h matrices, which LAPACK factors in place."""
    return np.empty((m, h, h), dtype=dtype).transpose(0, 2, 1)


def _lu_each(lu):
    """Factor each matrix of the stack in place: (lu, piv), which one lu_solve call takes."""
    piv = np.empty(lu.shape[:2], dtype=np.int32)
    for a, p in zip(lu, piv):
        p[...] = lu_factor(a, overwrite_a=True, check_finite=False)[1]
    return lu, piv


def _group_dft(f, a, norm="backward", out=None):
    """f (np.fft.fft or np.fft.ifft) over the group axis 1 of a.

    For a group of 2 it is the x0 +- x1 that pocketfft gives bit for bit
    (halved by the normalised ifft), in a's dtype and without its passes.
    """
    if a.shape[1] != 2:
        return f(a, axis=1, norm=norm, out=out)
    out = np.empty_like(a) if out is None else out
    total = a[:, 0] + a[:, 1]
    np.subtract(a[:, 0], a[:, 1], out=out[:, 1])
    out[:, 0] = total
    if f is np.fft.ifft and norm == "backward":
        out *= 0.5
    return out


class ScatteringSolver:
    """One boundary discretization, assembled and factored once.

    With m = gcd(curve.rotation_order, n_nodes) (n_nodes for the circle, 1
    without symmetry) every block has A[i + h, j + h] = A[i, j], h = n_nodes/m,
    so assemble_system builds each block's first h rows, and a DFT over the
    group index splits the system into m systems of size 2h, one per character
    c (Allgower, Boehmer, Georg & Miranda, SINUM 29, 1992): block X of c is
    sum_g X_g e^{2 pi i g c/m} over the h x h column blocks X_g of those rows.
    Each character's [[A11, A12], [A21, A22]] is factored through its block
    A22 = K~' - I, a second-kind operator: with W = A12 A22^-1 and the Schur
    complement S = A11 - W A21, a solve is

        phi1 = S^-1 (b1 - W b2),    phi2 = A22^-1 (b2 - A21 phi1).

    For m <= 2 the characters of the real [A12; A22] are real, and A22 and W
    meet complex columns as interleaved (re, im) pairs. Every call to `solve`,
    `far_field_matrix` or `far_field_operator` reuses the factorization, and
    each solve is checked against the full system. `left` and `right` hold the
    characters' [A11; A21] and [A12; A22] as (m, 2h, h) stacks; S is built in
    its own buffer one column block at a time and factored there.
    """

    def __init__(self, curve: ParametricCurve, k: float, n_nodes: int, node_offset: float = 0.0):
        self.k = float(k)
        self.disc = discretize(curve, n_nodes, offset=node_offset)
        m = self.group = math.gcd(curve.rotation_order, self.disc.n_nodes)
        h = self.disc.n_nodes // m
        with np.errstate(over="ignore", invalid="ignore"):   # an overflow is refused below
            left, right = assemble_system(self.disc, self.k, m)
            # every block row of the full system holds the entries of the first, shifted
            self.system_norm = np.sqrt(m) * np.hypot(np.linalg.norm(left), np.linalg.norm(right))
        if not np.isfinite(self.system_norm):
            raise RuntimeError(f"the assembled system overflows at k={self.k:g}; nothing can be solved")
        # the characters' blocks, written over the column blocks X_g; (m, 2h, h) views
        left = left.reshape(2 * h, m, h)
        _group_dft(np.fft.ifft, left, "forward", out=left)
        right = right.reshape(2 * h, m, h)
        if m > 2:
            right = np.fft.ifft(right, axis=1, norm="forward")
        elif m == 2:
            _group_dft(np.fft.ifft, right, "forward", out=right)
        self.left, self.right = left.transpose(1, 0, 2), right.transpose(1, 0, 2)
        A22 = _stack(m, h, right.dtype)
        A22[...] = self.right[:, h:]
        self.lu22 = _lu_each(A22)
        # W = A12 A22^-1 from A22^T W^T = A12^T
        W_T = lu_solve(self.lu22, self.right[:, :h].transpose(0, 2, 1), trans=1)
        self.W = W_T.transpose(0, 2, 1)
        # S = A11 - W A21, one column block at a time. Non-finite entries (a
        # singular A22) flow on to the finiteness check in solve.
        S = _stack(m, h, complex)
        A11, A21 = self.left[:, :h], self.left[:, h:]
        step = -(-h // KERNEL_ROW_BLOCKS)
        for a in range(0, h, step):
            b = min(a + step, h)
            np.subtract(A11[..., a:b], _pairs(np.matmul, self.W, A21[..., a:b]), out=S[..., a:b])
        self.lu_schur = _lu_each(S)

    def _characters(self, a):
        """(j n_nodes, M) rows as their characters (j, m, h, M): sum_g a_g e^{-2 pi i g c/m}."""
        m = self.group
        return _group_dft(np.fft.fft, a.reshape(-1, m, self.disc.n_nodes // m, a.shape[-1]))

    def solve(self, rhs):
        """Densities (phi1, phi2) for a (2 n_nodes, M) array of right-hand sides, one per column.

        Returns two (n_nodes, M) arrays; plane waves' columns come from incident_trace(disc, k, dirs).
        """
        m2 = self.disc.n_nodes
        h = m2 // self.group
        rhs = np.ascontiguousarray(rhs, dtype=complex)
        if rhs.ndim != 2 or rhs.shape[0] != 2 * m2:
            raise ValueError(f"rhs must have shape ({2 * m2}, M), got {rhs.shape}")
        B = self._characters(rhs)
        b1, b2 = B
        X = np.empty_like(B)
        x1, x2 = X
        y1 = b1 - _pairs(np.matmul, self.W, b2)
        x1[...] = lu_solve(self.lu_schur, y1, overwrite_b=True, check_finite=False)
        r2 = b2 - self.left[:, h:] @ x1
        x2[...] = _pairs(lu_solve, self.lu22, r2, check_finite=False)
        resid = self._backward_error(X, B, r2)
        sols = _group_dft(np.fft.ifft, X, out=X).reshape(2 * m2, -1)
        if not np.all(np.isfinite(sols)) or resid > SOLVE_RESIDUAL_TOL:
            raise RuntimeError(
                f"linear solve failed (relative residual {resid:.3e}); "
                "the discretized system may be singular"
            )
        return sols[:m2], sols[m2:]

    def _backward_error(self, X, B, r2) -> float:
        """Normwise backward error of a solve of the full block system, from its characters.

        X and B are the characters of the densities and right-hand sides, r2
        = b2 - A21 phi1 those of the solve. The group DFT scales the norm of
        every vector by sqrt(m), so the ratio is the full system's. [A12; A22]
        meets phi2 in one GEMM per character; the bottom block row of the
        residual is then A22 phi2 - r2, so only the top row's A11 phi1 - b1
        takes new complex work.
        """
        h = self.disc.n_nodes // self.group
        resid = _pairs(np.matmul, self.right, X[1])
        top = resid[:, :h]
        top += self.left[:, :h] @ X[0]
        top -= B[0]
        resid[:, h:] -= r2
        num = np.linalg.norm(resid)
        den = self.system_norm * np.linalg.norm(X) + np.linalg.norm(B)
        return float(num / den)

    def far_field(self, phi1, xhat) -> np.ndarray:
        """(N, M) far field at the (N, 2) directions xhat of each column of phi1.

        u_inf(xhat) = -ik int nu(y).xhat e^{-ik xhat.y} phi1(y) ds(y), evaluated
        with the trapezoid rule; only phi1 enters (the evanescent part carries
        no far field).
        """
        disc, w = self.disc, np.pi / self.disc.half
        E = -1j * self.k * w * (xhat @ disc.normal_raw.T)   # (N, 2n) far-field rows: n_j . xhat_i
        phase = -1j * self.k * (xhat @ disc.x.T)            # (N, 2n)
        E *= np.exp(phase, out=phase)
        del phase                                           # only E and the result meet in the GEMM
        return E @ phi1

    def far_field_matrix(self, n_dirs: int) -> FarFieldMatrix:
        """N x N multi-static matrix over uniform directions: N/g solves, N^2 evaluations.

        With g = gcd(group, N), rotating direction d by 2 pi/g to d' moves its
        right-hand side, and so its density, by n_nodes/g nodes times
        e^{ik c.(d' - d)}, c the centroid of the nodes (the rotation centre
        for m >= 2): only the first N/g directions are solved. The far field
        of every column is still evaluated, not rolled, so F is not exactly
        block-circulant and its images keep no exact ties.
        """
        disc, dirs = self.disc, uniform_directions(n_dirs)
        n, m2 = len(dirs), disc.n_nodes
        g = math.gcd(self.group, n)
        p = n // g
        phi1 = self.solve(incident_trace(disc, self.k, dirs[:p]))[0]
        if g > 1:
            # column q p + j is column j rolled by q n_nodes/g nodes, times e^{ik c.(d_{qp+j} - d_j)}
            phi1 = phi1[(np.arange(m2)[:, None] - (m2 // g) * np.arange(g)) % m2].reshape(m2, n)
            phi1 *= np.exp(1j * self.k * ((dirs - dirs[np.arange(n) % p]) @ disc.x.mean(axis=0)))
        entries = self.far_field(phi1, dirs)
        return FarFieldMatrix(k=self.k, entries=entries, shape_kind=disc.curve.kind)

    def far_field_operator(self, n_dirs: int) -> FarFieldOperator:
        """F over n_dirs uniform directions, applied through this factorization, never tabulated."""
        return FarFieldOperator(self, len(uniform_directions(n_dirs)))   # refuses all but integers >= 4


@dataclass(frozen=True)
class FarFieldOperator:
    """The multi-static far-field operator F of a solver, applied without its N x N matrix.

    F u is the far field of the Herglotz wave sum_j u_j e^{ik x.d_j}, so one
    solve with the right-hand side incident_trace(disc, k, dirs) u gives it at
    every direction: m test vectors cost one solve of m right-hand sides and
    no N^2 table.
    """

    solver: ScatteringSolver
    n_dirs: int

    @property
    def k(self) -> float:
        return self.solver.k

    @property
    def directions(self) -> np.ndarray:
        return uniform_directions(self.n_dirs)

    def apply(self, P) -> np.ndarray:
        """F u for each row u of the (m, N) array P, as the rows of an (m, N) array."""
        s, dirs = self.solver, self.directions
        return s.far_field(s.solve(incident_trace(s.disc, s.k, dirs) @ P.T)[0], dirs).T


def assemble_far_field_matrix(
    curve: ParametricCurve,
    k: float,
    n_dirs: int,
    n_nodes: int,
    node_offset: float = 0.0,
) -> FarFieldMatrix:
    """Build the N x N multi-static matrix from a fresh ScatteringSolver."""
    return ScatteringSolver(curve, k, n_nodes, node_offset).far_field_matrix(n_dirs)
