"""Reference computations for the benchmark's output checks.

Nothing here imports plate_echo: every quantity is recomputed from the
documented formulas with numpy and scipy.special, so a check built on these
functions cannot agree with the program merely because it shares its code.

Conventions follow the package README: directions theta_i = 2 pi i / N,
F[i, j] = u_inf(xhat_i, d_j), test vector phi_z = (e^{-ik z.d_1}, ...),
far-field file 'i j re im' lines with 1-based indices, grid CSV 'x,y,value'
with x fastest, PGM P5 with the top row at maximum y.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

# Default shapes of the package README ("peanut scale 1.5, star 1.5/0.3/4").
STAR = (1.5, 0.3, 4.0)
PEANUT = 1.5


def directions(n_dirs: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def disk_mode_responses(radius: float, k: float) -> np.ndarray:
    """Clamped-disk mode responses a_n / c_n, n = 0, 1, ..., until the tail is converged.

    Mode matching of a_n H_n(kr) + b_n K_n(kr) against the incident c_n J_n(kr)
    with u = du/dr = 0 at r = radius. Derivatives come from scipy's own
    jvp/h1vp/kvp. Modes are added until, beyond n > ka, two successive
    responses fall below 1e-18 of the largest one (the responses then decay
    faster than geometrically, so the dropped tail is below rounding).
    """
    ka = k * radius
    out = []
    n = 0
    small = 0
    while small < 2:
        J, Jp = sp.jv(n, ka), sp.jvp(n, ka)
        H, Hp = sp.hankel1(n, ka), sp.h1vp(n, ka)
        K, Kp = sp.kv(n, ka), sp.kvp(n, ka)
        ra = (Jp * K - J * Kp) / (H * Kp - Hp * K)
        if not np.isfinite(ra):
            raise ArithmeticError(f"disk mode {n} overflowed at ka={ka:g}")
        out.append(ra)
        peak = max(abs(v) for v in out)
        small = small + 1 if n > ka and abs(ra) < 1e-18 * peak else 0
        n += 1
    return np.array(out)


def disk_far_field(radius: float, k: float, n_dirs: int) -> np.ndarray:
    """Closed-form far-field matrix of the clamped disk on uniform directions.

    u_inf(xhat, d) = -4i sum_n (a_n/c_n) e^{in(theta_x - theta_d)}; the
    responses are even in n, so the sum folds onto cosines.
    """
    ra = disk_mode_responses(radius, k)
    theta = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    diff = theta[:, None] - theta[None, :]
    n = np.arange(1, len(ra))
    series = ra[0] + 2.0 * np.cos(diff[..., None] * n) @ ra[1:]
    return -4j * series


def relative_max_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def identity_residual(F: np.ndarray) -> float:
    """Relative Frobenius residual of F - F^H = (i/4pi)(2pi/N) F^H F."""
    n = F.shape[0]
    FH = F.conj().T
    rhs = (0.25j / np.pi) * (2.0 * np.pi / n) * (FH @ F)
    return float(np.linalg.norm(F - FH - rhs) / np.linalg.norm(F))


def reciprocity_residual(F: np.ndarray) -> float:
    """max |F(xhat, d) - F(-d, -xhat)| / max |F|; needs an even direction count."""
    n = F.shape[0]
    if n % 2:
        raise ValueError("reciprocity needs an even number of directions")
    flip = (np.arange(n) + n // 2) % n       # index of -d_j
    return relative_max_diff(F, F[np.ix_(flip, flip)].T)


def indicator_direct(F: np.ndarray, k: float, z, rho: float, which: str) -> float:
    """|(phi_z, F phi_z)|^rho ('ip') or ||F phi_z||^rho ('norm') at one point."""
    phi = np.exp(-1j * k * (directions(F.shape[0]) @ np.asarray(z, dtype=float)))
    Fphi = F @ phi
    if which == "ip":
        return float(abs(np.vdot(phi, Fphi)) ** rho)
    return float(np.linalg.norm(Fphi) ** rho)


def inside_shape(kind: str, points) -> np.ndarray:
    """Points strictly inside the default star, peanut or unit circle at the origin."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    th = np.arctan2(pts[:, 1], pts[:, 0])
    if kind == "star":
        scale, amp, petals = STAR
        bound = scale * (1.0 + amp * np.cos(petals * th))
    elif kind == "peanut":
        bound = 0.5 * PEANUT * np.sqrt(3.0 * np.cos(th) ** 2 + 1.0)
    elif kind == "circle":
        bound = np.ones_like(r)
    else:
        raise ValueError(f"no reference boundary for {kind!r}")
    return r < bound


def parse_farfield(path):
    """Read a far-field file: returns (header fields dict, N x N complex entries).

    Requires the documented layout exactly: one header line, then N^2 lines
    'i j re im' in row-major order with 1-based indices.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if header[:3] != ["#", "biharmonic-farfield", "v1"]:
        raise ValueError(f"bad far-field header {header!r}")
    meta = dict(f.split("=", 1) for f in header[3:])
    n = int(meta["N"])
    if len(body) != 4 * n * n:
        raise ValueError(f"expected {n * n} entry lines, found {len(body) / 4:g}")
    expect_i, expect_j = np.divmod(np.arange(n * n), n)
    if not (np.array_equal(np.array(body[0::4], dtype=np.int64), expect_i + 1)
            and np.array_equal(np.array(body[1::4], dtype=np.int64), expect_j + 1)):
        raise ValueError("far-field entries are not 1-based row-major")
    re = np.array(body[2::4], dtype=float)
    im = np.array(body[3::4], dtype=float)
    return meta, (re + 1j * im).reshape(n, n)


def parse_grid_csv(path):
    """Read an imaging grid CSV: returns (xs, ys, values[iy, ix]).

    Requires the header 'x,y,value' and row-major order with x fastest.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        body = fh.read().replace("\n", ",").split(",")
    if header != "x,y,value":
        raise ValueError(f"bad grid header {header!r}")
    if body and body[-1] == "":
        body.pop()
    data = np.array(body, dtype=float).reshape(-1, 3)
    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    nx, ny = len(xs), len(ys)
    if len(data) != nx * ny:
        raise ValueError("grid CSV is not a full tensor grid")
    X, Y = np.meshgrid(xs, ys)
    if not (np.array_equal(data[:, 0], X.ravel()) and np.array_equal(data[:, 1], Y.ravel())):
        raise ValueError("grid CSV rows are not row-major with x fastest")
    return xs, ys, data[:, 2].reshape(ny, nx)


def parse_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 255; returns rows top to bottom."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, dims, maxval, pixels = raw.split(b"\n", 3)
    nx, ny = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != nx * ny:
        raise ValueError("not an 8-bit P5 PGM of the stated size")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(ny, nx)
