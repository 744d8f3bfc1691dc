"""Direct-sampling imaging from the multi-static far-field matrix.

For a sampling point z and uniformly spaced directions d_1..d_N, the test
vector is phi_z = (e^{-ik z.d_1}, ..., e^{-ik z.d_N}). The two indicators,
both plain (unweighted) l2 expressions on the data matrix, are

    'ip':    | (phi_z, F phi_z)_l2 |^rho
    'norm':  ||F phi_z||_l2^rho.

Large values flag the cavity; grids are max-normalized before use. Noise is
multiplicative per entry, F(i,j) (1 + delta R(i,j)), and partial aperture is
modeled by zeroing receiver rows / source columns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .farfield import SAVE_BLOCK_LINES, FarFieldMatrix, _g17_lines, _text_cells, is_index

# Test-vector entries (points x N) per block of indicator_values' points: the
# test-vector and F phi_z blocks are then 1 MB each at any N, so a block stays
# in a core's L2 cache from the GEMM to the reduction. Grids go by rows instead.
INDICATOR_BLOCK = 1 << 16


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative noise level delta in [0, 1) with a reproducing seed."""

    delta: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("noise level delta must lie in [0, 1)")
        if not is_index(self.seed) or self.seed < 0:
            raise ValueError(f"noise seed must be a nonnegative integer, not {self.seed!r}")


@dataclass(frozen=True)
class ApertureMask:
    """1-based receiver rows / source columns to zero out (subsets of 1..N)."""

    receiver_rows: tuple = ()
    source_cols: tuple = ()

    def is_empty(self) -> bool:
        return not self.receiver_rows and not self.source_cols

    def check(self, n_dirs: int) -> None:
        """Raise IndexError unless every index is an integer in 1..n_dirs."""
        for idx in (*self.receiver_rows, *self.source_cols):
            if not (is_index(idx) and 1 <= idx <= n_dirs):
                raise IndexError(f"mask index {idx!r} must be an integer in 1..{n_dirs}")


def add_noise(ff: FarFieldMatrix, model: NoiseModel) -> FarFieldMatrix:
    """Entrywise F(i,j) (1 + delta R(i,j)), R = U + iV with U, V ~ Unif[-1,1].

    The (re, im) pairs are drawn in row-major entry order from numpy's
    default_rng(seed), so results are reproducible per seed. delta = 0
    returns the input unchanged (bit-identical entries).
    """
    if model.delta == 0.0:
        return replace(ff, entries=ff.entries.copy())
    n = ff.n_dirs
    draws = np.random.default_rng(model.seed).uniform(-1.0, 1.0, size=(n, n, 2))
    R = draws[..., 0] + 1j * draws[..., 1]
    return replace(ff, entries=ff.entries * (1.0 + model.delta * R))


def apply_mask(ff: FarFieldMatrix, mask: ApertureMask) -> FarFieldMatrix:
    """Zero the masked rows/columns; everything else is untouched."""
    mask.check(ff.n_dirs)
    entries = ff.entries.copy()
    if mask.receiver_rows:
        entries[np.asarray(mask.receiver_rows) - 1, :] = 0.0
    if mask.source_cols:
        entries[:, np.asarray(mask.source_cols) - 1] = 0.0
    return replace(ff, entries=entries)


def phi_z(k: float, directions: np.ndarray, z) -> np.ndarray:
    """Test vector(s) with components e^{-ik z.d_i}; unit modulus per component.

    One point z of shape (2,) gives a vector of length N; an (m, 2) array of
    points gives an (m, N) matrix, one test vector per row.
    """
    return np.exp(-1j * k * (np.asarray(z, dtype=float) @ np.asarray(directions).T))


def _check_indicator(rho: float, which: str) -> None:
    if which not in ("ip", "norm"):
        raise ValueError("which must be 'ip' or 'norm'")
    if not 0 < rho < np.inf:
        raise ValueError(f"rho must be positive and finite, not {rho}")


def _raw_indicators(count: int, blocks, names) -> dict:
    """Raw indicators for count test vectors, given as (a, P, FP) blocks.

    Row r of P is a test vector u for value a + r, and row r of FP is its
    F u: |(u, F u)| is 'ip' and ||F u|| is 'norm', for each name asked.
    vecdot conjugates its first argument in its inner loop, so the reductions
    make no copy.
    """
    raw = {name: np.empty(count) for name in names}
    for a, P, FP in blocks:
        if "ip" in raw:
            raw["ip"][a:a + len(P)] = np.abs(np.vecdot(P, FP))
        if "norm" in raw:
            raw["norm"][a:a + len(P)] = np.sqrt(np.vecdot(FP, FP).real)
    return raw


def indicator_values(ff, points, rho, which):
    """Vectorized indicator over an (m, 2) array of finite sampling points.

    ff is a FarFieldMatrix or anything else with k, n_dirs, directions and
    apply(P) (ScatteringSolver.far_field_operator applies F through the
    solver, with no N x N table). which and rho may also be equal-length
    sequences: then the result is a list with one array per (rho, which)
    pair, all from one F phi_z product. Points are taken INDICATOR_BLOCK // N
    at a time, so the (points, N) test-vector and F phi_z blocks stay bounded
    however many points there are.
    """
    if isinstance(which, str):
        pairs = [(rho, which)]
    elif np.ndim(rho) == 1 and len(rho) == len(which):
        pairs = list(zip(rho, which))
    else:
        raise ValueError("with a sequence of indicators, rho must be a sequence of the same length")
    for r, w in pairs:
        _check_indicator(r, w)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bad = ~np.all(np.isfinite(points), axis=-1)
    if np.any(bad):
        raise ValueError(f"sampling points must be finite, got {points[bad][:8].tolist()}")
    directions = ff.directions
    step = max(1, INDICATOR_BLOCK // ff.n_dirs)

    def blocks():
        for a in range(0, len(points), step):
            P = phi_z(ff.k, directions, points[a:a + step])
            yield a, P, ff.apply(P)

    raw = _raw_indicators(len(points), blocks(), {w for _, w in pairs})
    values = [raw[w] ** r for r, w in pairs]
    return values[0] if isinstance(which, str) else values


@dataclass(frozen=True)
class ImagingGrid:
    """Sampling grid with (max-normalized) indicator values.

    values has shape (ny, nx); values[iy, ix] belongs to (xs[ix], ys[iy]).
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    def points(self) -> np.ndarray:
        """Grid points, row-major over (y, x), shape (nx*ny, 2)."""
        X, Y = np.meshgrid(self.xs, self.ys)
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def argmax_point(self) -> np.ndarray:
        iy, ix = np.unravel_index(np.argmax(self.values), self.values.shape)
        return np.array([self.xs[ix], self.ys[iy]])


def _grid_axes(extent, resolution):
    """Axes (xs, ys) at counts (nx, ny) >= 2 on a finite extent (x_min, x_max, y_min, y_max), min < max."""
    if len(resolution) != 2 or not all(is_index(v) and v >= 2 for v in resolution):
        raise ValueError(f"grid resolution must be two integers >= 2, not {tuple(resolution)}")
    bounds = [float(v) for v in extent]
    if not (len(bounds) == 4 and np.all(np.isfinite(bounds)) and bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise ValueError(f"grid extent must be four finite values with x_min < x_max and y_min < y_max, "
                         f"not {tuple(bounds)}")
    return np.linspace(*bounds[:2], resolution[0]), np.linspace(*bounds[2:], resolution[1])


def evaluate_grid(ff: FarFieldMatrix, extent, resolution, rho: float, which: str) -> ImagingGrid:
    """Evaluate the chosen indicator on the grid, then max-normalize.

    extent = (x_min, x_max, y_min, y_max); resolution = (nx, ny) with
    endpoints included. Raises unless the grid's peak is positive and finite.

    The grid relies on the uniform directions theta_i = 2 pi i / N of
    FarFieldMatrix: cos theta_i = cos theta_{N-i}, so along a grid row the
    x factor phi_z(x, 0) of phi_z(x, y) = phi_z(x, 0) phi_z(0, y) has only
    nc = N // 2 + 1 distinct entries, u over the representatives d_0..d_{nc-1}.
    With e = phi_z(0, y) and Q adding entry N - i into entry i, phi_z = diag(e) Q u,
    so a row's 'norm' is ||B u|| with B = F diag(e) Q (N x nc) and its 'ip' is
    |u^H G u| with G = Q^T diag(conj e) B (nc x nc).
    """
    _check_indicator(rho, which)
    xs, ys = _grid_axes(extent, resolution)
    nx, ny = len(xs), len(ys)
    n, nc = ff.n_dirs, ff.n_dirs // 2 + 1
    directions = ff.directions
    U = phi_z(ff.k, directions[:nc], np.stack([xs, np.zeros(nx)], axis=-1))   # (nx, nc)
    E_y = phi_z(ff.k, directions, np.stack([np.zeros(ny), ys], axis=-1))      # (ny, N)

    def fold(A, e):              # A diag(e) Q: classes 1..N-nc also take columns N-1..nc
        out = A[:, :nc] * e[:nc]
        out[:, 1:n - nc + 1] += A[:, :nc - 1:-1] * e[:nc - 1:-1]
        return out

    def row_matrix(e):
        B = fold(ff.entries, e)
        return B if which == "norm" else fold(B.T, e.conj()).T

    FP = np.empty((nx, n if which == "norm" else nc), dtype=complex)   # U M^T for every row's M
    blocks = ((iy * nx, U, np.matmul(U, row_matrix(e).T, out=FP)) for iy, e in enumerate(E_y))
    vals = _raw_indicators(ny * nx, blocks, (which,))[which].reshape(ny, nx)
    with np.errstate(over="ignore"):                    # an inf peak is refused below
        vals = vals ** rho
    peak = vals.max()
    if not 0.0 < peak < np.inf:
        raise ValueError(f"degenerate imaging grid: indicator peak {peak:g} is not positive and finite")
    return ImagingGrid(xs=xs, ys=ys, values=vals / peak)


def save_grid_csv(grid: ImagingGrid, path) -> None:
    """CSV export: header 'x,y,value', rows in row-major (y outer, x inner).

    Each number is Python's '%.17g'. The x and y cells are formatted once per
    axis; the values go through _g17_lines SAVE_BLOCK_LINES lines at a time.
    values must have shape (len(ys), len(xs)) with 1-D axes, or ValueError is
    raised before the file is opened.
    """
    xs, ys, values = (np.asarray(a, dtype=float) for a in (grid.xs, grid.ys, grid.values))
    if xs.ndim != 1 or ys.ndim != 1 or values.shape != (len(ys), len(xs)):
        raise ValueError(f"grid values of shape {values.shape} do not match axes of shapes {xs.shape}, {ys.shape}")
    x_cells, y_cells = (_text_cells([b"%.17g," % v for v in axis.tolist()]) for axis in (xs, ys))
    values = values.reshape(-1, 1)
    with open(path, "wb") as fh:
        fh.write(b"x,y,value\n")
        for a in range(0, len(values), SAVE_BLOCK_LINES):
            iy, ix = np.divmod(np.arange(a, min(a + SAVE_BLOCK_LINES, len(values))), len(xs))
            head = np.hstack([np.take(x_cells, ix, axis=0), np.take(y_cells, iy, axis=0)])
            fh.write(_g17_lines(values[a:a + SAVE_BLOCK_LINES], head))


def save_grid_pgm(grid: ImagingGrid, path) -> None:
    """8-bit binary PGM (P5) raster; 255 = indicator value 1, top row = max y."""
    img = np.clip(np.rint(grid.values * 255.0), 0, 255).astype(np.uint8)[::-1, :]
    ny, nx = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
