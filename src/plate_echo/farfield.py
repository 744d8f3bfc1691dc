"""The multi-static far-field matrix, its directions and its file format.

Numpy only: imaging reads and writes these files without loading the solver
or scipy.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

# Entry lines per parsing block of load_farfield: about 2^16 lines, a 2 MB
# table of four columns, whatever N is.
LOAD_BLOCK_LINES = 1 << 16


@dataclass(frozen=True)
class FarFieldMatrix:
    """Multi-static far-field matrix entry(i,j) = u_inf(xhat_i, d_j)."""

    k: float
    entries: np.ndarray        # (N, N) complex
    shape_kind: str = ""

    @property
    def n_dirs(self) -> int:
        return self.entries.shape[0]

    @property
    def directions(self) -> np.ndarray:
        """(N, 2) uniform directions theta_i = 2 pi i / N; imaging grids rely on them being uniform."""
        return uniform_directions(self.n_dirs)

    def apply(self, P) -> np.ndarray:
        """F u for each row u of the (m, N) array P, as the rows of an (m, N) array."""
        return P @ self.entries.T


def uniform_directions(n_dirs: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(n_dirs) / n_dirs
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def save_farfield(ff: FarFieldMatrix, path) -> None:
    """Write the far-field matrix file.

    UTF-8 text: header '# biharmonic-farfield v1 N=<N> k=<k> shape=<kind>',
    then N^2 lines 'i j re im' (1-based indices, row-major, 17 significant
    digits).
    """
    n = ff.n_dirs
    # joined with the row index, these pieces give the template of one row's N lines
    pieces = ["", *(f" {j + 1} %.17g %.17g\n" for j in range(n))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# biharmonic-farfield v1 N={n} k={ff.k:.17g} shape={ff.shape_kind}\n")
        for i, row in enumerate(np.ascontiguousarray(ff.entries)):
            fh.write(str(i + 1).join(pieces) % tuple(row.view(float).tolist()))


def load_farfield(path) -> FarFieldMatrix:
    """Read a far-field matrix file written by save_farfield.

    The body must be exactly N^2 lines of four tokens 'i j re im' with 1-based
    indices in row-major order (blank lines are skipped), and finite values
    with a positive, finite k; anything else raises ValueError. A file too
    short to hold N^2 lines is refused before anything is allocated. The body
    is parsed LOAD_BLOCK_LINES lines at a time straight into the result, so
    besides the entries only one block's table is held.
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
            if n < 1 or not 0.0 < k < np.inf:
                raise ValueError("N and k must be positive, k finite")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad far-field header {header!r}") from exc
        kind = meta.get("shape", "")
        count = n * n
        if os.fstat(fh.fileno()).st_size < 8 * count:     # '1 1 0 0\n' is the shortest line
            raise ValueError(f"file too short for the {count} entries of an N={n} header")
        values = np.empty((count, 2))
        for a in range(0, count, LOAD_BLOCK_LINES):
            b = min(a + LOAD_BLOCK_LINES, count)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")            # an empty block is caught below
                rows = np.loadtxt(fh, dtype=float, comments=None, ndmin=2, max_rows=b - a)
            if rows.shape != (b - a, 4):
                raise ValueError(f"expected {count} entries of 4 values, found {a + len(rows)}")
            if not np.all(np.isfinite(rows[:, 2:])):
                raise ValueError("far-field entries must be finite")
            i, j = np.divmod(np.arange(a, b), n)
            if not (np.array_equal(rows[:, 0], i + 1) and np.array_equal(rows[:, 1], j + 1)):
                raise ValueError("far-field entries are not 'i j' in 1-based row-major order")
            values[a:b] = rows[:, 2:]
        if any(line.strip() for line in fh):
            raise ValueError(f"text after the {count} entries")
    return FarFieldMatrix(k=k, entries=values.view(complex).reshape(n, n), shape_kind=kind)
