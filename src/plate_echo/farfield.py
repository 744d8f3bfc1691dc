"""The multi-static far-field matrix, its directions and its file format.

Numpy only: imaging reads and writes these files without loading the solver
or scipy.
"""

from __future__ import annotations

import functools
import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np

# Entry lines per parsing block of load_farfield: about 2^16 lines, a 2 MB
# table of four columns, whatever N is.
LOAD_BLOCK_LINES = 1 << 16
# Lines per formatting block of save_farfield and imaging.save_grid_csv: their
# text columns and digit arrays stay a few MB whatever the size.
SAVE_BLOCK_LINES = 1 << 12


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


def is_index(value) -> bool:
    """The integer rule of counts and seeds: operator.index takes 128, not 128.0."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def uniform_angles(n_dirs: int) -> np.ndarray:
    """theta_i = 2 pi i / n_dirs for i = 0..n_dirs-1; n_dirs must be an integer >= 4."""
    if not is_index(n_dirs) or n_dirs < 4:
        raise ValueError(f"n_dirs must be >= 4 and an integer, not {n_dirs!r}")
    n = operator.index(n_dirs)
    return 2.0 * np.pi * np.arange(n) / n


def uniform_directions(n_dirs: int) -> np.ndarray:
    """(n_dirs, 2) unit vectors at the uniform_angles(n_dirs)."""
    theta = uniform_angles(n_dirs)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def save_farfield(ff: FarFieldMatrix, path) -> None:
    """Write the far-field matrix file.

    UTF-8 text: header '# biharmonic-farfield v1 N=<N> k=<k> shape=<kind>',
    then N^2 lines 'i j re im' (1-based indices, row-major, each value as
    Python's '%.17g' formats it). A matrix that load_farfield would refuse
    (not N x N, a non-finite entry, k not positive and finite, whitespace in
    the shape name) raises ValueError before the file is opened. The lines
    are formatted SAVE_BLOCK_LINES at a time by _g17_lines.
    """
    entries = np.asarray(ff.entries)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
        raise ValueError(f"far-field entries must be an N x N matrix, N >= 1, not shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise ValueError("far-field entries must be finite")
    if not 0.0 < ff.k < np.inf:
        raise ValueError(f"far-field k must be positive and finite, not {ff.k!r}")
    if "".join(ff.shape_kind.split()) != ff.shape_kind:
        raise ValueError(f"far-field shape name {ff.shape_kind!r} must not contain whitespace")
    n = entries.shape[0]
    values = np.ascontiguousarray(entries, dtype=complex).view(float).reshape(n * n, 2)
    index = _text_cells([b"%d " % i for i in range(1, n + 1)])
    with open(path, "wb") as fh:
        fh.write(f"# biharmonic-farfield v1 N={n} k={ff.k:.17g} shape={ff.shape_kind}\n".encode("utf-8"))
        for a in range(0, n * n, SAVE_BLOCK_LINES):
            i, j = np.divmod(np.arange(a, min(a + SAVE_BLOCK_LINES, n * n)), n)
            head = np.hstack([np.take(index, i, axis=0), np.take(index, j, axis=0)])
            fh.write(_g17_lines(values[a:a + SAVE_BLOCK_LINES], head))


def _text_cells(texts) -> np.ndarray:
    """The byte strings texts as the rows of an (n, w) uint8 array, NUL-padded on the left.

    Fixed text columns for the head of _g17_lines, which drops the NULs.
    """
    width = max(map(len, texts), default=0)
    return np.frombuffer(b"".join(t.rjust(width, b"\0") for t in texts), np.uint8).reshape(len(texts), width)


# _g17_lines builds each value's '%.17g' text in fixed columns, zeroes the
# columns its layout does not show and drops the zero bytes:
#   sign | 0.000 | d1..d17 | . | d2..d17 | e, exponent sign, 3 digits | separator
_INT, _DOT, _FRAC, _EXP, _SEP = 6, 23, 24, 40, 45
_G17_COLUMNS = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 16 + b"e+000 ", np.uint8)
# Layouts: decimal exponent X = -4..16 in fixed notation (index X + 4), then
# scientific with a 2-digit and with a 3-digit exponent.
_SCI2, _SCI3 = 21, 22
# 10^p for the scales p = 16 - X with X = floor(log10|x|) +- 1, |x| in [1e-250, 1e250]
_P_MIN, _P_MAX = -235, 268


@functools.cache
def _g17_tables():
    """The powers (hi, hi's two halves, lo) of 10^p for p = _P_MIN.._P_MAX, groups and masks.

    hi + lo is 10^p to about 2^-106 relative: both are quotients of exact
    integers, which Python rounds correctly. groups[g] is the 4 ASCII digits
    of g as one uint32. masks[layout, kept] keeps (1) or zeroes (0) the
    columns of a value with kept significant digits (trailing zeros
    dropped). Built on first use, so an import pays nothing.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        h = num / den
        m, e = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * e - m * den) / (den * e))
    hi, lo = np.array(hi), np.array(lo)
    masks = np.zeros((23, 18, len(_G17_COLUMNS)), np.uint8)
    masks[..., 0] = masks[..., _SEP] = True           # the sign: zeroed later unless negative
    for kept in range(1, 18):
        for x in range(-4, 17):
            m = masks[x + 4, kept]
            if x < 0:                                  # 0.0001234
                m[1:2 - x] = True
                m[_INT:_INT + kept] = True
            else:                                      # 123.4, 1234
                m[_INT:_INT + x + 1] = True
                m[_FRAC + x:_FRAC + kept - 1] = m[_DOT] = kept > x + 1
        for lay, exp_digits in ((_SCI2, 2), (_SCI3, 3)):   # 1.234e+05, 1.234e-300
            m = masks[lay, kept]
            m[_INT] = True
            m[_FRAC:_FRAC + kept - 1] = m[_DOT] = kept > 1
            m[_EXP:_EXP + 2] = True
            m[_SEP - exp_digits:_SEP] = True
    groups = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    groups = groups.astype(np.uint8).view(np.uint32).ravel()
    return (hi, *_split(hi), lo), groups, masks.reshape(23 * 18, -1)


def _split(a):
    """Dekker's split of a into two halves of 26 bits: a = hi + lo exactly."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _scaled(a, X, powers):
    """a * 10^(16 - X) as a double-double (hi, lo), within about 1e-14 when it is near 1e16..1e17.

    Dekker's exact product of a with the double nearest 10^p, plus a times
    the rest of 10^p.
    """
    at = 16 - X - _P_MIN
    p, p_hi, p_lo, rest = (np.take(t, at) for t in powers)
    a_hi, a_lo = _split(a)
    prod = a * p
    tail = ((a_hi * p_hi - prod) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo + a * rest
    hi = prod + tail
    return hi, tail - (hi - prod)


def _g17_lines(values, head=None) -> bytes:
    """Text lines of the rows of the (L, m) float64 values, byte for byte as Python formats them.

    Line r is the nonzero bytes of head[r], when an (L, h) uint8 head is
    given, then row r's values as '%.17g', joined by ' ' and ended by '\n'.
    The 17 digits of |x| in [1e-250, 1e250], X = floor(log10|x|), are
    round(|x| 10^(16 - X)) in double-double arithmetic; a value within 1e-9
    of a rounding tie, zero, or outside that range (inf and nan too) takes
    Python's own '%.17g'.
    """
    powers, groups, masks = _g17_tables()
    x = np.ascontiguousarray(values, dtype=float).reshape(len(values), -1)
    L, m = x.shape
    a = np.abs(x.ravel())
    direct = (a >= 1e-250) & (a <= 1e250)
    a[~direct] = 1.0
    X = np.floor(np.log10(a)).astype(np.int64)         # can be one off next to a power of ten
    hi, lo = _scaled(a, X, powers)
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    X += above
    X -= below
    redo = above | below
    hi[redo], lo[redo] = _scaled(a[redo], X[redo], powers)
    whole = np.floor(lo)
    frac = lo - whole
    direct &= np.abs(frac - 0.5) > 1e-9
    D = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    X += carry
    group = np.empty((5, L * m), np.int64)             # D as 4-digit groups, the first 1..9
    for g in range(4, 0, -1):
        q = D // 10000
        group[g] = D - 10000 * q
        D = q
    group[0] = D
    digits = np.take(groups, group.T).view(np.uint8)[:, 3:]
    kept = 17 - np.argmax(digits[:, ::-1] != ord("0"), axis=-1)
    layout = np.where((X >= -4) & (X < 17), X + 4, np.where(np.abs(X) < 100, _SCI2, _SCI3))

    h = 0 if head is None else head.shape[1]
    chars = np.empty((L, h + m * len(_G17_COLUMNS)), np.uint8)
    if head is not None:
        chars[:, :h] = head
    c = chars[:, h:].reshape(L, m, -1)
    c[...] = _G17_COLUMNS
    c[..., _INT:_FRAC - 1] = digits.reshape(L, m, 17)
    c[..., _FRAC:_EXP] = digits[:, 1:].reshape(L, m, 16)
    c[..., _EXP + 1:_SEP] = np.take(groups, np.abs(X)).view(np.uint8).reshape(L, m, 4)
    c[..., _EXP + 1] = np.where(X < 0, ord("-"), ord("+")).reshape(L, m)
    c[:, -1, _SEP] = ord("\n")
    c *= np.take(masks, layout * 18 + kept, axis=0).reshape(L, m, -1)
    c[..., 0] *= np.signbit(x)
    for at in np.flatnonzero(~direct).tolist():
        text = b"%.17g" % x.flat[at]
        r, col = divmod(at, m)
        c[r, col, :_SEP] = 0
        c[r, col, :len(text)] = np.frombuffer(text, np.uint8)
    chars = chars.ravel()
    return chars[chars != 0].tobytes()


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
