"""Output checks of the benchmark, built on reference.py.

Each check returns a list of problems; an empty list means the output
passed. Tolerances sit about a hundred times above what correct output
shows at the workloads' sizes, and far below what a wrong entry, scale or
ordering produces; selftest.py shows each check failing on a perturbed input.
"""

from __future__ import annotations

import numpy as np

import reference as ref

IDENTITY_TOL = 1e-8      # correct: ~1e-10, the direction-aliasing floor at N=64
RECIPROCITY_TOL = 1e-8   # correct: ~1e-10
CONVERGENCE_TOL = 1e-8   # 512 vs 1024 nodes, correct: ~1e-10
DISK_TOL = 1e-8          # BIE vs closed form, correct: ~1e-13 at k=4
ORACLE_TOL = 1e-12       # closed form vs closed form, correct: ~1e-15
INDICATOR_TOL = 1e-9     # grid value vs direct evaluation, correct: ~1e-14
SLOPE_SHARE = 0.2        # decay slopes within 20% of -rho and -rho/2


def _above(label: str, value: float, tol: float) -> list:
    if not value <= tol:      # also catches NaN
        return [f"{label} {value:.3e} > {tol:g}"]
    return []


def identity(F: np.ndarray, tol: float = IDENTITY_TOL) -> list:
    return _above("operator identity residual", ref.identity_residual(F), tol)


def reciprocity(F: np.ndarray) -> list:
    return _above("reciprocity residual", ref.reciprocity_residual(F), RECIPROCITY_TOL)


def close(F: np.ndarray, expected: np.ndarray, tol: float, label: str) -> list:
    if F.shape != expected.shape:
        return [f"{label}: shape {F.shape} != {expected.shape}"]
    return _above(label, ref.relative_max_diff(F, expected), tol)


def disk(F: np.ndarray, radius: float, k: float, tol: float = DISK_TOL) -> list:
    return close(F, ref.disk_far_field(radius, k, F.shape[0]), tol, f"disk k={k:g} vs closed form")


def equal(a: np.ndarray, b: np.ndarray, label: str) -> list:
    return [] if np.array_equal(a, b) else [f"{label}: arrays differ"]


def grid_values(values, xs, ys, F, k, rho, which, samples) -> list:
    """Max-normalized grid against direct evaluation at sampled (iy, ix) indices."""
    problems = []
    if values.max() != 1.0:
        problems.append(f"grid max is {values.max()!r}, not 1")
    iy, ix = np.unravel_index(np.argmax(values), values.shape)
    peak = ref.indicator_direct(F, k, (xs[ix], ys[iy]), rho, which)
    worst = 0.0
    for sy, sx in samples:
        direct = ref.indicator_direct(F, k, (xs[sx], ys[sy]), rho, which) / peak
        worst = max(worst, abs(values[sy, sx] - direct))
    return problems + _above(f"{which} grid vs direct evaluation", worst, INDICATOR_TOL)


def axes(xs, ys, extent, resolution) -> list:
    """Grid axes: the requested point counts, endpoints on the extent, uniform steps."""
    problems = []
    for label, axis, lo, hi, count in (("x", xs, extent[0], extent[1], resolution[0]),
                                       ("y", ys, extent[2], extent[3], resolution[1])):
        steps = np.diff(axis)
        if len(axis) != count or axis[0] != lo or axis[-1] != hi:
            problems.append(f"{label} axis: {len(axis)} points on [{axis[0]}, {axis[-1]}]")
        elif np.abs(steps - (hi - lo) / (count - 1)).max() > 1e-12 * (hi - lo):
            problems.append(f"{label} axis is not uniform")
    return problems


def argmax_inside(values, xs, ys, kind: str) -> list:
    iy, ix = np.unravel_index(np.argmax(values), values.shape)
    z = (xs[ix], ys[iy])
    return [] if ref.inside_shape(kind, z)[0] else [f"argmax {z} outside the {kind}"]


def noise_bound(noisy, clean, delta: float, rows=(), cols=()) -> list:
    """|F~/F - 1| <= delta sqrt(2) off the mask, zero on it; no noise when delta is 0."""
    keep = np.ones(clean.shape, dtype=bool)
    keep[np.asarray(rows, dtype=int) - 1, :] = False
    keep[:, np.asarray(cols, dtype=int) - 1] = False
    problems = [] if np.all(noisy[~keep] == 0) else ["masked entries are not zero"]
    if delta == 0.0:
        return problems + equal(noisy[keep], clean[keep], "noise-free data")
    dev = np.abs(noisy[keep] / clean[keep] - 1.0)
    problems += _above("multiplicative noise", float(dev.max()) / delta, np.sqrt(2.0))
    if dev.max() < 0.5 * delta:
        problems.append(f"noise of level {delta:g} was not applied")
    return problems


def csv_roundtrip(path, xs, ys, values) -> list:
    """The CSV holds exactly the grid coordinates and values."""
    try:
        cx, cy, cv = ref.parse_grid_csv(path)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    if cv.shape != values.shape:
        return [f"{path}: shape {cv.shape} != {values.shape}"]
    return (equal(cx, xs, f"{path} x") + equal(cy, ys, f"{path} y")
            + equal(cv, values, f"{path} values"))


def pgm(path, values) -> list:
    """8-bit raster: 255 at value 1, top row at maximum y."""
    try:
        img = ref.parse_pgm(path)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    expected = np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)[::-1, :]
    return equal(img, expected, f"{path} pixels")


def farfield_file(path, F, k: float, shape: str) -> list:
    """The far-field file holds exactly F with the documented header."""
    try:
        meta, entries = ref.parse_farfield(path)
    except (ValueError, KeyError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    if float(meta.get("k", "nan")) != k or meta.get("shape") != shape:
        problems.append(f"{path}: header {meta} does not say k={k:g} shape={shape}")
    return problems + equal(entries, F, f"{path} entries")


def header(path, field: str) -> list:
    """The far-field file starts with the documented header carrying `field`."""
    with open(path, encoding="utf-8") as fh:
        line = fh.readline().split()
    if line[:3] != ["#", "biharmonic-farfield", "v1"] or field not in line:
        return [f"{path}: bad header {' '.join(line)!r}"]
    return []


def same_bytes(path_a, path_b) -> list:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        return [] if fa.read() == fb.read() else [f"{path_b} differs from {path_a}"]


def slope(value: float, expected: float, label: str) -> list:
    return _above(f"{label} slope {value:.4f} off {expected:g} by share",
                  abs(value - expected) / abs(expected), SLOPE_SHARE)


def verify_lines(stdout: str, expected_checks: int) -> list:
    """Every record of 'verify' says pass=1 and the suite reports ok."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("check=")]
    problems = [f"failed record: {ln}" for ln in lines if not ln.endswith("pass=1")]
    if len(lines) != expected_checks:
        problems.append(f"{len(lines)} check records, expected {expected_checks}")
    if "verification: ok" not in stdout:
        problems.append("no 'verification: ok' line")
    return problems
