"""The far-field file writer: numpy '%.17g' text, byte for byte as Python's."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plate_echo
from plate_echo.farfield import FarFieldMatrix, _g17_lines, load_farfield, save_farfield


def _python_lines(values) -> bytes:
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist()).encode()


def _reference_save(ff, path):
    """The '%'-template writer save_farfield replaced: one template per row, Python's formatter."""
    n = ff.n_dirs
    pieces = ["", *(f" {j + 1} %.17g %.17g\n" for j in range(n))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# biharmonic-farfield v1 N={n} k={ff.k:.17g} shape={ff.shape_kind}\n")
        for i, row in enumerate(np.ascontiguousarray(ff.entries)):
            fh.write(str(i + 1).join(pieces) % tuple(row.view(float).tolist()))


def _signed_log_uniform(rng, size, lo, hi):
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(lo, hi, size)


def _powers_of_ten():
    p = 10.0 ** np.arange(-300, 300)
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _random_bits(rng, size):
    x = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(float)
    return x[np.isfinite(x)]


# exact 18-digit ties (Python rounds them half to even), signed zeros, subnormals,
# the ends of the double range and of the direct range, and the decade edges of %g
EDGE_VALUES = np.array([
    1234567890123456.25, -926367091840141.125, 0.5, 2.5, 1e16 + 2, 0.0, -0.0, 5e-324,
    -2.2250738585072014e-308, 1.7976931348623157e308, 1e-250, 1e250, 0.0001, 0.00001,
    9.9999999999999995e-5, 1e16, 1e17, 99999999999999999.0, 123.0, -7.0, 0.1])

VALUE_CLASSES = {
    "uniform": lambda rng: rng.random(100_000),
    "normal-1e-3": lambda rng: 1e-3 * rng.standard_normal(100_000),
    "log-uniform-30": lambda rng: _signed_log_uniform(rng, 100_000, -30, 30),
    "log-uniform-full": lambda rng: _signed_log_uniform(rng, 100_000, -320, 308),
    "random-bits": lambda rng: _random_bits(rng, 100_000),
    "integers": lambda rng: np.arange(-50_000, 50_000, dtype=float),
    "grid-axes": lambda rng: np.concatenate([np.linspace(-4.0, 4.0, n) for n in (150, 300, 601)]),
    "powers-of-ten": lambda rng: _powers_of_ten(),
    "edges": lambda rng: EDGE_VALUES,
}


@pytest.mark.parametrize("kind", sorted(VALUE_CLASSES))
def test_g17_lines_match_python_formatting(kind):
    values = VALUE_CLASSES[kind](np.random.default_rng(30))
    assert _g17_lines(values[:, None]) == _python_lines(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_g17_lines_match_python_formatting_for_any_finite_float(values):
    assert _g17_lines(np.array(values)[:, None]) == _python_lines(values)


def test_g17_lines_joins_a_row_after_its_head():
    values = np.array([[1.5, -0.0, 1e300], [0.1, 2.0, -3e-7]])
    head = np.frombuffer(b"a\0\0y", np.uint8).reshape(2, 2)
    assert _g17_lines(values, head) == (b"a1.5 -0 1.0000000000000001e+300\n"
                                        b"y0.10000000000000001 2 -2.9999999999999999e-07\n")


def _matrix(n):
    rng = np.random.default_rng(n)
    entries = (_signed_log_uniform(rng, (n, n), -20, 20)
               + 1j * rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 6, (n, n)))
    flat = entries.reshape(-1)
    flat[:len(EDGE_VALUES)] = EDGE_VALUES[:flat.size] + 1j * EDGE_VALUES[::-1][:flat.size]
    return FarFieldMatrix(k=4.0000000000000009, entries=entries, shape_kind="star")


@pytest.mark.parametrize("n", [5, 7, 64, 1024])
def test_save_farfield_writes_the_reference_bytes(tmp_path, ff_star, n):
    ff = ff_star if n == 64 else _matrix(n)
    save_farfield(ff, tmp_path / "new.txt")
    _reference_save(ff, tmp_path / "reference.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "reference.txt").read_bytes()


def test_save_farfield_peak_memory_stays_small(tmp_path):
    ff = _matrix(1024)
    tracemalloc.start()
    try:
        save_farfield(ff, tmp_path / "ff.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_import_builds_no_power_table():
    # a fresh interpreter: this one may have written a file already
    code = ("import plate_echo.farfield as f; n = f._g17_tables.cache_info().currsize; "
            "f._g17_lines(f.np.ones((1, 1))); print(n, f._g17_tables.cache_info().currsize)")
    src = str(Path(plate_echo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


def _bad_entry(value):
    entries = np.ones((4, 4), complex)
    entries[2, 1] = value
    return entries


REFUSED = {
    "nan-entry": (FarFieldMatrix(k=4.0, entries=_bad_entry(complex(1.0, np.nan))), "finite"),
    "inf-entry": (FarFieldMatrix(k=4.0, entries=_bad_entry(np.inf)), "finite"),
    "k-zero": (FarFieldMatrix(k=0.0, entries=np.ones((4, 4), complex)), "k must be positive"),
    "k-nan": (FarFieldMatrix(k=np.nan, entries=np.ones((4, 4), complex)), "k must be positive"),
    "shape-space": (FarFieldMatrix(k=4.0, entries=np.ones((4, 4), complex), shape_kind="my star"),
                    "whitespace"),
    "non-square": (FarFieldMatrix(k=4.0, entries=np.ones((4, 3), complex)), "N x N"),
    "empty": (FarFieldMatrix(k=4.0, entries=np.ones((0, 0), complex)), "N x N"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_save_farfield_refuses_what_load_farfield_refuses(tmp_path, case):
    ff, message = REFUSED[case]
    path = tmp_path / "ff.txt"
    with pytest.raises(ValueError, match=message):
        save_farfield(ff, path)
    assert not path.exists()


def test_save_farfield_round_trips_the_edge_values(tmp_path):
    ff = _matrix(7)
    save_farfield(ff, tmp_path / "ff.txt")
    back = load_farfield(tmp_path / "ff.txt")
    assert np.array_equal(back.entries.view(np.uint64), ff.entries.view(np.uint64))
