"""Integral-equation solver: block-level and end-to-end validation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from plate_echo import farfield, forward, specfun
from plate_echo.forward import (
    FarFieldMatrix,
    ScatteringSolver,
    _maue_product,
    assemble_far_field_matrix,
    assemble_system,
    discretize,
    incident_trace,
    kress_log_weights,
    load_farfield,
    save_farfield,
    uniform_directions,
)
from plate_echo.farfield import uniform_angles
from plate_echo.geometry import SHAPE_KINDS, ParametricCurve, make_curve
from plate_echo.oracle import disk_far_field_matrix

K = 4.0


def test_kress_weights_integrate_log_kernel():
    # the rule is exact for trig polynomials: int ln(4 sin^2(t/2)) cos(mt) dt
    # equals -2 pi / m for 1 <= m < n and 0 for m = 0
    half = 32
    R = kress_log_weights(half)
    t = np.pi * np.arange(2 * half) / half
    assert R.sum() == pytest.approx(0.0, abs=1e-12)
    for m in (1, 2, 7, 31):
        assert R @ np.cos(m * t) == pytest.approx(-2 * np.pi / m, rel=1e-12)


@pytest.mark.parametrize("half", [512, 1024])
def test_kress_weights_match_an_exactly_reduced_sum(half):
    # the angles m j pi/n reduced mod 2 pi as integers and the terms summed exactly;
    # cosines of the unreduced angles (up to about 5e5) were 1.0e-15 off
    m = np.arange(1, half)
    terms = np.cos(np.pi * (np.arange(2 * half)[:, None] * m % (2 * half)) / half) / m
    ref = [-(2.0 * np.pi / half) * math.fsum(row) - (np.pi / half**2) * (-1.0) ** j
           for j, row in enumerate(terms)]
    assert np.abs(kress_log_weights(half) - ref).max() <= 1e-16


CIRCLE_A = 1.3
CIRCLE_MODES = [-6, -3, 0, 1, 2, 4, 8]


def _circle_blocks(m2):
    disc = discretize(make_curve("circle", (CIRCLE_A,)), m2)
    left, right = assemble_system(disc, K)
    return disc, left[:m2], right[:m2], left[m2:], right[m2:]


@pytest.fixture(scope="module")
def circle_blocks():
    return _circle_blocks(128)


@pytest.fixture(scope="module")
def circle_blocks_130():
    # 130 rows end the kernel evaluation with a partial row block
    return _circle_blocks(130)


class TestCircleBlockEigenvalues:
    """Each Nystrom block applied to e^{int} vs the analytic circle symbol."""

    a = CIRCLE_A

    @pytest.mark.parametrize("n", CIRCLE_MODES)
    def test_blocks_match_symbols(self, circle_blocks, n):
        self.check(circle_blocks, n)

    @pytest.mark.parametrize("n", CIRCLE_MODES)
    def test_blocks_match_symbols_at_130_nodes(self, circle_blocks_130, n):
        self.check(circle_blocks_130, n)

    def check(self, blocks, n):
        disc, blk_K, blk_S, blk_T, blk_Kp = blocks
        z = K * self.a
        v = np.exp(1j * n * disc.t)
        m = abs(n)
        eig = {
            "K": 1j * np.pi * self.a * K * sp.jv(m, z) * sp.h1vp(m, z) + 2.0,
            "S": 2.0 * self.a * sp.iv(m, z) * sp.kv(m, z),
            "T": 1j * np.pi * self.a * K * K * sp.jvp(m, z) * sp.h1vp(m, z),
            "Kp": 2.0 * self.a * K * sp.iv(m, z) * sp.kvp(m, z),
        }
        for name, blk in (("K", blk_K), ("S", blk_S), ("T", blk_T), ("Kp", blk_Kp)):
            got = blk @ v
            err = np.abs(got - eig[name] * v).max() / max(abs(eig[name]), 1e-10)
            assert err < 1e-9, f"block {name}, mode {n}: rel err {err:.2e}"


@pytest.mark.parametrize("m", [16, 18, 128])
def test_maue_product_matches_dense_differentiation(m):
    # D from the cot formula for spectral differentiation on m equispaced nodes
    i = np.arange(m)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        D = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / m)
    np.fill_diagonal(D, 0.0)
    rng = np.random.default_rng(m)
    X = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    dense = D @ X @ D
    assert np.linalg.norm(_maue_product(X) - dense) / np.linalg.norm(dense) < 1e-12


@pytest.mark.parametrize("m, group", [(16, 4), (18, 3), (128, 2), (64, 64)])
def test_maue_product_takes_the_first_rows_of_a_block_circulant_matrix(m, group):
    # X holds the first m/group rows; the rest are X shifted: A[i + h, j + h] = A[i, j]
    h = m // group
    rng = np.random.default_rng(m)
    X = rng.standard_normal((h, m)) + 1j * rng.standard_normal((h, m))
    full = _maue_product(np.vstack([np.roll(X, p * h, axis=1) for p in range(group)]))[:h]
    assert np.linalg.norm(_maue_product(X, group) - full) / np.linalg.norm(full) < 1e-12


@pytest.mark.parametrize("kind, m2", [("star", 130), ("kite", 64)])
def test_row_blocks_leave_the_system_bit_identical(kind, m2, monkeypatch):
    # one block runs every formula on full arrays; one row per block mirrors
    # the most; 130 rows end the default blocking with a partial block
    disc = discretize(make_curve(kind), m2)
    systems = []
    for blocks in (1, forward.KERNEL_ROW_BLOCKS, m2):
        monkeypatch.setattr(forward, "KERNEL_ROW_BLOCKS", blocks)
        systems.append([half.tobytes() for half in assemble_system(disc, K)])
    assert systems[0] == systems[1] == systems[2]


class _CountingSpecial:
    """Stands in for scipy.special and counts the values each routine returns."""

    def __init__(self):
        self.values = 0

    def __getattr__(self, name):
        fn = getattr(sp, name)

        def counted(*args):
            out = fn(*args)
            self.values += np.size(out)
            return out
        return counted


def test_kernels_evaluated_once_per_symmetric_pair(monkeypatch):
    m2 = 130
    disc = discretize(make_curve("star"), m2)
    counter = _CountingSpecial()
    monkeypatch.setattr(specfun, "sp", counter)
    assemble_system(disc, K)
    # eight kernels, each on the upper block trapezoids: about half of the pairs
    assert 8 * m2 * (m2 + 1) / 2 <= counter.values < 0.6 * 8 * m2 * m2


def test_assembly_peak_memory_is_a_small_multiple_of_the_system():
    disc = discretize(make_curve("star"), 512)
    tracemalloc.start()
    try:
        left, right = assemble_system(disc, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * (left.nbytes + right.nbytes)


def test_solver_holds_each_block_once():
    # the kite (one character): [A11; A21] complex, [A12; A22] real, S complex,
    # A22's LU and W real: 32 + 16 + 16 + 8 + 8 = 80 bytes per m2^2; the star's
    # four characters hold a quarter of its first rows' blocks and a sixteenth of the rest
    m2 = 512
    for kind in ("star", "kite"):
        tracemalloc.start()
        try:
            solver = ScatteringSolver(make_curve(kind), K, m2)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not hasattr(solver, "system")
        assert current <= 84 * m2**2


def test_solver_init_holds_no_full_size_temporary():
    # S = A11 - W A21 is one product written straight into S's buffer, then
    # A11 - S in place, with no copy of A11 and no W A21 temporary; S holds
    # one (m2/m) x (m2/m) matrix per character
    m2 = 256
    for kind in ("star", "kite"):
        tracemalloc.start()
        try:
            solver = ScatteringSolver(make_curve(kind), K, m2)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solver.lu_schur[0].nbytes == 16 * m2**2 // solver.group
        assert peak - current <= 0.5 * 16 * m2**2


@pytest.mark.parametrize("make", [
    lambda star: ScatteringSolver(star, np.nan, 64),
    lambda star: ScatteringSolver(star, np.inf, 64),
    lambda star: ScatteringSolver(star, K, 64, node_offset=np.nan),
    lambda star: ScatteringSolver(star, K, 64, node_offset=-np.inf),
], ids=["k-nan", "k-inf", "offset-nan", "offset-inf"])
def test_solver_refuses_non_finite_input(make):
    # refused by name before any work, with no numpy warning on the way
    with pytest.raises(ValueError, match="nan|inf"), warnings.catch_warnings():
        warnings.simplefilter("error")
        make(make_curve("star"))


def test_modified_helmholtz_blocks_are_real():
    m2 = 64
    left, right = assemble_system(discretize(make_curve("star"), m2), K)
    assert left.dtype == np.complex128 and left.shape == (2 * m2, m2)
    assert right.dtype == np.float64 and right.shape == (2 * m2, m2)


def test_system_entries_finite_bounded_nonsymmetric(ff_star):
    disc = discretize(make_curve("star"), 128)
    A = np.hstack(assemble_system(disc, K))
    assert np.all(np.isfinite(A))
    assert np.linalg.norm(A, ord=2) < 1e3
    assert not np.allclose(A, A.T)


def test_odd_node_count_rejected():
    with pytest.raises(ValueError):
        discretize(make_curve("circle"), 127)
    with pytest.raises(ValueError):
        discretize(make_curve("circle"), 8)


@pytest.mark.parametrize("n_nodes", [128.0, "128", None])
def test_fractional_node_count_rejected(n_nodes):
    with pytest.raises(ValueError, match="n_nodes must be an even integer"):
        discretize(make_curve("circle"), n_nodes)


def test_coincident_nodes_rejected():
    import dataclasses

    # a pi-periodic "curve" traverses the circle twice: every node coincides
    # with its antipodal partner, which the assembly must refuse
    circle = make_curve("circle")

    def doubled_frame(t):
        x, dx, ddx = circle._frame(2.0 * t)
        return x, 2.0 * dx, 4.0 * ddx

    doubled = dataclasses.replace(circle, _frame=doubled_frame)
    disc = discretize(doubled, 64)
    with pytest.raises(RuntimeError):
        assemble_system(disc, K)
    # and it refuses a wavenumber that is not positive
    with pytest.raises(ValueError, match="k > 0"):
        assemble_system(discretize(circle, 64), 0.0)


def test_solve_linearity():
    disc = discretize(make_curve("circle"), 64)
    A = np.hstack(assemble_system(disc, K))
    rhs = incident_trace(disc, K, (1.0, 0.0))
    x1 = np.linalg.solve(A, rhs)
    x2 = np.linalg.solve(A, 3.5 * rhs)
    assert np.allclose(x2, 3.5 * x1, rtol=1e-11)


def test_disk_rotational_covariance():
    # rotating the incidence by one node spacing rolls the disk densities
    m2 = 64
    solver = ScatteringSolver(make_curve("circle"), K, m2)
    shift = 2  # nodes
    beta = 2 * np.pi * shift / m2
    dirs = np.array([[1.0, 0.0], [np.cos(beta), np.sin(beta)]])
    phi1, phi2 = solver.solve(incident_trace(solver.disc, K, dirs))
    assert np.allclose(phi1[:, 1], np.roll(phi1[:, 0], shift), atol=1e-10)
    assert np.allclose(phi2[:, 1], np.roll(phi2[:, 0], shift), atol=1e-10)


def test_incident_trace_batch_matches_single_directions():
    # the (M, 2) form must agree column by column with one direction at a time
    disc = discretize(make_curve("star"), 64)
    dirs = uniform_directions(7)
    batch = incident_trace(disc, K, dirs)
    single = np.stack([incident_trace(disc, K, d) for d in dirs], axis=-1)
    assert batch.shape == (128, 7)
    assert np.allclose(batch, single, rtol=0, atol=1e-13)


def test_disk_matrix_is_circulant(ff_disk):
    e = ff_disk.entries
    scale = np.abs(e).max()
    for s in (1, 7, 31):
        assert np.abs(np.roll(np.roll(e, s, 0), s, 1) - e).max() / scale < 1e-8


def test_self_convergence_on_doubling(ff_star, ff_star_256):
    rel = np.abs(ff_star.entries - ff_star_256.entries).max() / np.abs(ff_star.entries).max()
    assert rel < 1e-8


def test_peanut_self_convergence(ff_peanut, ff_peanut_256):
    rel = np.abs(ff_peanut.entries - ff_peanut_256.entries).max() / np.abs(ff_peanut.entries).max()
    assert rel < 1e-8


@pytest.mark.parametrize("kind", ["circle", "ellipse", "kite"])
def test_remaining_shapes_self_convergence(kind):
    c = make_curve(kind)
    a = assemble_far_field_matrix(c, K, 32, 128)
    b = assemble_far_field_matrix(c, K, 32, 256)
    assert np.abs(a.entries - b.entries).max() / np.abs(b.entries).max() < 1e-8


def test_higher_wavenumber_regression():
    # backward-stable solves must not be rejected away from the benchmark k
    ff = assemble_far_field_matrix(make_curve("star"), 7.0, 64, 192)
    from plate_echo.verify import check_operator_identity

    assert check_operator_identity(ff).value < 1e-3


@given(
    scale=st.floats(0.8, 1.8),
    amp=st.floats(0.05, 0.4),
    petals=st.sampled_from([3, 4, 5]),
)
@settings(max_examples=5, deadline=None)
def test_identity_over_random_star_family(scale, amp, petals):
    # the operator identity is an end-to-end probe needing no reference data,
    # so it makes a cheap whole-solver property over the shape family
    from plate_echo.verify import check_operator_identity

    curve = make_curve("star", (scale, amp, float(petals)))
    ff = assemble_far_field_matrix(curve, K, 64, 256)
    assert check_operator_identity(ff).value < 1e-6


def test_node_offset_invariance(ff_star):
    shifted = assemble_far_field_matrix(make_curve("star"), K, 64, 128, node_offset=0.3)
    rel = np.abs(shifted.entries - ff_star.entries).max() / np.abs(ff_star.entries).max()
    assert rel < 1e-8


def test_direction_layout():
    d = uniform_directions(8)
    assert np.allclose(d[0], [1.0, 0.0])
    assert np.allclose(d[2], [0.0, 1.0], atol=1e-15)
    assert np.allclose(np.hypot(d[:, 0], d[:, 1]), 1.0)


def test_n_dirs_precondition():
    with pytest.raises(ValueError):
        assemble_far_field_matrix(make_curve("circle"), K, 3, 64)


def test_farfield_file_round_trip(tmp_path, ff_star):
    path = tmp_path / "ff.txt"
    save_farfield(ff_star, path)
    back = load_farfield(path)
    assert back.n_dirs == ff_star.n_dirs
    assert back.k == ff_star.k
    assert back.shape_kind == "star"
    # %.17g round-trips doubles exactly
    assert np.array_equal(back.entries, ff_star.entries)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# biharmonic-farfield v1 N=64 k=4 shape=star")


def test_farfield_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.txt"
    for header in ("# something else", "# biharmonic-farfield", "",
                   "# biharmonic-farfield v1 k=4", "# biharmonic-farfield v1 N=x k=4",
                   "# biharmonic-farfield v1 N4 k=4", "# biharmonic-farfield v1 N=0 k=4",
                   "# biharmonic-farfield v1 N=1 k=nan", "# biharmonic-farfield v1 N=1 k=inf",
                   "# biharmonic-farfield v1 N=1 k=0", "# biharmonic-farfield v1 N=1 k=-4"):
        p.write_text(header + "\n1 1 0 0\n")
        with pytest.raises(ValueError):
            load_farfield(p)


def test_farfield_file_rejects_truncation(tmp_path, ff_star):
    p = tmp_path / "ff.txt"
    save_farfield(ff_star, p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-10]) + "\n")
    with pytest.raises(ValueError):
        load_farfield(p)


# entries with awkward text forms: signed zero, the smallest subnormal, a huge
# value, an exact integer, an inexact decimal and negatives
FORMAT_VALUES = (-0.0, 5e-324, 1e300, 1.0, 0.1, -2.5e-7, -1e-300, -7.0)


def _small_matrix(n=4):
    vals = np.resize(np.array(FORMAT_VALUES), n * n)
    entries = np.empty((n, n), dtype=complex)
    entries.real = vals.reshape(n, n)
    entries.imag = np.roll(vals, 4).reshape(n, n)     # -0.0 meets 0.1 both ways round
    return FarFieldMatrix(k=4.0, entries=entries, shape_kind="star")


def test_farfield_file_lines_follow_the_format(tmp_path):
    _check_farfield_file_lines(tmp_path, 4)


def test_farfield_file_lines_follow_the_format_two_digit_rows(tmp_path):
    # N = 12 takes two-digit row indices into each row's template
    _check_farfield_file_lines(tmp_path, 12)


def _check_farfield_file_lines(tmp_path, n):
    ff = _small_matrix(n)
    path = tmp_path / "ff.txt"
    save_farfield(ff, path)
    expected = [f"# biharmonic-farfield v1 N={n} k=4 shape=star"]
    for i in range(n):
        for j in range(n):
            re, im = float(ff.entries[i, j].real), float(ff.entries[i, j].imag)
            expected.append(f"{i + 1} {j + 1} {re:.17g} {im:.17g}")
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    back = load_farfield(path)
    # bit-exact, the sign of zero included
    assert np.array_equal(back.entries.view(np.uint64), ff.entries.view(np.uint64))


def _edited(tmp_path, edit):
    path = tmp_path / "ff.txt"
    save_farfield(_small_matrix(), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _set_index(line_no, i, j):
    def edit(lines):
        lines[line_no] = f"{i} {j} " + lines[line_no].split(" ", 2)[2]
    return edit


def _swap(lines):
    lines[3], lines[4] = lines[4], lines[3]


def _duplicate(lines):
    lines[5] = lines[4]


def _non_numeric(lines):
    lines[7] = lines[7].rsplit(" ", 1)[0] + " abc"


def _non_finite(value):
    def edit(lines):
        lines[7] = lines[7].rsplit(" ", 1)[0] + " " + value
    return edit


def _header_only(lines):
    del lines[1:]


def _five_tokens(lines):
    lines[2] += " 0"


def _five_then_three(lines):
    lines[2] += " " + lines[3].split(" ", 1)[0]
    lines[3] = lines[3].split(" ", 1)[1]


def _extra_line(lines):
    lines.append(lines[-1])


def _missing_last_line(lines):
    del lines[-1]


def _huge_header(lines):
    # 16 lines cannot hold 10^12 entries: refused before the (N^2, 2) buffer is allocated
    lines[0] = lines[0].replace("N=4", "N=1000000")


MISFORMATTED = pytest.mark.parametrize("edit", [
    _set_index(16, 0, 0),        # index 0: used to land in entries[-1, -1]
    _set_index(16, -1, 4),       # a negative index wrapped the same way
    _set_index(3, 1, 5),         # above N: used to raise IndexError
    _set_index(16, 5, 4),
    _duplicate,                  # passed the count check, left a zero entry
    _swap,
    _non_numeric,
    _non_finite("nan"),
    _non_finite("-inf"),
    _five_tokens,
    _five_then_three,
    _header_only,
    _extra_line,
    _missing_last_line,
    _huge_header,
], ids=["index-0", "negative", "column-above-n", "row-above-n", "duplicate", "swapped",
        "non-numeric", "nan-entry", "inf-entry", "five-tokens", "five-then-three", "header-only",
        "extra-line", "missing-last-line", "huge-header"])


def _refuses(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # a refusal is the error alone, no warning
        with pytest.raises(ValueError):
            load_farfield(path)


@MISFORMATTED
def test_farfield_file_rejects_misformatted_body(tmp_path, edit):
    _refuses(_edited(tmp_path, edit))


@MISFORMATTED
def test_farfield_file_rejects_misformatted_body_in_small_blocks(tmp_path, monkeypatch, edit):
    # 7-line blocks end inside the 4-entry rows, so every check meets a block edge
    monkeypatch.setattr(farfield, "LOAD_BLOCK_LINES", 7)
    _refuses(_edited(tmp_path, edit))


@pytest.mark.parametrize("n", [1, 3, 64])
def test_farfield_file_round_trip_in_small_blocks(tmp_path, monkeypatch, n):
    monkeypatch.setattr(farfield, "LOAD_BLOCK_LINES", 7)
    ff = _small_matrix(n)
    path = tmp_path / "ff.txt"
    save_farfield(ff, path)
    back = load_farfield(path)
    # bit-exact, the sign of zero included
    assert np.array_equal(back.entries.view(np.uint64), ff.entries.view(np.uint64))


def test_farfield_file_skips_blank_lines_between_entries(tmp_path, monkeypatch):
    monkeypatch.setattr(farfield, "LOAD_BLOCK_LINES", 7)
    ff = _small_matrix()
    path = tmp_path / "ff.txt"
    save_farfield(ff, path)
    lines = path.read_text().splitlines()
    # blank lines after the header, at a block edge (after entry 7), mid-block and at the end
    for at in (17, 12, 8, 1):
        lines.insert(at, "")
    path.write_text("\n".join(lines) + "\n\n")
    assert np.array_equal(load_farfield(path).entries.view(np.uint64), ff.entries.view(np.uint64))


def test_farfield_load_peak_memory_is_near_the_entries(tmp_path, monkeypatch):
    # the body is parsed block by block straight into the result, so besides
    # the entries only one 4096-line block and its index checks are held
    monkeypatch.setattr(farfield, "LOAD_BLOCK_LINES", 4096)
    n = 256
    rng = np.random.default_rng(0)
    entries = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = tmp_path / "ff.txt"
    save_farfield(FarFieldMatrix(k=K, entries=entries), path)
    tracemalloc.start()
    try:
        back = load_farfield(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.entries, entries)
    assert peak <= 1.5 * entries.nbytes


def test_other_shapes_satisfy_identity():
    # ellipse and kite round out the shape coverage; the operator identity is
    # the external-data-free end-to-end probe
    from plate_echo.verify import check_operator_identity

    for kind in ("ellipse", "kite"):
        ff = assemble_far_field_matrix(make_curve(kind), K, 64, 128)
        assert np.all(np.isfinite(ff.entries))
        assert check_operator_identity(ff).value < 1e-8


def _dense_system(solver):
    """The dense 4n x 4n system a solver factors, from assemble_system with its group m.

    Block row p of each block is the first rows shifted by p n/m; for m = 1
    it is np.hstack(assemble_system(disc, K)).
    """
    m, m2 = solver.group, solver.disc.n_nodes
    h = m2 // m
    left, right = assemble_system(solver.disc, K, m)
    return np.vstack([np.hstack([np.roll(half[rows], p * h, axis=1) for half in (left, right)])
                      for rows in (slice(0, h), slice(h, 2 * h)) for p in range(m)])


@pytest.mark.parametrize("m2", [128, 256])
@pytest.mark.parametrize("kind", ["star", "peanut", "kite", "circle"])
def test_block_solve_matches_dense_solve(kind, m2):
    # the Schur-complement solve of each character against a dense solve of the system
    solver = ScatteringSolver(make_curve(kind), K, m2)
    system = _dense_system(solver)
    # the norm is taken over the two halves, so it matches the dense one to rounding
    assert solver.system_norm == pytest.approx(np.linalg.norm(system), rel=1e-12)
    dirs = uniform_directions(64)
    rhs = incident_trace(solver.disc, K, dirs)
    phi1, phi2 = solver.solve(rhs)
    ref = np.linalg.solve(system, rhs)
    dens = np.concatenate([phi1, phi2])
    assert np.abs(dens - ref).max() / np.abs(ref).max() < 1e-9
    F = solver.far_field_matrix(64).entries
    F_ref = solver.far_field(ref[:m2], dirs)
    assert np.abs(F - F_ref).max() / np.abs(F_ref).max() < 1e-12


@pytest.mark.parametrize("kind", ["star", "circle", "kite"])
def test_backward_error_matches_dense_residual(kind):
    # a perturbed solution puts the residual far above rounding; the check over
    # the characters, which reuses r2 = b2 - A21 phi1, against the dense residual
    solver = ScatteringSolver(make_curve(kind), K, 128)
    m2 = solver.disc.n_nodes
    rhs = incident_trace(solver.disc, K, uniform_directions(8))
    rng = np.random.default_rng(2)
    system = _dense_system(solver)
    sols = np.linalg.solve(system, rhs)
    sols += 1e-6 * (rng.standard_normal(sols.shape) + 1j * rng.standard_normal(sols.shape))
    r2 = rhs[m2:] - system[m2:, :m2] @ sols[:m2]
    dense = np.linalg.norm(system @ sols - rhs) / (
        solver.system_norm * np.linalg.norm(sols) + np.linalg.norm(rhs))
    chars = solver._characters
    got = solver._backward_error(chars(sols), chars(rhs), chars(r2)[0])
    assert got == pytest.approx(dense, rel=1e-8)


def test_solver_factors_twice_and_solves_through_lu_solve(monkeypatch):
    import plate_echo.forward as forward

    calls = {"lu_factor": 0, "lu_solve": 0}

    def counting(name):
        f = getattr(forward, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(forward, name, counting(name))
    for kind in ("star", "kite"):                           # four characters, one
        calls.update(lu_factor=0, lu_solve=0)
        solver = ScatteringSolver(make_curve(kind), K, 64)
        m = solver.group
        assert calls == {"lu_factor": 2 * m, "lu_solve": 1}     # A22 and S of each character; W
        solver.solve(incident_trace(solver.disc, K, uniform_directions(8)))
        assert calls == {"lu_factor": 2 * m, "lu_solve": 3}
        solver.far_field_matrix(16)
        assert calls == {"lu_factor": 2 * m, "lu_solve": 5}


@pytest.mark.parametrize("edit", ["zero row", "repeated row"])
def test_singular_modified_helmholtz_block_raises(edit, monkeypatch):
    # K~' - I made singular, exactly (a zero row) or to rounding (a repeated
    # row): the solve must refuse, never return NaN or an inaccurate answer
    import plate_echo.forward as forward

    def singular(disc, k, group=1):
        left, right = assemble_system(disc, k, group)
        h = right.shape[0] // 2                          # the first rows of A22 start at row h
        right[h + 5] = 0.0 if edit == "zero row" else right[h + 6]
        return left, right

    monkeypatch.setattr(forward, "assemble_system", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                  # LAPACK's zero-pivot and NaN warnings
        solver = ScatteringSolver(make_curve("star"), K, 64)
        with pytest.raises(RuntimeError, match="linear solve failed"):
            solver.solve(incident_trace(solver.disc, K, uniform_directions(8)))


@pytest.mark.parametrize("rhs_shape", [(256,), (255, 4), (256, 4, 1)])
def test_solve_refuses_misshapen_right_hand_sides(rhs_shape):
    solver = ScatteringSolver(make_curve("star"), K, 128)
    with pytest.raises(ValueError, match=r"rhs must have shape \(256, M\)"):
        solver.solve(np.ones(rhs_shape, dtype=complex))


def test_far_field_rows_match_the_far_field_matrix():
    # far_field at any directions is the matrix's rows there; a real rhs is taken as complex
    solver = ScatteringSolver(make_curve("kite"), K, 128)
    dirs = uniform_directions(16)
    rhs = incident_trace(solver.disc, K, dirs)
    phi1, _ = solver.solve(rhs)
    F = solver.far_field_matrix(16).entries
    assert np.array_equal(solver.far_field(phi1, dirs), F)
    assert np.array_equal(solver.far_field(phi1, dirs[3:5]), F[3:5])
    assert np.array_equal(solver.solve(rhs.real)[0], solver.solve(rhs.real + 0j)[0])


@pytest.mark.parametrize("kind, k, m2, n_dirs", [
    ("star", K, 128, 1024), ("kite", K, 128, 1024), ("peanut", K, 256, 512), ("star", 8.0, 256, 1024),
])
def test_far_field_operator_applies_the_matrix(kind, k, m2, n_dirs):
    # F u through one solve per block of test vectors, against the tabulated matrix:
    # ring test vectors out to k r = 400 and random complex vectors
    solver = ScatteringSolver(make_curve(kind), k, m2)
    op = solver.far_field_operator(n_dirs)
    assert (op.k, op.n_dirs) == (k, n_dirs)
    assert np.array_equal(op.directions, uniform_directions(n_dirs))
    rng = np.random.default_rng(5)
    rings = np.geomspace(10.0, 100.0, 12)[:, None, None] * uniform_directions(8)
    P = np.vstack([np.exp(-1j * k * (rings.reshape(-1, 2) @ op.directions.T)),
                   rng.standard_normal((5, n_dirs)) + 1j * rng.standard_normal((5, n_dirs))])
    expected = solver.far_field_matrix(n_dirs).apply(P)
    assert op.apply(P).shape == P.shape
    assert np.abs(op.apply(P) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_far_field_operator_refuses_too_few_directions():
    solver = ScatteringSolver(make_curve("star"), K, 64)
    with pytest.raises(ValueError, match="n_dirs must be >= 4"):
        solver.far_field_operator(3)


@pytest.mark.parametrize("n_dirs", [4.5, 64.0, 3, 2, 0, True, "64"])
def test_direction_counts_must_be_integers_of_at_least_four(n_dirs):
    # 4.5 used to give a 5 x 5 matrix on the angles 2 pi i / 4.5, and True one direction
    solver = ScatteringSolver(make_curve("star"), K, 64)
    for build in (uniform_angles, uniform_directions, solver.far_field_matrix,
                  solver.far_field_operator, lambda n: disk_far_field_matrix(1.0, K, n)):
        with pytest.raises(ValueError, match="n_dirs must be >= 4"):
            build(n_dirs)


def test_direction_counts_take_numpy_integers():
    n = np.int64(6)
    assert np.array_equal(uniform_angles(n), 2.0 * np.pi * np.arange(6) / 6)
    assert disk_far_field_matrix(1.0, K, n).n_dirs == 6
    assert ScatteringSolver(make_curve("star"), K, 64).far_field_operator(n).n_dirs == 6


def test_incident_trace_and_far_field_write_into_their_outputs():
    # the same floats, bit for bit, as the whole-array expressions, with only
    # the result (plus one real x d^T, or the far-field rows E) live at the peak
    solver = ScatteringSolver(make_curve("star"), K, 256)
    disc, dirs = solver.disc, uniform_directions(1024)

    def reference(d):
        phase = np.exp(1j * K * (disc.x @ d.T))
        return -2.0 * np.concatenate([phase, 1j * K * (disc.normal @ d.T) * phase])

    tracemalloc.start()
    try:
        rhs = incident_trace(disc, K, dirs)
        rhs_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rhs, reference(dirs))
    assert np.array_equal(incident_trace(disc, K, dirs[5]), reference(dirs[5]))
    assert rhs_peak <= 1.3 * rhs.nbytes

    phi1 = np.tile(solver.solve(rhs[:, :8])[0], 128)
    w = np.pi / disc.half
    E = -1j * K * w * (dirs @ disc.normal_raw.T) * np.exp(-1j * K * (dirs @ disc.x.T))
    tracemalloc.start()
    try:
        far = solver.far_field(phi1, dirs)
        far_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(far, E @ phi1)
    assert far_peak <= far.nbytes + 1.5 * E.nbytes


# --- the windowed modified-Helmholtz split, above k diam of about 17.5 ------
def _rel_max(A, B):
    return np.abs(A - B).max() / np.abs(B).max()


@pytest.mark.parametrize("k, m2", [(16.0, 256), (20.0, 256), (30.0, 384), (40.0, 512)])
def test_windowed_split_matches_disk_oracle_at_high_k(k, m2):
    # Kress's split alone is 2.3e-3 off at k = 16 and 0.4 off at k = 20
    ff = assemble_far_field_matrix(make_curve("circle"), k, 64, m2)
    assert _rel_max(ff.entries, disk_far_field_matrix(1.0, k, 64).entries) <= 1e-9


def test_windowed_split_reaches_the_disk_oracle_at_k30():
    # 1.7e-11 while the log weights took cosines of unreduced angles
    ff = assemble_far_field_matrix(make_curve("circle"), 30.0, 64, 384)
    assert _rel_max(ff.entries, disk_far_field_matrix(1.0, 30.0, 64).entries) <= 6e-12


@pytest.mark.parametrize("kind, bound", [("star", 4e-11), ("kite", 2e-12), ("peanut", 2e-12)])
def test_far_field_floor_of_512_against_1024_nodes(kind, bound):
    # 1.3e-10, 1.2e-11 and 5.7e-12 while the log weights took cosines of unreduced angles
    curve = make_curve(kind)
    coarse = assemble_far_field_matrix(curve, K, 64, 512).entries
    assert _rel_max(coarse, assemble_far_field_matrix(curve, K, 64, 1024).entries) <= bound


@pytest.mark.parametrize("k", [8.0, 12.0])
def test_windowed_split_converges_on_the_star(k):
    # n-vs-2n at 256 nodes; Kress's split alone reads 3.7e-4 at k = 8 and 1.2 at k = 12
    star = make_curve("star")
    coarse = assemble_far_field_matrix(star, k, 64, 256).entries
    fine = assemble_far_field_matrix(star, k, 64, 512).entries
    assert _rel_max(coarse, fine) <= 1e-8


def test_window_is_off_at_the_presets_and_on_for_the_high_k_disk(monkeypatch):
    calls = []
    erfc = forward.erfc
    monkeypatch.setattr(forward, "erfc", lambda t: calls.append(np.size(t)) or erfc(t))
    for kind in ("star", "peanut"):                  # both presets: k = 4, 128 nodes
        ScatteringSolver(make_curve(kind), K, 128)
    assert calls == []
    assemble_system(discretize(make_curve("circle"), 256), 16.0)
    # one call per assembly, on the table of its 256 node lags
    assert calls == [256]


def test_window_switch_reads_the_curve_diameter(monkeypatch):
    # the star at k = 4 with 128 nodes: 2a = 2.53 < pi, so only I_0(k diam) keeps Kress's rule
    calls = []
    erfc = forward.erfc
    monkeypatch.setattr(forward, "erfc", lambda t: calls.append(np.size(t)) or erfc(t))
    ScatteringSolver(make_curve("star"), K, 128)
    assert calls == []
    monkeypatch.setattr(ParametricCurve, "diameter", lambda self: 10.0)   # k diam = 40
    ScatteringSolver(make_curve("star"), K, 128)
    # one call on the table of the 128 node lags, whatever the group and row blocks
    assert calls == [128]


def test_row_blocks_leave_the_windowed_system_bit_identical(monkeypatch):
    disc = discretize(make_curve("circle"), 130)
    systems = []
    for blocks in (1, forward.KERNEL_ROW_BLOCKS, 130):
        monkeypatch.setattr(forward, "KERNEL_ROW_BLOCKS", blocks)
        systems.append([half.tobytes() for half in assemble_system(disc, 16.0)])
    assert systems[0] == systems[1] == systems[2]


# --- the symmetry-adapted solve: m = gcd(rotation order, n_nodes) characters
def _star(petals):
    return make_curve("star", (1.5, 0.3, petals))


@pytest.mark.parametrize("curve, m2, m", [
    (_star(5), 128, 1), (_star(4), 130, 2), (_star(4), 128, 4), (_star(5), 130, 5),
    (make_curve("kite"), 128, 1), (make_curve("peanut"), 130, 2), (make_curve("ellipse"), 64, 2),
    (make_curve("circle"), 128, 128), (make_curve("circle"), 130, 130),
], ids=["star5-128", "star4-130", "star4-128", "star5-130", "kite", "peanut", "ellipse",
        "circle-128", "circle-130"])
def test_group_is_the_rotation_order_that_divides_the_node_count(curve, m2, m):
    assert ScatteringSolver(curve, K, m2).group == m


@pytest.mark.parametrize("curve, m2, group", [
    (make_curve("kite"), 128, 4), (_star(4), 128, 3), (_star(4), 130, 4), (_star(4), 128, 0),
    (make_curve("circle"), 128, 3), (make_curve("circle"), 128, 2.0),
], ids=["kite-4", "star4-3", "star4-130-4", "star4-0", "circle-3", "circle-float"])
def test_assemble_system_refuses_a_group_the_nodes_do_not_have(curve, m2, group):
    # the kite's group 4 used to return a wrong strip, the star's 3 to fail inside numpy
    with pytest.raises(ValueError, match=rf"group={group!r} does not divide"):
        assemble_system(discretize(curve, m2), K, group)


def test_assemble_system_takes_every_divisor_of_the_circle_group():
    # each divisor m of a curve's group builds the first n_nodes/m rows of every block: the
    # circle's group is n_nodes, and the stars' odd groups and groups above 2 mirror block g into -g
    for curve, m2, groups in [(make_curve("circle"), 32, (1, 2, 4, 8, 16, 32)),
                              (_star(4), 128, (1, 2, 4)),
                              (make_curve("star", (1.0, 0.2, 6)), 96, (1, 2, 3, 6))]:
        disc = discretize(curve, m2)
        full = np.hstack(assemble_system(disc, K))
        for group in groups:
            h = m2 // group
            strip = np.hstack(assemble_system(disc, K, group))
            assert _rel_max(strip, full[np.r_[0:h, m2:m2 + h]]) <= 1e-13


@pytest.mark.parametrize("curve, m2, calls", [
    (_star(4), 128, 31), (make_curve("star", (1.0, 0.2, 6)), 96, 31), (make_curve("kite"), 128, 31),
    (make_curve("circle"), 128, 1),
], ids=["star4", "star6", "kite", "circle"])
def test_every_group_fills_a_row_block_in_at_most_two_calls(curve, m2, calls, monkeypatch):
    # the upper trapezoid of all m column blocks, then its mirror; no row block after the last
    counted = []
    fill = forward._fill_block
    monkeypatch.setattr(forward, "_fill_block", lambda *args, **kw: counted.append(1) or fill(*args, **kw))
    ScatteringSolver(curve, K, m2)
    assert len(counted) == calls


@pytest.mark.parametrize("curve, k, m2", [
    (_star(4), K, 128), (_star(4), K, 256), (_star(4), 16.0, 512), (_star(5), K, 130),
    (make_curve("peanut"), K, 128), (make_curve("ellipse"), K, 128), (make_curve("circle"), K, 128),
    (make_curve("circle"), 16.0, 256),
], ids=["star", "star-256", "star-windowed", "star5-130", "peanut", "ellipse", "circle",
        "circle-windowed"])
def test_symmetric_solve_matches_a_dense_solve_of_the_full_system(curve, k, m2):
    # the characters' far field against np.linalg.solve of every row assemble_system builds,
    # at a random node offset; the window depends on |t_i - t_j| only, so it keeps the symmetry
    offset = float(np.random.default_rng(m2).uniform(0.0, 2.0 * np.pi))
    solver = ScatteringSolver(curve, k, m2, node_offset=offset)
    assert solver.group > 1
    dirs = uniform_directions(64)
    system = np.hstack(assemble_system(solver.disc, k))
    ref = np.linalg.solve(system, incident_trace(solver.disc, k, dirs))
    F = solver.far_field_matrix(64).entries
    assert _rel_max(F, solver.far_field(ref[:m2], dirs)) <= 5e-11


def test_symmetric_solver_evaluates_a_fraction_of_the_kernels(monkeypatch):
    # the first quarter of the rows of the 4-petal star, each pair orbit
    # evaluated about once: about 0.133 of the pairs (0.5 unreduced)
    m2 = 128
    counter = _CountingSpecial()
    monkeypatch.setattr(specfun, "sp", counter)
    assert ScatteringSolver(make_curve("star"), K, m2).group == 4
    assert counter.values <= 0.3 * 8 * m2 * m2


@pytest.mark.parametrize("kind, bound", [("star", 0.14), ("peanut", 0.27)])
def test_kernels_evaluated_once_per_pair_orbit(kind, bound, monkeypatch):
    # column block g of the first rows holds block -g's kernel values transposed, and
    # every block is evaluated as an upper trapezoid: the 4-petal star's four give 0.133
    # of the pairs (0.125 plus the diagonal tiles of blocks 1 and 3), the peanut's two 0.266
    m2 = 128
    counter = _CountingSpecial()
    monkeypatch.setattr(specfun, "sp", counter)
    ScatteringSolver(make_curve(kind), K, m2)
    assert counter.values <= bound * 8 * m2 * m2


def _translated_star():
    import dataclasses

    star = make_curve("star")

    def moved_frame(t):
        x, dx, ddx = star._frame(t)
        return x + np.array([0.5, -0.3]), dx, ddx

    return dataclasses.replace(star, _frame=moved_frame)


@pytest.mark.parametrize("curve, k, m2, n_dirs", [
    (make_curve("star"), K, 128, 64), (make_curve("star"), K, 128, 30), (make_curve("star"), K, 128, 33),
    (make_curve("peanut"), K, 128, 64), (make_curve("ellipse"), K, 128, 64),
    (make_curve("circle"), K, 128, 64), (_translated_star(), K, 128, 64),
    (make_curve("star"), 8.0, 256, 1024), (make_curve("kite"), K, 128, 64),
], ids=["star", "star-N30", "star-N33", "peanut", "ellipse", "circle", "translated-star",
        "star-k8-N1024", "kite"])
def test_far_field_matrix_matches_a_solve_of_every_direction(curve, k, m2, n_dirs):
    # N/g solves, the other densities rolled by n_nodes/g with the centroid's phase
    solver = ScatteringSolver(curve, k, m2)
    dirs = uniform_directions(n_dirs)
    F = solver.far_field_matrix(n_dirs).entries
    ref = solver.far_field(solver.solve(incident_trace(solver.disc, k, dirs))[0], dirs)
    if math.gcd(solver.group, n_dirs) == 1:
        assert np.array_equal(F, ref)
    else:
        assert _rel_max(F, ref) <= 1e-13


@pytest.mark.parametrize("kind, m2, n_rhs", [("star", 128, 16), ("circle", 128, 1), ("kite", 128, 64)])
def test_far_field_matrix_solves_n_over_g_directions(kind, m2, n_rhs, monkeypatch):
    solver = ScatteringSolver(make_curve(kind), K, m2)
    widths = []
    solve = solver.solve
    monkeypatch.setattr(solver, "solve", lambda rhs: widths.append(rhs.shape[1]) or solve(rhs))
    assert solver.far_field_matrix(64).entries.shape == (64, 64)
    assert widths == [n_rhs]


# --- an exact far field for every shape: radiating sources inside the cavity
def _interior_source_rhs(disc, k, sources):
    """Right-hand sides 2 (v, dnu v) of v = Phi_k(., y) + Phi~_k(., y), one column per source y.

    v radiates and solves the plate equation outside the cavity, so with -v in
    the place of the incident field the scattered field is v itself, and its
    far field is exactly e^{-ik xhat.y}.
    """
    diff = disc.x[:, None, :] - sources[None, :, :]          # (2n, M, 2)
    r = np.hypot(diff[..., 0], diff[..., 1])
    kr = k * r
    v = 0.25j * specfun.hankel1(0, kr) + specfun.bessel_k(0, kr) / (2.0 * np.pi)
    dv_dr = -0.25j * k * specfun.hankel1(1, kr) - k * specfun.bessel_k(1, kr) / (2.0 * np.pi)
    dnu = dv_dr * np.einsum("imc,ic->im", diff, disc.normal) / r
    return 2.0 * np.concatenate([v, dnu])


@pytest.mark.parametrize("k, m2", [(4.0, 128), (8.0, 256), (12.0, 256)])
@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_interior_sources_give_their_exact_far_field(kind, k, m2):
    curve = make_curve(kind)
    sources = 0.6 * curve.position(0.3 + 2.0 * np.pi * np.arange(5) / 5)
    assert np.all(curve.contains(sources))
    solver = ScatteringSolver(curve, k, m2)
    phi1, _ = solver.solve(_interior_source_rhs(solver.disc, k, sources))
    xhat = uniform_directions(64)
    exact = np.exp(-1j * k * (xhat @ sources.T))
    assert _rel_max(solver.far_field(phi1, xhat), exact) <= 1e-8
