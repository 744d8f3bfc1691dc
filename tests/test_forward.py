"""Integral-equation solver: block-level and end-to-end validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from plate_echo.forward import (
    FarFieldMatrix,
    ScatteringSolver,
    _maue_product,
    _symmetric_kernel,
    assemble_far_field_matrix,
    assemble_system,
    discretize,
    incident_trace,
    kress_log_weights,
    load_farfield,
    save_farfield,
    uniform_directions,
)
from plate_echo.geometry import make_curve
from plate_echo.specfun import bessel_i, bessel_j, bessel_k, bessel_y

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


CIRCLE_A = 1.3
CIRCLE_MODES = [-6, -3, 0, 1, 2, 4, 8]


def _circle_blocks(m2):
    disc = discretize(make_curve("circle", (CIRCLE_A,)), m2)
    A = assemble_system(disc, K)
    return disc, A[:m2, :m2], A[:m2, m2:], A[m2:, :m2], A[m2:, m2:]


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


@pytest.mark.parametrize("m", [18, 130])
def test_symmetric_kernel_equals_full_evaluation(m):
    rng = np.random.default_rng(m)
    x = rng.uniform(0.05, 40.0, (m, m))
    x = x + x.T
    evaluated = []

    for f in (bessel_j, bessel_y, bessel_i, bessel_k):
        def counting(n, t, f=f):
            evaluated.append(t.size)
            return f(n, t)

        for n in (0, 1):
            assert np.array_equal(_symmetric_kernel(counting, n, x), f(n, x))
    # each call evaluates the upper block trapezoid: about half the pairs
    assert sum(evaluated) / 8 < 0.6 * m * m


def test_modified_helmholtz_blocks_are_real():
    m2 = 64
    A = assemble_system(discretize(make_curve("star"), m2), K)
    assert not A[:m2, m2:].imag.any()
    assert not A[m2:, m2:].imag.any()


def test_system_entries_finite_bounded_nonsymmetric(ff_star):
    disc = discretize(make_curve("star"), 128)
    A = assemble_system(disc, K)
    assert np.all(np.isfinite(A))
    assert np.linalg.norm(A, ord=2) < 1e3
    assert not np.allclose(A, A.T)


def test_odd_node_count_rejected():
    with pytest.raises(ValueError):
        discretize(make_curve("circle"), 127)
    with pytest.raises(ValueError):
        discretize(make_curve("circle"), 8)


def test_coincident_nodes_rejected():
    import dataclasses

    # a pi-periodic "curve" traverses the circle twice: every node coincides
    # with its antipodal partner, which the assembly must refuse
    circle = make_curve("circle")
    doubled = dataclasses.replace(
        circle,
        _pos=lambda t: circle._pos(2.0 * t),
        _vel=lambda t: 2.0 * circle._vel(2.0 * t),
        _acc=lambda t: 4.0 * circle._acc(2.0 * t),
    )
    disc = discretize(doubled, 64)
    with pytest.raises(RuntimeError):
        assemble_system(disc, K)


def test_solve_linearity():
    disc = discretize(make_curve("circle"), 64)
    A = assemble_system(disc, K)
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
    phi1, phi2 = solver.solve(np.array([[1.0, 0.0], [np.cos(beta), np.sin(beta)]]))
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

    assert check_operator_identity(ff).residual < 1e-3


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
    assert check_operator_identity(ff).residual < 1e-6


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
                   "# biharmonic-farfield v1 N4 k=4", "# biharmonic-farfield v1 N=0 k=4"):
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
    return FarFieldMatrix(k=4.0, directions=uniform_directions(n), entries=entries,
                          shape_kind="star")


def test_farfield_file_lines_follow_the_format(tmp_path):
    ff = _small_matrix()
    path = tmp_path / "ff.txt"
    save_farfield(ff, path)
    expected = ["# biharmonic-farfield v1 N=4 k=4 shape=star"]
    for i in range(4):
        for j in range(4):
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


def _header_only(lines):
    del lines[1:]


def _five_tokens(lines):
    lines[2] += " 0"


def _five_then_three(lines):
    lines[2] += " " + lines[3].split(" ", 1)[0]
    lines[3] = lines[3].split(" ", 1)[1]


@pytest.mark.parametrize("edit", [
    _set_index(16, 0, 0),        # index 0: used to land in entries[-1, -1]
    _set_index(16, -1, 4),       # a negative index wrapped the same way
    _set_index(3, 1, 5),         # above N: used to raise IndexError
    _set_index(16, 5, 4),
    _duplicate,                  # passed the count check, left a zero entry
    _swap,
    _non_numeric,
    _five_tokens,
    _five_then_three,
    _header_only,
], ids=["index-0", "negative", "column-above-n", "row-above-n", "duplicate", "swapped",
        "non-numeric", "five-tokens", "five-then-three", "header-only"])
def test_farfield_file_rejects_misformatted_body(tmp_path, edit):
    path = _edited(tmp_path, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # a refusal is the error alone, no warning
        with pytest.raises(ValueError):
            load_farfield(path)


def test_other_shapes_satisfy_identity():
    # ellipse and kite round out the shape coverage; the operator identity is
    # the external-data-free end-to-end probe
    from plate_echo.verify import check_operator_identity

    for kind in ("ellipse", "kite"):
        ff = assemble_far_field_matrix(make_curve(kind), K, 64, 128)
        assert np.all(np.isfinite(ff.entries))
        assert check_operator_identity(ff).residual < 1e-8
