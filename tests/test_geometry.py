"""Boundary curve geometry: frames, regularity, orientation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from plate_echo.forward import discretize
from plate_echo.geometry import SHAPE_KINDS, make_curve

ALL_SHAPES = [make_curve(kind) for kind in SHAPE_KINDS]


def test_unit_circle_frame():
    # node 0 of a discretization offset by pi/2 sits at t = pi/2
    disc = discretize(make_curve("circle", (1.0,)), 16, offset=np.pi / 2)
    p, nu, jac = disc.x[0], disc.normal[0], disc.speed[0]
    assert np.allclose(p, [0.0, 1.0], atol=1e-15)
    assert np.allclose(nu, [0.0, 1.0], atol=1e-15)
    assert jac == pytest.approx(1.0)


def test_star_benchmark_point():
    c = make_curve("star")
    assert np.allclose(c.position(0.0), [1.95, 0.0], atol=1e-14)


def test_peanut_benchmark_point():
    c = make_curve("peanut")
    assert np.allclose(c.position(np.pi / 2), [0.0, 0.75], atol=1e-14)


def test_circle_jacobian_constant():
    jac = discretize(make_curve("circle", (2.5,)), 64).speed
    assert np.allclose(jac, 2.5, atol=1e-14)


def test_normals_unit_everywhere():
    rng = np.random.default_rng(11)
    for c in ALL_SHAPES:
        nu = discretize(c, 1000, offset=rng.uniform(0, 2 * np.pi)).normal
        assert np.max(np.abs(np.hypot(nu[:, 0], nu[:, 1]) - 1.0)) < 1e-14


def test_circle_arclength():
    jac = discretize(make_curve("circle", (2.0,)), 256).speed
    assert (2 * np.pi / 256) * jac.sum() == pytest.approx(4 * np.pi, abs=1e-12)


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_velocity_matches_finite_differences(kind):
    c = make_curve(kind)
    h = 1e-5
    t = np.linspace(0.1, 2 * np.pi, 37)
    fd = (c.position(t + h) - c.position(t - h)) / (2 * h)
    assert np.max(np.abs(fd - c.frame(t)[1])) < 5e-9


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_acceleration_matches_finite_differences(kind):
    c = make_curve(kind)
    h = 1e-5
    t = np.linspace(0.1, 2 * np.pi, 37)
    fd = (c.frame(t + h)[1] - c.frame(t - h)[1]) / (2 * h)
    assert np.max(np.abs(fd - c.frame(t)[2])) < 5e-9


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_arclength_spectral_convergence(kind):
    # the peanut/star speed functions have narrow analyticity strips (branch
    # points at |Im t| ~ 0.26 and ~0.13), so the trapezoid rule needs 128/256
    # nodes to bottom out; one more doubling then changes the arclength only
    # at round-off level
    c = make_curve(kind)
    lengths = {}
    for m in (64, 128, 256, 512):
        jac = discretize(c, m).speed
        lengths[m] = (2 * np.pi / m) * jac.sum()
    assert abs(lengths[256] - lengths[512]) / lengths[512] < 1e-12
    assert abs(lengths[64] - lengths[128]) / lengths[128] < 1e-5


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_counterclockwise_orientation(kind):
    c = make_curve(kind)
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    p = c.position(t)
    v = c.frame(t)[1]
    area = 0.5 * (2 * np.pi / 512) * np.sum(p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0])
    assert area > 0


@pytest.mark.parametrize("kind", ["circle", "ellipse", "peanut", "star"])
def test_outward_normal_flux(kind):
    disc = discretize(make_curve(kind), 512)
    p, nu, jac = disc.x, disc.normal, disc.speed
    flux = (2 * np.pi / 512) * np.sum((nu * p).sum(axis=1) * jac)
    assert flux > 0


def test_invalid_parameters():
    with pytest.raises(ValueError):
        make_curve("circle", (0.0,))
    with pytest.raises(ValueError):
        make_curve("star", (1.5, 1.0, 4.0))   # r touches zero
    with pytest.raises(ValueError):
        make_curve("banana")
    with pytest.raises(ValueError):
        make_curve("circle", (1.0, 2.0))      # wrong arity
    for kind, params in (("ellipse", (1.0, 0.0)), ("peanut", (0.0,)), ("star", (0.0, 0.3, 4.0))):
        with pytest.raises(ValueError):
            make_curve(kind, params)
    # a NaN or infinite parameter is refused before any formula sees it, so no numpy warning
    for kind, params in (("circle", (np.nan,)), ("ellipse", (np.inf, 1.0)), ("peanut", (np.inf,)),
                         ("star", (1.5, 0.3, np.nan)), ("kite", (np.nan, 1.5))):
        with pytest.raises(ValueError, match="must be finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            make_curve(kind, params)
    # finite parameters can still give a cusp or overflowing boundary data
    for kind, params, message in (("kite", (0.65, 0.0), "not regular"),
                                  ("ellipse", (1e200, 1e200), "non-finite boundary data"),
                                  ("star", (1e308, 0.3, 4.0), "non-finite boundary data")):
        with pytest.raises(ValueError, match=message), warnings.catch_warnings():
            warnings.simplefilter("error")
            make_curve(kind, params)


def test_clockwise_or_open_curve_rejected():
    # the default kite's point set traversed clockwise gave a wrong far field;
    # a non-integer petal count gives a star that does not close at t = 2 pi
    with pytest.raises(ValueError, match="shape 'kite': parametrization is not counterclockwise"):
        make_curve("kite", (0.65, -1.5))
    with pytest.raises(ValueError, match="petal count must be an integer.*4.5"):
        make_curve("star", (1.5, 0.3, 4.5))
    # a < 0 is the default kite mirrored in x, still counterclockwise: x(t) = -x_0(pi - t)
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    mirrored = make_curve("kite", (-0.65, 1.5)).position(t)
    default = make_curve("kite").position(np.pi - t)
    assert np.allclose(mirrored, default * [-1.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("kind", ["circle", "ellipse", "peanut", "star"])
def test_contains_brackets_the_radial_boundary(kind):
    c = make_curve(kind)
    th = np.random.default_rng(5).uniform(-np.pi, np.pi, 500)
    # r(theta) from a boundary point at that polar angle (t = theta for these shapes)
    r = np.hypot(*c.position(th).T)
    ray = np.stack([np.cos(th), np.sin(th)], axis=-1)
    assert c.contains(0.999 * r[:, None] * ray).all()
    assert not c.contains(1.001 * r[:, None] * ray).any()


def test_contains_radial_and_kite():
    star = make_curve("star")
    inside = star.contains(np.array([[0.0, 0.0], [1.9, 0.0]]))
    # the notch direction theta = pi/4 has r = 1.05, the petals reach 1.95
    outside = star.contains(np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert inside.all() and not outside.any()
    kite = make_curve("kite")
    assert kite.contains(np.array([[0.0, 0.0]]))[0]
    assert not kite.contains(np.array([[2.0, 0.0]]))[0]


def test_kite_containment_memory_is_bounded():
    # the even-odd test takes as many points per pass as its polygon has nodes,
    # so a whole image grid costs one pass's arrays, not points x nodes ones
    kite = make_curve("kite")
    xs = np.linspace(-4.0, 4.0, 150)
    rows = np.stack(np.meshgrid(xs, xs), axis=-1)
    tracemalloc.start()
    try:
        mask = kite.contains(rows.reshape(-1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50e6
    assert np.array_equal(mask, np.concatenate([kite.contains(row) for row in rows]))
    assert 0 < mask.sum() < mask.size
    assert kite.contains(np.zeros((0, 2))).shape == (0,)


def test_closure_periodicity():
    for c in ALL_SHAPES:
        assert np.allclose(c.position(0.0), c.position(2 * np.pi), atol=1e-12)


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_diameter_is_the_full_pair_scan_in_row_blocks(kind):
    # the same max over the same squared distances as the whole 512 x 512 array,
    # without holding that array (6.3 MB for the kite)
    c = make_curve(kind)
    p = c.position(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    brute = float(np.sqrt(np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1).max()))
    tracemalloc.start()
    try:
        diam = c.diameter()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diam == brute
    assert peak <= 2**20


@pytest.mark.parametrize("curve, exact", [
    (make_curve("circle"), 2.0), (make_curve("circle", (2.5,)), 5.0),
    (make_curve("ellipse"), 2.0), (make_curve("star"), 2 * 1.5 * 1.3),
])
def test_diameter_closed_forms(curve, exact):
    assert curve.diameter() == pytest.approx(exact, rel=1e-15, abs=0)
