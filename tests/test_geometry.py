"""Boundary curve geometry: frames, regularity, orientation."""

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
    assert np.max(np.abs(fd - c.velocity(t))) < 5e-9


@pytest.mark.parametrize("kind", SHAPE_KINDS)
def test_acceleration_matches_finite_differences(kind):
    c = make_curve(kind)
    h = 1e-5
    t = np.linspace(0.1, 2 * np.pi, 37)
    fd = (c.velocity(t + h) - c.velocity(t - h)) / (2 * h)
    assert np.max(np.abs(fd - c.acceleration(t))) < 5e-9


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
    v = c.velocity(t)
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


def test_contains_radial_and_kite():
    star = make_curve("star")
    inside = star.contains(np.array([[0.0, 0.0], [1.9, 0.0]]))
    # the notch direction theta = pi/4 has r = 1.05, the petals reach 1.95
    outside = star.contains(np.array([[1.0, 1.0], [3.0, 3.0]]))
    assert inside.all() and not outside.any()
    kite = make_curve("kite")
    assert kite.contains(np.array([[0.0, 0.0]]))[0]
    assert not kite.contains(np.array([[2.0, 0.0]]))[0]


def test_translate_shifts_rigidly():
    c = make_curve("peanut")
    v = (0.7, -0.4)
    ct = c.translate(v)
    t = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(ct.position(t), c.position(t) + np.array(v))
    assert np.allclose(ct.velocity(t), c.velocity(t))
    assert ct.contains(np.array([[0.7, -0.4]]))[0]
    assert not ct.contains(np.array([[-1.4, 0.8]]))[0]


def test_closure_periodicity():
    for c in ALL_SHAPES:
        assert np.allclose(c.position(0.0), c.position(2 * np.pi), atol=1e-12)
