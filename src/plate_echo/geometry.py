"""Analytic closed boundary curves for the cavity shapes.

A curve is a 2pi-periodic counterclockwise parametrization t -> x(t) with
closed-form velocity and acceleration, which is everything the quadrature
needs: with n(t) = (x2'(t), -x1'(t)) the outward (unnormalized) normal, the
unit normal is n/|x'| and the arclength Jacobian is |x'|.

Named shapes:

    circle   params (radius,)
    ellipse  params (a, b)                 semi-axes
    peanut   params (scale,)               r(th) = 0.5*scale*sqrt(3 cos^2 th + 1)
    star     params (scale, amp, petals)   r(th) = scale*(1 + amp*cos(petals*th))
    kite     params (a, b)                 x = (cos t + a cos 2t - a, b sin t)

All radial defaults reproduce the usual benchmark constants (peanut scale 1.5,
star 1.5/0.3/4). Parameters are stored on the curve so they can be overridden
from configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SHAPE_KINDS = ("circle", "ellipse", "peanut", "star", "kite")

_DEFAULT_PARAMS = {
    "circle": (1.0,),
    "ellipse": (1.0, 0.6),
    "peanut": (1.5,),
    "star": (1.5, 0.3, 4.0),
    "kite": (0.65, 1.5),
}


@dataclass(frozen=True)
class ParametricCurve:
    """Closed analytic curve with position/velocity/acceleration evaluators."""

    kind: str
    params: tuple
    _pos: Callable = field(repr=False, compare=False, default=None)
    _vel: Callable = field(repr=False, compare=False, default=None)
    _acc: Callable = field(repr=False, compare=False, default=None)
    _r: Callable = field(repr=False, compare=False, default=None)   # r(theta); None for the kite

    def position(self, t):
        return self._pos(np.asarray(t, dtype=float))

    def velocity(self, t):
        return self._vel(np.asarray(t, dtype=float))

    def acceleration(self, t):
        return self._acc(np.asarray(t, dtype=float))

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points strictly inside the curve."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._r is None:
            return _polygon_contains(self._pos, pts)
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return r < self._r(th)

    def diameter(self) -> float:
        """Max pairwise distance between boundary points (512-node estimate)."""
        p = self.position(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
        d2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))


def _radial(kind, params):
    """Check a radial shape's parameters and return (r, r', r'') as functions of the polar angle."""
    if kind == "circle":
        (a,) = params
        if a <= 0:
            raise ValueError("circle radius must be positive")
        return (lambda th: np.full_like(np.asarray(th, dtype=float), a),
                lambda th: np.zeros_like(th), lambda th: np.zeros_like(th))
    if kind == "ellipse":
        a, b = params
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")

        # r(th)^2 = a^2 b^2 / q(th); differentiate q = (b cos)^2 + (a sin)^2.
        def dr(th):
            q = (b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2
            dq = (a * a - b * b) * np.sin(2.0 * th)
            return -0.5 * a * b * dq * q ** -1.5

        def ddr(th):
            q = (b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2
            dq = (a * a - b * b) * np.sin(2.0 * th)
            ddq = 2.0 * (a * a - b * b) * np.cos(2.0 * th)
            return a * b * (0.75 * dq * dq / q - 0.5 * ddq) * q ** -1.5

        return (lambda th: a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2), dr, ddr)
    if kind == "peanut":
        (s,) = params
        if s <= 0:
            raise ValueError("peanut scale must be positive")

        def dr(th):
            q = 3.0 * np.cos(th) ** 2 + 1.0
            return -0.75 * s * np.sin(2.0 * th) / np.sqrt(q)

        def ddr(th):
            q = 3.0 * np.cos(th) ** 2 + 1.0
            dq = -3.0 * np.sin(2.0 * th)
            return -0.75 * s * (2.0 * np.cos(2.0 * th) / np.sqrt(q)
                                - 0.5 * np.sin(2.0 * th) * dq * q ** -1.5)

        return (lambda th: 0.5 * s * np.sqrt(3.0 * np.cos(th) ** 2 + 1.0), dr, ddr)
    s, amp, m = params                                  # star
    if s <= 0:
        raise ValueError("star scale must be positive")
    if not abs(amp) < 1:
        raise ValueError("star amplitude must satisfy |amp| < 1 so r > 0")
    return (lambda th: s * (1.0 + amp * np.cos(m * th)),
            lambda th: -s * amp * m * np.sin(m * th),
            lambda th: -s * amp * m * m * np.cos(m * th))


def make_curve(kind: str, params=None) -> ParametricCurve:
    """Build a named shape, validating that it is a regular closed curve."""
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}; expected one of {SHAPE_KINDS}")
    params = tuple(float(p) for p in (params if params is not None else _DEFAULT_PARAMS[kind]))
    if len(params) != len(_DEFAULT_PARAMS[kind]):
        raise ValueError(
            f"shape {kind!r} takes {len(_DEFAULT_PARAMS[kind])} parameters, got {len(params)}"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError(f"shape {kind!r} parameters must be finite")

    if kind == "kite":
        a, b = params
        r = None

        def pos(t):
            return np.stack([np.cos(t) + a * np.cos(2.0 * t) - a, b * np.sin(t)], axis=-1)

        def vel(t):
            return np.stack([-np.sin(t) - 2.0 * a * np.sin(2.0 * t), b * np.cos(t)], axis=-1)

        def acc(t):
            return np.stack([-np.cos(t) - 4.0 * a * np.cos(2.0 * t), -b * np.sin(t)], axis=-1)

    else:
        r, dr, ddr = _radial(kind, params)

        def pos(t):
            c, s = np.cos(t), np.sin(t)
            return np.stack([r(t) * c, r(t) * s], axis=-1)

        def vel(t):
            c, s = np.cos(t), np.sin(t)
            rt, drt = r(t), dr(t)
            return np.stack([drt * c - rt * s, drt * s + rt * c], axis=-1)

        def acc(t):
            c, s = np.cos(t), np.sin(t)
            rt, drt, ddrt = r(t), dr(t), ddr(t)
            return np.stack(
                [(ddrt - rt) * c - 2.0 * drt * s, (ddrt - rt) * s + 2.0 * drt * c],
                axis=-1,
            )

    curve = ParametricCurve(kind=kind, params=params, _pos=pos, _vel=vel, _acc=acc, _r=r)
    _validate(curve)
    return curve


def _validate(curve, samples: int = 4096):
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):   # non-finite samples are refused below
        p, v, a = curve.position(t), curve.velocity(t), curve.acceleration(t)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v)) and np.all(np.isfinite(a))):
        raise ValueError(f"shape {curve.kind!r}: non-finite boundary data")
    speed = np.hypot(v[:, 0], v[:, 1])
    if speed.min() <= 1e-12:
        raise ValueError(f"shape {curve.kind!r}: parametrization is not regular (|x'| ~ 0)")


def _polygon_contains(pos, pts, nodes: int = 1024):
    # Even-odd crossing test against a dense polygonal sampling of the curve.
    t = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    poly = pos(t)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    straddles = (y0[None, :] > py) != (y1[None, :] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / (y1 - y0)[None, :]
    hits = straddles & (px < xcross)
    return (hits.sum(axis=1) % 2) == 1
