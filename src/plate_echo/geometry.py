"""Analytic closed boundary curves for the cavity shapes.

A curve is a 2pi-periodic counterclockwise parametrization t -> x(t) whose one
evaluator, frame(t), returns x, x' and x'' in closed form. That is everything
the quadrature needs: with n(t) = (x2'(t), -x1'(t)) the outward (unnormalized)
normal, the unit normal is n/|x'| and the arclength Jacobian is |x'|. A radial
shape is x(t) = r(t) (cos t, sin t), built from its polar(th) -> (r, r', r'').
Its rotation_order m says x(t + 2pi/m) is x(t) rotated by 2pi/m: the star's
petal count, 2 for the ellipse and peanut, 0 for the circle (every rotation)
and 1 for the kite (none).

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

_DEFAULT_PARAMS = {
    "circle": (1.0,),
    "ellipse": (1.0, 0.6),
    "peanut": (1.5,),
    "star": (1.5, 0.3, 4.0),
    "kite": (0.65, 1.5),
}

SHAPE_KINDS = tuple(_DEFAULT_PARAMS)


@dataclass(frozen=True)
class ParametricCurve:
    """Closed analytic curve: frame(t) -> (x, x', x''); polar(th) -> (r, r', r''), None for the kite."""

    kind: str
    params: tuple
    _frame: Callable = field(repr=False, compare=False, default=None)
    _polar: Callable = field(repr=False, compare=False, default=None)
    rotation_order: int = field(repr=False, compare=False, default=1)

    def frame(self, t):
        return self._frame(np.asarray(t, dtype=float))

    def position(self, t):
        return self.frame(t)[0]

    def contains(self, points) -> np.ndarray:
        """Boolean mask of points strictly inside the curve."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self._polar is None:
            return _polygon_contains(self.position, pts)
        r = np.hypot(pts[:, 0], pts[:, 1])
        th = np.arctan2(pts[:, 1], pts[:, 0])
        return r < self._polar(th)[0]

    def diameter(self) -> float:
        """Max pairwise distance between 512 boundary samples, scanned 64 rows at a time."""
        x1, x2 = self.position(np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)).T
        d2 = max(((x1[a:a + 64, None] - x1[a:]) ** 2 + (x2[a:a + 64, None] - x2[a:]) ** 2).max()
                 for a in range(0, 512, 64))
        return float(np.sqrt(d2))


def _radial(kind, params):
    """Check a radial shape's parameters and return its polar(th) -> (r, r', r'')."""
    if kind == "circle":
        (a,) = params
        if a <= 0:
            raise ValueError("circle radius must be positive")
        return lambda th: (np.full_like(th, a), np.zeros_like(th), np.zeros_like(th))
    if kind == "ellipse":
        a, b = params
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")

        # r(th)^2 = a^2 b^2 / q(th); differentiate q = (b cos)^2 + (a sin)^2.
        def polar(th):
            q = (b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2
            dq = (a * a - b * b) * np.sin(2.0 * th)
            ddq = 2.0 * (a * a - b * b) * np.cos(2.0 * th)
            return (a * b / np.sqrt(q), -0.5 * a * b * dq * q ** -1.5,
                    a * b * (0.75 * dq * dq / q - 0.5 * ddq) * q ** -1.5)

        return polar
    if kind == "peanut":
        (s,) = params
        if s <= 0:
            raise ValueError("peanut scale must be positive")

        def polar(th):
            q = 3.0 * np.cos(th) ** 2 + 1.0
            dq = -3.0 * np.sin(2.0 * th)
            return (0.5 * s * np.sqrt(q), -0.75 * s * np.sin(2.0 * th) / np.sqrt(q),
                    -0.75 * s * (2.0 * np.cos(2.0 * th) / np.sqrt(q)
                                 - 0.5 * np.sin(2.0 * th) * dq * q ** -1.5))

        return polar
    s, amp, m = params                                  # star
    if s <= 0:
        raise ValueError("star scale must be positive")
    if not abs(amp) < 1:
        raise ValueError("star amplitude must satisfy |amp| < 1 so r > 0")
    if m != round(m):
        raise ValueError(f"star petal count must be an integer so the curve closes, got {m:g}")
    return lambda th: (s * (1.0 + amp * np.cos(m * th)), -s * amp * m * np.sin(m * th),
                       -s * amp * m * m * np.cos(m * th))


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
        polar = None

        def frame(t):
            c, s, c2, s2 = np.cos(t), np.sin(t), np.cos(2.0 * t), np.sin(2.0 * t)
            return (np.stack([c + a * c2 - a, b * s], axis=-1),
                    np.stack([-s - 2.0 * a * s2, b * c], axis=-1),
                    np.stack([-c - 4.0 * a * c2, -b * s], axis=-1))

    else:
        polar = _radial(kind, params)

        def frame(t):
            c, s = np.cos(t), np.sin(t)
            r, dr, ddr = polar(t)
            return (np.stack([r * c, r * s], axis=-1),
                    np.stack([dr * c - r * s, dr * s + r * c], axis=-1),
                    np.stack([(ddr - r) * c - 2.0 * dr * s, (ddr - r) * s + 2.0 * dr * c], axis=-1))

    order = abs(round(params[2])) if kind == "star" else {"circle": 0, "kite": 1}.get(kind, 2)
    curve = ParametricCurve(kind=kind, params=params, _frame=frame, _polar=polar,
                            rotation_order=order)
    _validate(curve)
    return curve


def _validate(curve, samples: int = 4096):
    t = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    with np.errstate(over="ignore", invalid="ignore"):   # non-finite samples are refused below
        p, v, a = curve.frame(t)
        area = np.sum(p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0])   # samples / pi times the signed area
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v)) and np.all(np.isfinite(a))):
        raise ValueError(f"shape {curve.kind!r}: non-finite boundary data")
    speed = np.hypot(v[:, 0], v[:, 1])
    if speed.min() <= 1e-12:
        raise ValueError(f"shape {curve.kind!r}: parametrization is not regular (|x'| ~ 0)")
    if area <= 0:
        raise ValueError(f"shape {curve.kind!r}: parametrization is not counterclockwise")


def _polygon_contains(position, pts, nodes: int = 1024):
    # Even-odd crossing test against a dense polygonal sampling of the curve,
    # `nodes` points per pass so the pairwise arrays stay nodes x nodes.
    t = np.linspace(0.0, 2.0 * np.pi, nodes, endpoint=False)
    poly = position(t)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    inside = np.empty(len(pts), dtype=bool)
    for i in range(0, len(pts), nodes):
        px, py = pts[i:i + nodes, :1], pts[i:i + nodes, 1:]
        straddles = (y0[None, :] > py) != (y1[None, :] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcross = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / (y1 - y0)[None, :]
        hits = straddles & (px < xcross)
        inside[i:i + nodes] = (hits.sum(axis=1) % 2) == 1
    return inside
