"""Metric projection onto the origin-centred closed ball of radius r.

    P(x) = x                if ||x|| <= r,
    P(x) = (r/||x||) x      otherwise.

Differentiability is governed by the position of the base point:

* interior points: P is locally the identity, so the derivative is I and
  the coderivative of y is {y};
* exterior points: P is (strictly) differentiable with self-adjoint
  derivative  w |-> (r/||x||) (w - <w, x> x / ||x||^2),  and the
  coderivative of y is the singleton {derivative(y)};
* sphere points: P has one-sided directional derivatives only.  Writing
  each direction w through the splitting w = a(w) x + o(w), the Gateaux
  limit is

      w - <x, w> x / r^2   for outward directions (<x, w> >= 0),
      0                    for radial outward directions (w = s x, s > 0),
      w                    for inward directions (<x, w> < 0),

  and no single linear map matches all of these, so P is not Frechet
  differentiable on the sphere.  The coderivative there is only partially
  characterised; see ``SpherePartial``.

``gateaux``, ``frechet`` and ``coderivative`` take ||xbar||^2 once per
call: the region, the exterior scale r/||xbar|| and axis, the self
query's bound and the sphere rule's split all read that one square sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .descriptors import (
    DerivativeSet,
    EmptySet,
    IdentityMap,
    LinearMap,
    ScaledComplementMap,
    SingletonSet,
)
from .vectors import (_all_finite, _anchor_norm, _count_nonzero, _dense_norm, _distance, _dot, _halved, _split,
                      as_rows, as_vector, as_vector_of, row_norms)

__all__ = ["BallRegion", "DirectionClass", "BallProjection", "SpherePartial"]

# A point counts as lying on the sphere when | ||x|| - r | <= SPHERE_RTOL * r:
# the band is relative, so it scales with the ball at every radius.
SPHERE_RTOL = 1e-12

# A direction counts as radial when its orthogonal part is below this
# fraction of its norm.
RADIAL_RTOL = 1e-10

# The query y == x at a sphere point (empty set rule): ||y - x|| <= SELF_QUERY_RTOL * ||x||.
SELF_QUERY_RTOL = 1e-10

# smallest normal double: a projection scale below it has lost precision
_TINY = np.finfo(float).tiny


class BallRegion(Enum):
    INTERIOR = "interior"
    SPHERE = "sphere"
    EXTERIOR = "exterior"


class DirectionClass(Enum):
    """Position of a direction relative to a sphere point x.

    OUTWARD directions keep ||x + t w|| >= r for small t > 0 (this includes
    tangent directions, where the quadratic term decides), INWARD directions
    enter the open ball, RADIAL means w = s x with s > 0.
    """

    OUTWARD = "outward"
    INWARD = "inward"
    RADIAL = "radial"


@dataclass(frozen=True)
class SpherePartial(DerivativeSet):
    """Partial coderivative rules at a sphere point x for a query y other than 0 and x.

    The one settled membership query is contains(0):

        0 is a member  <=>  y = a x  with  <y, x> <= 0,

    i.e. y must be radial with a nonpositive coefficient.  The descriptor
    keeps only that answer, ``contains_zero``, and ``dim``; every other
    query answers None.  A query of another dimension than ``dim``, or a
    SparseVector, raises as for ``SingletonSet``.
    """

    dim: int
    contains_zero: bool
    rule = "ball-sphere"

    def contains(self, z) -> Optional[bool]:
        if not _count_nonzero(as_vector_of(z, self.dim)):
            return self.contains_zero
        return None

    def to_json(self) -> dict:
        return {"variant": "partial", "rule": self.rule, "known": {"contains_zero": self.contains_zero}}


@dataclass(frozen=True)
class BallProjection:
    """Projection onto the closed ball of radius ``radius`` centred at 0."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError("radius must be a positive finite number")

    def __call__(self, x) -> np.ndarray:
        return self.project(x)

    def project(self, x) -> np.ndarray:
        return self._project(as_vector(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        length = _dense_norm(x)
        if length <= self.radius:
            return x.copy()
        scale = self.radius / length
        if not scale >= _TINY:
            # ||x|| exceeds the largest double, or r / ||x|| underflows:
            # project x / max|x|, which has the same direction
            x = x / np.maximum.reduce(np.abs(x))
            scale = self.radius / _dense_norm(x)
        return scale * x

    def project_rows(self, block) -> np.ndarray:
        """Project each row of a k x m block of points; returns the k x m block of images.

        Row i is scaled by r / max(||row||, r): a row inside the ball is
        multiplied by exactly 1.0, and a zero row needs no division.  Row
        norms are ``norm``'s bit for bit, and rows whose scale would
        underflow go through ``project``, so row i matches
        ``project(block[i])`` bit for bit.
        """
        block = as_rows(block)
        scale = self.radius / np.maximum(row_norms(block), self.radius)
        out = scale[:, None] * block
        for i in (scale < _TINY).nonzero()[0]:
            out[i] = self._project(block[i])
        return out

    def _image_terms(self, x0: np.ndarray, x_d, step, u_d, off: Callable[[], np.ndarray],
                     y_along: Callable[[np.ndarray], Optional[np.ndarray]]):
        """The forms' first stage at the probes u = x0 + step d, d unit: (||P(u) - P(x0)||, y stage), or None.

        Takes, elementwise over the probes (arrays that broadcast together),
        x_d = <x0, d>, the step and u_d = <u, d>, ``off()`` = ||x0 - x_d d||,
        read only when some a is nonzero, and ``y_along(y0)``, which gives
        <y0, d> or None where it is not finite.  With c(v) = r / max(||v||, r),
        P(u) - P(x0) = a x0 + b d, so, split along d,

            a = c(u) - c(x0),   b = c(u) step,   ||u||^2 = ||x0||^2 + grow,   grow = step (x_d + u_d),
            <y0, P(u) - P(x0)> = a <y0, x0> + b <y0, d>,   ||P(u) - P(x0)|| = hypot(a off, a x_d + b).

        ||u||^2 >= u_d^2, which rounding must not undercut; at the origin
        c(x0) = 1 and ||u|| = |u_d| exactly.  a is taken from ||u|| - ||x0||
        = grow / (||u|| + ||x0||) (||u|| at the origin), so nothing
        cancels: as -c(u) (||u|| - ||x0||) / ||x0|| when both points lie
        outside the ball, and as (r - ||x0|| - (||u|| - ||x0||)) / ||u||
        when only u does.  This stage declines when ||x0||^2 is not a
        finite normal double away from the origin, or some c(u) underflows
        (an overflow makes ||u|| inf and c(u) 0); the y stage gives
        <y0, P(u) - P(x0)>, and declines (None) when <y0, x0> or some
        <y0, d> is not finite.  ``project_rows`` handles every decline.
        """
        sq_norm = float(_dot(x0, x0))
        origin = sq_norm == 0.0 and not _count_nonzero(x0)
        if not (origin or _TINY <= sq_norm < np.inf):
            return None
        with np.errstate(over="ignore"):
            grow = step * (x_d + u_d)
            norm_u = np.abs(u_d) if origin else np.sqrt(np.maximum(sq_norm + grow, u_d * u_d))
        r = self.radius
        top = float(np.maximum.reduce(norm_u, axis=None))
        if not r / max(top, r) >= _TINY:
            return None
        scale_u = r / np.maximum(norm_u, r)
        norm_x = math.sqrt(sq_norm)
        if norm_x <= r and top <= r:
            a = scale_u - 1.0
        else:
            gap = norm_u if origin else grow / (norm_u + norm_x)
            if norm_x <= r:
                a = np.where(norm_u > r, (r - norm_x - gap) / np.maximum(norm_u, r), 0.0)
            elif np.minimum.reduce(norm_u, axis=None) > r:
                a = scale_u * (gap / -norm_x)
            else:
                a = np.where(norm_u > r, -scale_u * (gap / norm_x), 1.0 - r / norm_x)
        b = scale_u * step
        # u and x0 inside the ball (a = 0): P(u) - P(x0) = step d
        df_norm = np.hypot(a * off(), a * x_d + b) if _count_nonzero(a) else np.abs(b)

        def y_terms(y0: np.ndarray) -> Optional[np.ndarray]:
            y_x = float(_dot(y0, x0))
            along = y_along(y0) if math.isfinite(y_x) else None
            return None if along is None else a * y_x + b * along

        return df_norm, y_terms

    def project_axes(self, x0: np.ndarray, j, moved):
        """Axis form: ||P(u) - P(x0)|| and the y stage of the probes u = x0 + (moved - x0_j) e_j.

        Elementwise over the probes, j is the moved axis and ``moved`` the
        new coordinate.  This is ``_image_terms`` at d = e_j: x_d = x0_j,
        the step moved - x0_j, u_d = moved and <y0, d> = y0_j, with the
        off-axis norms ||x0 - x0_j e_j|| from exclusive prefix and suffix
        sums of squares, so nothing cancels.  Returns None, or a y stage
        that returns None, where ``_image_terms`` declines.
        """
        xj = x0[j]

        def off():
            sq = x0 * x0
            before = np.concatenate(([0.0], np.add.accumulate(sq[:-1])))
            after = np.concatenate((np.add.accumulate(sq[:0:-1])[::-1], [0.0]))
            return np.sqrt(before + after)[j]

        return self._image_terms(x0, xj, moved - xj, moved, off, lambda y0: y0[j])

    def project_dirs(self, x0: np.ndarray, dirs: np.ndarray, t: np.ndarray):
        """Direction form: ||P(u) - P(x0)|| and the y stage of the probes u = x0 + t d.

        The rows of the 2-D array ``dirs`` are unit directions d, and t is
        a column of radii: the terms are (radius, direction) arrays, row k
        the bits of a call at radius k alone.  This is ``_image_terms`` with
        x_d = <d, x0>, the step t and u_d = x_d + t; the y stage takes
        <d, y0> (each product once per direction).  ||x0 - x_d d||^2 is
        ||x0||^2 - x_d^2, which loses at most a factor 16 of its digits
        above ||x0||^2 / 16; below (d near +-x0) it is the square sum of the
        row x0 - x_d d.  Returns None, or a y stage that returns None, where
        ``_image_terms`` declines at some radius; the y stage also declines
        where some <d, y0> overflows, although t <d, y0> may not.
        """
        xd = _dot(dirs, x0)

        def off():
            sq_norm = float(_dot(x0, x0))
            off_sq = sq_norm - xd * xd
            near = (off_sq < sq_norm / 16.0).nonzero()[0]
            if near.size:
                rows = x0 - xd[near, None] * dirs[near]
                off_sq[near] = _dot(rows, rows)
            return np.sqrt(off_sq)

        def y_along(y0):
            yd = _dot(dirs, y0)
            return yd if _all_finite(yd) else None

        return self._image_terms(x0, xd, t, xd + t, off, y_along)

    def region(self, x) -> BallRegion:
        return self._region(_dense_norm(as_vector(x)))

    def _region(self, length: float) -> BallRegion:
        """``region`` of a point whose norm is ``length``."""
        gap = length - self.radius
        if abs(gap) <= SPHERE_RTOL * self.radius:
            return BallRegion.SPHERE
        return BallRegion.INTERIOR if gap < 0.0 else BallRegion.EXTERIOR

    def direction_class(self, xbar, w) -> DirectionClass:
        """Classify a nonzero direction at a sphere point.

        Both tests read w / 2^e with max|w| < 2^e.  Radial detection is
        numerical (orthogonal part below RADIAL_RTOL of ||w|| with positive
        coefficient); otherwise the sign of <xbar / r, w> decides (it keeps
        its sign at radii where <xbar, w> under- or overflows), with ties
        (tangent directions) classified OUTWARD because
        ||xbar + t w||^2 = r^2 + t^2 ||w||^2 >= r^2.
        """
        xbar = as_vector(xbar)
        w = as_vector_of(w, xbar.shape[0])
        x_sq = float(_dot(xbar, xbar))
        if self._region(_dense_norm(xbar, x_sq)) is not BallRegion.SPHERE:
            raise ValueError("direction classification is defined at sphere points only")
        return self._direction_class(xbar, w, x_sq)[0]

    def _direction_class(self, xbar: np.ndarray, w: np.ndarray, x_sq: float | None = None,
                         rescaled: Optional[tuple] = None
                         ) -> tuple[DirectionClass, np.ndarray, int, Optional[np.ndarray], float]:
        """``direction_class`` of checked arrays of one size, xbar on the sphere, and what it read.

        Returns (class, w / 2^e, e, xbar / r, <xbar / r, w / 2^e>); the
        last two are None and 0.0 for a radial w.  ``x_sq`` is
        ``float(_dot(xbar, xbar))`` and ``rescaled`` the rescaling of xbar
        from ``vectors._anchor_norm`` when the caller has them.
        """
        if not _count_nonzero(w):
            raise ValueError("direction must be nonzero")
        # w / 2^e is exact, and its split coefficient is a double for every finite w
        half, e = _halved(w)
        a, _, o_len = _split(xbar, half, anchor_sq=x_sq, rescaled=rescaled)
        if o_len <= RADIAL_RTOL * _dense_norm(half) and a > 0.0:
            return DirectionClass.RADIAL, half, e, None, 0.0
        unit = xbar / self.radius
        along = float(_dot(unit, half))
        return DirectionClass.OUTWARD if along >= 0.0 else DirectionClass.INWARD, half, e, unit, along

    def gateaux(self, xbar, w) -> np.ndarray:
        """One-sided directional derivative lim_{t->0+} (P(x+tw) - P(x))/t."""
        xbar = as_vector(xbar)
        w = as_vector_of(w, xbar.shape[0])
        x_sq = float(_dot(xbar, xbar))
        # when ||xbar||^2 over- or underflows, the norm and the split share one rescaling of xbar
        length, rescaled = _anchor_norm(xbar, x_sq)
        region = self._region(length)
        if region is BallRegion.INTERIOR:
            return w.copy()
        if region is BallRegion.EXTERIOR:
            return (self.radius / length) * _split(xbar, w, anchor_sq=x_sq, rescaled=rescaled)[1]
        kind, half, e, unit, along = self._direction_class(xbar, w, x_sq, rescaled)
        if kind is DirectionClass.RADIAL:
            return np.zeros(w.shape)
        if kind is DirectionClass.OUTWARD:
            # w - <x, w> x / r^2 on w / 2^e, so <x, w> cannot overflow, then scaled back (all exact)
            limit = half - along * unit
            if math.frexp(float(np.maximum.reduce(np.abs(limit))))[1] + e > 1024:
                raise ValueError("the directional derivative exceeds the largest double")
            return np.ldexp(limit, e)
        return w.copy()

    def frechet(self, xbar) -> Optional[LinearMap]:
        """Frechet derivative map, or None on the sphere where none exists."""
        xbar = as_vector(xbar)
        return self._frechet(xbar, float(_dot(xbar, xbar)))

    def _frechet(self, xbar: np.ndarray, x_sq: float) -> Optional[LinearMap]:
        """``frechet`` of a checked array whose square sum is ``x_sq``."""
        length = _dense_norm(xbar, x_sq)
        region = self._region(length)
        if region is BallRegion.INTERIOR:
            return IdentityMap(xbar.shape[0])
        if region is BallRegion.EXTERIOR:
            return ScaledComplementMap._of(self.radius / length, xbar, length)
        return None

    def coderivative(self, xbar, y) -> DerivativeSet:
        """Coderivative of P at xbar applied to y, as a set descriptor.

        Off the sphere the projection is differentiable with a self-adjoint
        derivative A, so the result is the singleton {A y}.  On the sphere:

        * y = 0: the singleton {0};
        * y = x: the empty set;
        * otherwise: partial rules (``SpherePartial``).
        """
        xbar = as_vector(xbar)
        y = as_vector_of(y, xbar.shape[0])
        x_sq = float(_dot(xbar, xbar))
        derivative = self._frechet(xbar, x_sq)
        if derivative is not None:
            return SingletonSet(derivative._on(y))
        if not _count_nonzero(y):
            return SingletonSet(np.zeros(y.shape))
        if _distance(y, xbar) <= SELF_QUERY_RTOL * _dense_norm(xbar, x_sq):
            return EmptySet(xbar.shape[0])
        # 0 is in the set when y is radial and inward (<y, xbar> <= 0); both
        # are facts of the direction of y, tested on y / 2^e with max|y| < 2^e
        # (exact), so no norm or split of y overflows and a, about 1/r on a
        # radial y, never underflows to the +0.0 of a tangent one
        y = _halved(y)[0]
        a, _, o_len = _split(xbar, y, anchor_sq=x_sq)
        return SpherePartial(xbar.shape[0], o_len <= RADIAL_RTOL * _dense_norm(y) and a <= 0.0)
