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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .descriptors import (
    DerivativeSet,
    EmptySet,
    IdentityMap,
    LinearMap,
    ScaledComplementMap,
    SingletonSet,
)
from .vectors import (
    approx_equal,
    as_rows,
    as_vector,
    as_vector_of,
    inner,
    is_zero,
    norm,
    orth_decompose,
    row_norms,
)

__all__ = ["BallRegion", "DirectionClass", "BallProjection", "SpherePartial"]

# A point counts as lying on the sphere when | ||x|| - r | <= SPHERE_RTOL * r:
# the band is relative, so it scales with the ball at every radius.
SPHERE_RTOL = 1e-12

# A direction counts as radial when its orthogonal part is below this
# fraction of its norm.
RADIAL_RTOL = 1e-10

# Relative tolerance for the query y == x at a sphere point (empty set rule).
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
    """Partial coderivative rules at a sphere point x with ||y|| > 0, y != x.

    The only settled membership query is contains(0):

        0 is a member  <=>  y = a x  with  <y, x> <= 0,

    i.e. y must be radial with a nonpositive coefficient.  Every other
    query is undetermined by the closed form and answers None.  A query
    of another dimension, or a SparseVector, raises as for ``SingletonSet``.
    """

    anchor: tuple[float, ...]
    target: tuple[float, ...]
    rule = "ball-sphere"

    def _contains_zero(self) -> bool:
        x = np.array(self.anchor)
        y = np.array(self.target)
        split = orth_decompose(x, y)
        if norm(split.o) > RADIAL_RTOL * norm(y):
            return False
        return inner(y, x) <= 0.0

    def contains(self, z) -> Optional[bool]:
        if not as_vector_of(z, len(self.anchor)).any():
            return self._contains_zero()
        return None

    def to_json(self) -> dict:
        return {
            "variant": "partial",
            "rule": self.rule,
            "known": {"contains_zero": self._contains_zero()},
        }


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
        x = as_vector(x)
        length = norm(x)
        if length <= self.radius:
            return x.copy()
        scale = self.radius / length
        if not scale >= _TINY:
            # ||x|| exceeds the largest double, or r / ||x|| underflows:
            # project x / max|x|, which has the same direction
            x = x / np.max(np.abs(x))
            scale = self.radius / norm(x)
        return scale * x

    def project_rows(self, block) -> np.ndarray:
        """Project each row of a k x m block of points; returns the k x m block of images.

        Row i is scaled by r / max(||row||, r): a row inside the ball is
        multiplied by exactly 1.0, and a zero row needs no division.  Row
        norms use the same overflow and underflow rescue as ``norm``, and
        rows whose scale would underflow go through ``project``, so row i
        matches ``project(block[i])`` to within a few ulp.
        """
        block = as_rows(block)
        scale = self.radius / np.maximum(row_norms(block), self.radius)
        out = scale[:, None] * block
        for i in np.flatnonzero(scale < _TINY):
            out[i] = self.project(block[i])
        return out

    def project_axes(self, sq_norm: float, xj, moved):
        """Axis form: images of the probes u = x + (moved - x_j) e_j from scalars.

        Takes ``sq_norm`` = ||x||^2 and, elementwise over the probes, x_j
        and the moved coordinate.  With c(v) = r / max(||v||, r), returns
        (a, b) with P(u) - P(x) = a x + b e_j:

            a = c(u) - c(x),   b = c(u) du,   du = moved - x_j,
            ||u||^2 = ||x||^2 + du (moved + x_j).

        When both points lie outside the ball, c(u) - c(x) is computed as
        -c(u) (||u|| - ||x||) / ||x||, with ||u|| - ||x|| = du (moved + x_j)
        / (||u|| + ||x||), so nothing cancels.  At the origin (``sq_norm``
        = 0 and every x_j = 0), c(x) = 1 and ||u|| = |moved| exactly.
        Returns None, declining the probes, when ``sq_norm`` is not a
        finite normal double away from the origin, or some c(u) would
        underflow; ``project_rows`` handles those.
        """
        origin = sq_norm == 0.0 and not np.any(xj)
        if not (origin or _TINY <= sq_norm < np.inf):
            return None
        r = self.radius
        du = moved - xj
        # ||u||^2 >= moved^2, which rounding must not undercut; an overflow
        # makes ||u|| inf and c(u) 0, which declines below
        with np.errstate(over="ignore"):
            grow = du * (moved + xj)
            norm_u = np.abs(moved) if origin else np.sqrt(np.maximum(sq_norm + grow, moved * moved))
        scale_u = r / np.maximum(norm_u, r)
        if not np.all(scale_u >= _TINY):
            return None
        norm_x = np.sqrt(sq_norm)
        if norm_x <= r:
            a = scale_u - 1.0
        else:
            a = np.where(norm_u > r, -scale_u * (grow / (norm_u + norm_x) / norm_x), 1.0 - r / norm_x)
        return a, scale_u * du

    def region(self, x) -> BallRegion:
        x = as_vector(x)
        tol = SPHERE_RTOL * self.radius
        gap = norm(x) - self.radius
        if abs(gap) <= tol:
            return BallRegion.SPHERE
        return BallRegion.INTERIOR if gap < 0.0 else BallRegion.EXTERIOR

    def direction_class(self, xbar, w) -> DirectionClass:
        """Classify a nonzero direction at a sphere point.

        Radial detection is numerical (orthogonal part below RADIAL_RTOL of
        ||w|| with positive coefficient); otherwise the sign of <xbar, w>
        decides, with ties (tangent directions) classified OUTWARD because
        ||xbar + t w||^2 = r^2 + t^2 ||w||^2 >= r^2.
        """
        xbar = as_vector(xbar)
        w = as_vector(w)
        if self.region(xbar) is not BallRegion.SPHERE:
            raise ValueError("direction classification is defined at sphere points only")
        if is_zero(w):
            raise ValueError("direction must be nonzero")
        split = orth_decompose(xbar, w)
        if norm(split.o) <= RADIAL_RTOL * norm(w) and split.a > 0.0:
            return DirectionClass.RADIAL
        return DirectionClass.OUTWARD if inner(xbar, w) >= 0.0 else DirectionClass.INWARD

    def gateaux(self, xbar, w) -> np.ndarray:
        """One-sided directional derivative lim_{t->0+} (P(x+tw) - P(x))/t."""
        xbar = as_vector(xbar)
        w = as_vector_of(w, xbar.shape[0])
        region = self.region(xbar)
        if region is BallRegion.INTERIOR:
            return w.copy()
        if region is BallRegion.EXTERIOR:
            return (self.radius / norm(xbar)) * orth_decompose(xbar, w).o
        kind = self.direction_class(xbar, w)
        if kind is DirectionClass.RADIAL:
            return np.zeros_like(w)
        if kind is DirectionClass.OUTWARD:
            return w - (inner(xbar, w) / self.radius**2) * xbar
        return w.copy()

    def frechet(self, xbar) -> Optional[LinearMap]:
        """Frechet derivative map, or None on the sphere where none exists."""
        xbar = as_vector(xbar)
        region = self.region(xbar)
        if region is BallRegion.INTERIOR:
            return IdentityMap()
        if region is BallRegion.EXTERIOR:
            return ScaledComplementMap.from_point(self.radius / norm(xbar), xbar)
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
        y = as_vector(y)
        if xbar.shape != y.shape:
            raise ValueError("xbar and y must have the same dimension")
        region = self.region(xbar)
        if region is not BallRegion.SPHERE:
            return SingletonSet(self.frechet(xbar)(y))
        if is_zero(y):
            return SingletonSet(np.zeros_like(y))
        if approx_equal(y, xbar, rel=SELF_QUERY_RTOL):
            return EmptySet(xbar.shape[0])
        return SpherePartial(anchor=tuple(map(float, xbar)), target=tuple(map(float, y)))
