"""Projection onto the nonnegative orthant of R^n and its derivative maps.

    P(x)_i = max(x_i, 0).

Sign patterns are classified exactly (no epsilon): a coordinate is
positive, negative, or an exact zero.  At every point the one-sided
directional derivative is

    d(x; w)_i = w_i          on positive coordinates,
                0            on negative coordinates,
                max(w_i, 0)  on zero coordinates.

It is linear in w, and P Frechet differentiable, exactly when x has no
zero coordinate: the derivative is then the identity (all coordinates
positive), the zero map (all negative), or the linear mask keeping the
positive coordinates (mixed signs).  At points with zero coordinates P
is kinked, and the coderivative there is known only through partial
rules; see ``CornerPartial``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .descriptors import (
    CoordinateMaskMap,
    DerivativeSet,
    EmptySet,
    IdentityMap,
    LinearMap,
    SingletonSet,
    ZeroMap,
)
from .vectors import as_rows, as_vector, as_vector_of, inner, is_zero, norm

__all__ = [
    "OrthantRegion",
    "CornerPartial",
    "project",
    "project_rows",
    "project_axes",
    "region",
    "gateaux",
    "frechet",
    "coderivative",
]

# Tolerance for recognising z as a scalar multiple of y in the corner rules.
MULTIPLE_RTOL = 1e-9


class OrthantRegion(Enum):
    POSITIVE = "positive"        # all coordinates > 0
    NEGATIVE = "negative"        # all coordinates < 0
    MIXED = "mixed"              # both signs present, no zeros
    WITH_ZEROS = "with_zeros"    # at least one exact zero


def project(x) -> np.ndarray:
    """Componentwise positive part."""
    return np.maximum(as_vector(x), 0.0)


def project_rows(block) -> np.ndarray:
    """Project each row of a k x m block of points; returns the k x m block of images.

    Row i equals ``project(block[i])`` exactly.
    """
    return np.maximum(as_rows(block), 0.0)


def project_axes(sq_norm: float, xj, moved):
    """Axis form: images of the probes u = x + (moved - x_j) e_j from scalars.

    The projection acts coordinate by coordinate, so P(u) - P(x) =
    b e_j with b = max(moved, 0) - max(x_j, 0), elementwise over the
    probes; returns (0.0, b), and ``sq_norm`` = ||x||^2 is not read.
    b is the difference ``project_rows`` gives at j, bit for bit.
    """
    return 0.0, np.maximum(moved, 0.0) - np.maximum(xj, 0.0)


project.rows = project_rows
project.axes = project_axes


def region(x) -> OrthantRegion:
    """Region of x from exact coordinate signs (-0.0 is a zero)."""
    x = as_vector(x)
    if not x.all():
        return OrthantRegion.WITH_ZEROS
    if not (x < 0.0).any():
        return OrthantRegion.POSITIVE
    if not (x > 0.0).any():
        return OrthantRegion.NEGATIVE
    return OrthantRegion.MIXED


def gateaux(x, w) -> np.ndarray:
    """One-sided directional derivative of the projection at any point."""
    x = as_vector(x)
    w = as_vector_of(w, x.shape[0])
    return np.where(x > 0.0, w, np.where(x < 0.0, 0.0, np.maximum(w, 0.0)))


def frechet(x) -> Optional[LinearMap]:
    """Frechet derivative map, or None at points with zero coordinates."""
    x = as_vector(x)
    reg = region(x)
    if reg is OrthantRegion.POSITIVE:
        return IdentityMap()
    if reg is OrthantRegion.NEGATIVE:
        return ZeroMap()
    if reg is OrthantRegion.MIXED:
        keep = frozenset(int(i) for i in np.flatnonzero(x > 0.0))
        return CoordinateMaskMap(keep=keep, dim=x.shape[0])
    return None


@dataclass(frozen=True)
class CornerPartial(DerivativeSet):
    """Partial coderivative rules at a point with zero coordinates.

    Context: base point x (with at least one zero) and query vector y,
    after the special cases y = 0 and y = x have been handled.  The one
    proven family of answers: if y has a negative entry on some zero
    coordinate of x, then no multiple lambda * y with lambda < 1 belongs
    to the set (in particular 0 does not).  Everything else answers None.
    A query of another dimension, or a SparseVector, raises as for
    ``SingletonSet``.
    """

    anchor: tuple[float, ...]
    target: tuple[float, ...]
    rule = "cone-corner"

    def _has_negative_on_zero(self) -> bool:
        x = np.array(self.anchor)
        y = np.array(self.target)
        return bool(np.any((x == 0.0) & (y < 0.0)))

    def _multiple_of_target(self, z: np.ndarray) -> Optional[float]:
        """Return lambda with z = lambda * y, or None if z is not a multiple."""
        y = np.array(self.target)
        scale = inner(z, y) / inner(y, y)
        if norm(z - scale * y) <= MULTIPLE_RTOL * max(1.0, norm(z), norm(y)):
            return float(scale)
        return None

    def contains(self, z) -> Optional[bool]:
        z = as_vector_of(z, len(self.target))
        if not self._has_negative_on_zero():
            return None
        scale = self._multiple_of_target(z)
        if scale is not None and scale < 1.0:
            return False
        return None

    def to_json(self) -> dict:
        known = {}
        if self._has_negative_on_zero():
            known["submultiples_excluded"] = True
            known["contains_zero"] = False
        return {"variant": "partial", "rule": self.rule, "known": known}


def coderivative(xbar, y) -> DerivativeSet:
    """Coderivative of the orthant projection at xbar applied to y.

    On the three smooth regimes the projection has a self-adjoint
    derivative A and the result is the singleton {A y}.  At points with
    zero coordinates:

    * y = 0: the singleton {0};
    * y = xbar (xbar != 0): the singleton {0} when xbar has no positive
      coordinate, the empty set when it has one;
    * otherwise: partial rules (``CornerPartial``).

    Equality tests against 0 and xbar are exact, matching the exact sign
    classification used everywhere in this module.
    """
    xbar = as_vector(xbar)
    y = as_vector(y)
    if xbar.shape != y.shape:
        raise ValueError("xbar and y must have the same dimension")
    if region(xbar) is not OrthantRegion.WITH_ZEROS:
        return SingletonSet(frechet(xbar)(y))
    if is_zero(y):
        return SingletonSet(np.zeros_like(y))
    if np.array_equal(y, xbar):
        if not np.any(xbar > 0.0):
            return SingletonSet(np.zeros_like(y))
        return EmptySet(xbar.shape[0])
    return CornerPartial(anchor=tuple(map(float, xbar)), target=tuple(map(float, y)))
