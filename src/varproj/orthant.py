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
from .vectors import _all_finite, _count_nonzero, _dense_norm, _dot, as_rows, as_vector, as_vector_of

__all__ = [
    "OrthantRegion",
    "CornerPartial",
    "project",
    "project_rows",
    "project_axes",
    "project_dirs",
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


def project_axes(x0: np.ndarray, j, moved):
    """Axis form: ||P(u) - P(x0)|| and the y stage of the probes u = x0 + (moved - x0_j) e_j.

    The projection acts coordinate by coordinate, so P(u) - P(x0) = b e_j
    with b = max(moved, 0) - max(x0_j, 0), elementwise over the probes;
    returns |b| and the y stage y0 -> b y0_j, the bits the full rows give
    (b is the difference ``project_rows`` gives at j, and every other entry
    of the row is 0).  Neither stage declines.
    """
    b = np.maximum(moved, 0.0) - np.maximum(x0[j], 0.0)
    return np.abs(b), lambda y0: b * y0[j]


def project_dirs(x0: np.ndarray, dirs: np.ndarray, t: np.ndarray):
    """Direction form: ||P(u) - P(x0)|| and the y stage of the probes u = x0 + t d.

    The rows of the 2-D array ``dirs`` are unit directions d, and t is a
    column of radii: the terms are (radius, direction) arrays.  A
    coordinate can change sign only where |x0_i| <= t |d_i| <= t; call C
    the columns within reach of the largest radius (every zero coordinate
    is in C).  Off C, P(u) - P(x0) is t d on the positive coordinates P
    and 0 on the negative ones, so with w = df_C / t,

        ||P(u) - P(x0)||   = t sqrt(||d on P||^2 + ||w||^2),
        <y0, P(u) - P(x0)> = t (<d, y0 on P> + <w, y0_C>)   (the y stage),

    where df_C = max(x0_C + t d_C, 0) - max(x0_C, 0) is taken on the
    sub-block of the C columns, bit for bit as ``project_rows`` gives it.
    C, ||d on P||^2 and, in the y stage, <d, y0 on P> are taken once for
    every radius.  ||d on P||^2 is the square sum of the P columns of
    dirs, compressed into a block of their own: two operands, no mask.
    <d, y0 on P> stays a product of the full rows with y0 set to 0 off P,
    so it sums in the order of the oracle's <d, z> (``vectors._dot`` sums
    by length): for z = y0 on P, t <d, z> - t <d, y0 on P> is exactly 0 at
    every magnitude.  A product over the P columns alone leaves a rounding
    that the oracle reads as a quotient: suprema near 1e292 at
    |y0| = 1e308, and an inconclusive verdict for that member z.  A
    coordinate of C out of reach of radius k gives w_i = d_i there when
    x0_i > 0 and 0 when x0_i < 0, as it would off C, so row k holds the
    terms of a call at radius k alone, in its bits at the largest radius
    and wherever C holds no nonzero coordinate, and else summed in
    another order.  The first stage never declines; the y stage declines
    (None) when some <y0, P(u) - P(x0)> is not finite: <d, y0> may
    overflow where t <d, y0> does not, and the full rows score those
    probes.
    """
    # |t d_i| <= t (1 + 2^-50) rounds to at most t (1 + 2^-40)
    bound = float(np.maximum.reduce(t, axis=None)) * (1.0 + 2.0**-40)
    pos = x0 > bound
    count = _count_nonzero(pos)
    near = (np.abs(x0) <= bound).nonzero()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if count == x0.size:
            d_sq = _dot(dirs, dirs)
        elif count:
            on_p = dirs.compress(pos, axis=1)
            d_sq = _dot(on_p, on_p)
        else:
            d_sq = np.zeros(len(dirs))
        if near.size:
            # df on C, then its terms scaled by 1 / t, so no square of a small radius underflows
            x_c, t_col = x0[near], t[..., None]
            df_c = np.maximum(x_c + t_col * dirs[:, near], 0.0) - np.maximum(x_c, 0.0)
            w, out = df_c / t_col, np.abs(x_c) > t_col * (1.0 + 2.0**-40)
            if _count_nonzero(out):
                w = np.where(out, np.where(x_c > 0.0, dirs[:, near], 0.0), w)
            d_sq = d_sq + _dot(w, w)
        df_norm = t * np.sqrt(d_sq)

    def y_terms(y0: np.ndarray) -> Optional[np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            if count == x0.size:
                y_d = _dot(dirs, y0)
            elif count:
                y_d = _dot(dirs, np.where(pos, y0, 0.0))
            else:
                y_d = np.zeros(len(dirs))
            if near.size:
                y_d = y_d + _dot(w, y0[near])
            y_df = t * y_d
        return y_df if _all_finite(y_df) else None

    return df_norm, y_terms


def region(x) -> OrthantRegion:
    """Region of x from exact coordinate signs (-0.0 is a zero)."""
    return _region(as_vector(x))


def _region(x: np.ndarray) -> OrthantRegion:
    if _count_nonzero(x) < x.size:
        return OrthantRegion.WITH_ZEROS
    negative = _count_nonzero(x < 0.0)
    if not negative:
        return OrthantRegion.POSITIVE
    if negative == x.size:
        return OrthantRegion.NEGATIVE
    return OrthantRegion.MIXED


def gateaux(x, w) -> np.ndarray:
    """One-sided directional derivative of the projection at any point."""
    x = as_vector(x)
    w = as_vector_of(w, x.shape[0])
    return np.where(x > 0.0, w, np.where(x < 0.0, 0.0, np.maximum(w, 0.0)))


def frechet(x) -> Optional[LinearMap]:
    """Frechet derivative map, or None at points with zero coordinates."""
    return _frechet(as_vector(x))


def _frechet(x: np.ndarray) -> Optional[LinearMap]:
    reg = _region(x)
    if reg is OrthantRegion.POSITIVE:
        return IdentityMap(x.shape[0])
    if reg is OrthantRegion.NEGATIVE:
        return ZeroMap(x.shape[0])
    if reg is OrthantRegion.MIXED:
        return CoordinateMaskMap._of(x > 0.0)
    return None


@dataclass(frozen=True, eq=False)
class CornerPartial(DerivativeSet):
    """Partial coderivative rules at a point x with zero coordinates.

    Context: base point x (with at least one zero) and query vector y,
    after the special cases y = 0 and y = x have been handled.  The one
    proven family of answers: if y has a negative entry on some zero
    coordinate of x, then no multiple lambda * y with lambda < 1 belongs
    to the set (in particular 0 does not).  ``target`` is a read-only copy
    of y when this rule applies and None otherwise; every other query
    answers None.  A query of another dimension than ``dim``, or a
    SparseVector, raises as for ``SingletonSet``.
    """

    dim: int
    target: Optional[np.ndarray]
    rule = "cone-corner"

    def contains(self, z) -> Optional[bool]:
        z = as_vector_of(z, self.dim)
        if self.target is None:
            return None
        # z = scale * y within tolerance, tested on y and z times 2^-e with
        # max|y| < 2^e: the bits of the plain test, with no square to overflow
        e = np.frexp(np.maximum.reduce(np.abs(self.target)))[1]
        with np.errstate(over="ignore", invalid="ignore"):
            y, z, floor = np.ldexp(self.target, -e), np.ldexp(z, -e), np.ldexp(1.0, -e)
            scale = float(_dot(z, y)) / float(_dot(y, y))
            off = z - scale * y
        # the scaled z, lambda in z = lambda * y or z - lambda * y exceeds
        # every double; each makes an entry of z - lambda * y inf or nan
        if not _all_finite(off):
            return None
        if _dense_norm(off) <= MULTIPLE_RTOL * max(floor, _dense_norm(z), _dense_norm(y)) and scale < 1.0:
            return False
        return None

    def to_json(self) -> dict:
        known = {}
        if self.target is not None:
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
    y = as_vector_of(y, xbar.shape[0])
    derivative = _frechet(xbar)
    if derivative is not None:
        return SingletonSet(derivative._on(y))
    if not _count_nonzero(y):
        return SingletonSet(np.zeros(y.shape))
    if not _count_nonzero(y != xbar):
        if not _count_nonzero(xbar > 0.0):
            return SingletonSet(np.zeros(y.shape))
        return EmptySet(xbar.shape[0])
    if not _count_nonzero((xbar == 0.0) & (y < 0.0)):
        return CornerPartial(xbar.shape[0], None)
    target = y.copy()
    target.flags.writeable = False
    return CornerPartial(xbar.shape[0], target)
