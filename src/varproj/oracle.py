"""Numerical limsup membership oracle for coderivative queries.

A vector z belongs to the coderivative of f at xbar applied to y exactly
when

    limsup_{u -> xbar}  ( <z, u - xbar> - <y, f(u) - f(xbar)> )
                        / ( ||u - xbar|| + ||f(u) - f(xbar)|| )   <=  0.

The oracle estimates the limsup by sampling u = xbar + t*d over a fixed
set of shrinking absolute radii t and many unit directions d, the same
at every radius: a seeded batch of random directions plus structured
probes aligned with the known worst-case families (radial moves along
xbar, moves along the orthogonal parts of y and z against xbar,
single-coordinate moves, and moves along y and z themselves).  A radius
t <= (||spacing(xbar)|| / 2 + sqrt(m) 2^-1074)(1 + 2^-40), the only
radii at which a unit probe can round back to xbar, is refused
(``_round_back_floor``).  Scaled
single-coordinate moves such as u_j = xbar_j + t * z_j trace the same
rays as the coordinate probes, so normalising directions to unit length
loses no coverage.
The structured directions other than the axes (the head) come from
scalar products taken once per base (xbar), once per plan (y) and once
per verdict (z); see ``_structured_head``.

Evaluation is batched, and split in three.  A verdict first takes the
base of (f, xbar, config), which reads neither y nor z (``_base``): the
round-back floor check, f(xbar), <xbar, xbar> and ||xbar||, the head
rows +-xbar, the geometry of the axis probes, and the first, y-free
stage of f's axis and direction forms, which gives every such probe its
||f(u) - f(xbar)|| and denominator (see ``_form``).  On it the verdict
takes the plan for y (``_plan``), which holds the base and only what
reads y: the head rows of y, each form's y stage, <y, f(u) - f(xbar)> of
every random and axis probe, the plan's ``score`` and the witness halves
below.  Only the +-z and +-orth(z) head rows and <z, u - xbar> depend on
z, so both are z-free.  The z pass then scores the head rows, takes one
<d, z> per random direction d and one <z, u - xbar> per axis probe, and
writes every quotient into one table, then runs one argmax, the verdict
rule and the witness.  Row k of the table holds the
quotients of radius k in probe order: the head (the rows of z last), the
2m axis probes, then the random directions.  The supremum at a radius is
the first largest entry of its row.
Sparse queries use the same dense path: they are embedded in R^m over
the probed axes (all supports plus one fresh index, ``_axes``), from one
dict per vector (``_embed``).

Every probe row u the oracle forms is scored by one closure of the plan,
``score``: u - xbar and f(u) - f(xbar) fill the two halves of one new
block, whose norms are one ``row_norms`` call (a row gets the same bits at
every position in a call), and <y, f(u) - f(xbar)> takes the fixed order
of ``vectors._dot``.  f maps all the rows in one call of its row form
(see ``_form``), whose images lie on the probed coordinates; a dense f
with none is called once per row, each image read with ``as_vector_of``
at xbar's length, as f(xbar) is; a formless sparse f is called once per
row on SparseVectors, and its images, wherever f maps, are scored through
``inner`` and ``norm``.  No array handed to f is written to afterwards.
The z pass hands it the head rows of xbar, y and z of every radius in one
call: u = xbar + t*d, the plan's column of radii broadcast over the head
rows (blocks of ``_structured_head`` joined with one ``np.concatenate``)
and xbar then added in place, so the head keeps the bits of the scalar
``quotient``, two head rows that round to one probe tie, the first
winning, and a z pass only reads its plan, apart from the witness halves
below.  The plan hands it, once, the random probes where the direction
form declines or f has none, the directions at each radius in turn in
chunks of at most about 32k floats (``_block_rows``) that may span two
radii, and then holds u - xbar of every probe (3 MB at m = 500 at the
default config); and the axis probes as full rows, in chunks of the same
size, where the axis form declines or f has none.  The ``row_norms`` of
an axis row, whose one nonzero entry is du, is |du|.

The random probes take the direction form of f when it has one (see
``_form``; the ``project`` of every set in this package has one).  It
scores the exact probe u = xbar + t*d from products of d with xbar (in
the base) and y (in the plan), without forming u, and the z pass adds
<z, u - xbar> = t*<d, z>, with ||u - xbar|| = t: three products per
direction, each taken once and broadcast over the column of radii.
``score`` scores the rounded probe instead; the two quotients differ by
about the spacing of doubles at xbar over t.  The plan makes one call
for all the directions at all the radii, and gets (radius, direction)
arrays whose row k holds the terms at radius k.

Each decline test lives in the stage whose input it reads.  The first
stage declines on x0 and the probes alone: the ball's when ||xbar||^2
is out of range or some scale c(u) underflows.  The y stage declines on
y: the ball's when <y, xbar> or some <d, y> is not finite, the orthant's
(and so the l2 cone's) when some <y, f(u) - f(xbar)> is not finite.

The 16 most recently used plans are kept, keyed by f, xbar and y, the
probed axes and the config, when f has a row form and all of a plan's
rows fit in one chunk (m <= 41 at the default config), and f, with the
object of a bound f, is hashable (``_plan_key``).  A dense xbar and y
key by their bytes, a sparse one by its pairs (never by the vector, so
a subclass's ``__eq__`` plays no part), the axes taken from the three
supports as for the embedding.  The base of each such plan is kept
under the same rule, in a cache of its own: the 16 most recently built
kept plans' bases, keyed by f, xbar, the axes and the config.  So a new
y at a recently planned xbar builds only its plan for y, and a new z on
a kept plan embeds only z: xbar and y are embedded when the plan is
built, and the plan's base holds its own read-only x0.  A row form thus
marks f as a pure function of its argument, as the sets of this package
are; the bound ``project`` of an unhashable object (a dataclass that is
not frozen, say), whose result may change with its state, gets no kept
plan or base.  A kept plan or base holds private
read-only arrays of xbar and y, so a caller that later changes its
arrays cannot reach it, and -0.0 and 0.0 key apart (a SparseVector holds
no zero).  Any other plan and base are dropped with the verdict.

The random directions depend only on (seed, random_directions, m), so
they are drawn once per process and kept, read-only, as one array in a
cache of the 16 most recently used such sets; they give the same bits as
drawing anew.  A kept set also holds its element-wise squares, in a
second cache under the same key (``_random_squares``), which the base
hands to f's direction form: 2 MB for a set at m = 500 at the default
config, directions and squares.  The axis, sign and radius of every axis
probe depend only on m and the radii, and are kept the same way
(``_geometry``), so a base only gathers x0 at the probes' axes.

The 2m axis probes u = xbar +- t*e_j of every radius are one block.
Their u - xbar is one number du per probe, so its norm and its inner
product with z are scalars.  When f has an axis form (see ``_form``: the
``project`` of every set in this package has one), so is the image side:
its two stages map xbar and the axis j and moved coordinate of each
probe to ||f(u) - f(xbar)||, and then y to <y, f(u) - f(xbar)>, as the
direction form does at d = e_j, in O(m) per radius, or decline the
block, which ``score`` then scores.  The separable forms give those
rows' bits.

The winning probe at the smallest radius gives the last supremum and
the witness.  A dense head row was scored as the scalar ``quotient``
scores it: the same u = xbar + t*d, ``row_norms`` (``norm``'s bits), the
row form or f row by row (f's bits, see ``_form``), ``vectors._dot``
(``inner``'s bits) and the same denominator.  So when it wins and its
entry is finite, that entry is the witness quotient and a copy of the
row the witness direction, with no call of f.  Any other winner is
scored again through the two halves of the scalar ``quotient``, with
the plan's f(xbar): the z-free half (u - xbar, <y, f(u) - f(xbar)> and
the denominator) and the z half (<z, u - xbar> and the division).
Those are the axis probes, the random rows, the head rows of a sparse
query (whose SparseVector norms sum in another order than ``score``'s)
and a non-finite entry (an image with a NaN raises there).  On a dense
query the halves read the verdict's checked xbar, y and z with
``vectors._dot`` and ``_dense_norm`` and check only u - xbar and f's
image, once each.  That value is the last supremum and the witness
quotient, and ``quotient`` calls the same two halves, so a witness re-evaluates
exactly.  It replaces the winner's entry, and while another entry of the
row exceeds it by more than 1e-9 of max(|value|, tolerance), that entry
wins and is scored in turn: the direction form scores the exact probe
and the halves the rounded one, which differ by O(1) just above
``_round_back_floor``, so no entry is left above the last supremum by
more than that.  The winner's column in the table names its slot (0 the head,
1 the axis probes, 2 the random directions) and its index (the head
row, the axis probe among those of a radius, or the random direction).
The plan keeps the z-free half of each such winner, keyed by the two and
filled on first use, so a kept plan holds at most one per probe of the
smallest radius (2m axis probes, the random directions and, for a sparse
query, at most six head rows of xbar and y).  A
sparse winner among the rows of z, the head rows from ``len(plan.head)``
on, depends on z and is scored in full every time.  A dense witness
direction is a copy the plan does not keep; witness directions of
sparse queries are (immutable) SparseVectors with 1-based indices.

Verdict rule, with s_k the supremum of the quotient at the k-th radius
(radii decrease) and tol the configured tolerance:

* NonMember  if s_last > tol: some probe certifies a strictly positive
  limsup; the witness re-evaluates to the same quotient.
* Member     if s_last <= tol and the clipped sequence max(s_k, 0) never
  increases by more than tol between consecutive radii.  Negative
  estimates rising toward zero are fine (smooth cases approach the limit
  from below); a *positive* rising trend is not.
* Inconclusive otherwise: the estimates sit in the tolerance band but
  drift upward, so neither answer is safe.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .vectors import (SparseVector, Vector, _check_same_kind, _count_nonzero, _dense_norm, _dot, _halved, _split,
                      as_vector, as_vector_of, inner, norm, row_norms)

__all__ = [
    "ProbeConfig",
    "Verdict",
    "Witness",
    "OracleVerdict",
    "quotient",
    "membership",
    "directional_quotient",
    "jacobian_fd",
]

# ``score`` is handed the formed random and axis probe rows in chunks of about this many floats
_BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling plan for the membership estimator.

    Every radius probes the structured directions of the module docstring,
    the axis probes among them, and then the random ones.

    radii: strictly decreasing, positive and finite probe radii, real numbers
        (not bools) in any iterable; kept as a tuple of floats.
    random_directions: the exact number of random unit directions, one set probed
        at every radius (a draw shorter than 1e-12 is drawn again), an integer (not a bool).
    seed: integer seed (not a bool) for the direction generator; fixed seed, fixed verdict.
    tolerance: decision band for the quotient suprema, a positive and finite
        real number (not a bool); kept as a float.
    """

    radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    random_directions: int = 256
    seed: int = 0
    tolerance: float = 1e-3

    def __post_init__(self):
        radii = tuple(self.radii)
        for value in (*radii, self.tolerance):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"probe radii and tolerance must be real numbers, got {value!r}")
        object.__setattr__(self, "radii", tuple(map(float, radii)))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if not self.radii:
            raise ValueError("at least one probe radius is required")
        if any(not (0.0 < t < math.inf) for t in self.radii):
            raise ValueError("probe radii must be positive and finite")
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("probe radii must be strictly decreasing")
        for name in ("random_directions", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be positive and finite")


class Verdict(str, Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Probe achieving the supremum at the smallest radius."""

    direction: Vector
    radius: float
    quotient: float

    def to_json(self) -> dict:
        from .vectors import encode_vector

        return {
            "direction": encode_vector(self.direction),
            "radius": self.radius,
            "quotient": self.quotient,
        }


@dataclass(frozen=True)
class OracleVerdict:
    """Estimator output: per-radius suprema, decision, and witness.

    sup_estimates pairs (radius, supremum) in decreasing-radius order.
    Only a NonMember verdict carries a witness: the probe achieving the
    supremum at the smallest radius, whose quotient exceeds tolerance.
    """

    verdict: Verdict
    sup_estimates: tuple[tuple[float, float], ...]
    witness: Optional[Witness]
    tolerance: float

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "sup_estimates": {repr(t): s for t, s in self.sup_estimates},
            "witness": self.witness.to_json() if self.witness else None,
            "tolerance": self.tolerance,
        }


def quotient(f: Callable[[Vector], Vector], xbar: Vector, y: Vector, z: Vector, u: Vector) -> float:
    """Difference quotient whose limsup decides membership of z.

    Requires u != xbar.  The denominator is strictly positive then, so the
    quotient is always finite.  A dense xbar, y, z and u are checked once,
    here, and a dense f(xbar) is read with ``as_vector_of`` at xbar's
    length, as the images of the z-free half are.
    """
    if _sparse(xbar, y, z, u):
        return _z_half(z, *_z_free_half(f, f(xbar), xbar, y, u))
    xbar = as_vector(xbar)
    y, z, u = (as_vector_of(v, xbar.size) for v in (y, z, u))
    return _z_half(z, *_z_free_half(f, as_vector_of(f(xbar), xbar.size), xbar, y, u))


def _sparse(xbar: Vector, *vs: Vector) -> bool:
    """True for a sparse query, False for a dense one; a mix raises ``inner``'s TypeError (every v is checked)."""
    return all([_check_same_kind(xbar, v) for v in vs])


def _z_free_half(f: Callable[[Vector], Vector], fx: Vector, xbar: Vector, y: Vector,
                 u: Vector) -> tuple[Vector, float, float]:
    """The part of ``quotient`` that does not read z: u - xbar, <y, f(u) - fx> and the denominator; fx is f(xbar).

    Dense xbar, y and u are checked arrays of one size, read with ``_dot``
    and ``_dense_norm`` (the bits of ``inner`` and ``norm``).  u - xbar,
    which may overflow although both are finite, and the image f(u) - fx
    are each checked once, with ``as_vector``.
    """
    sparse = isinstance(xbar, SparseVector)
    length = norm if sparse else _dense_norm
    with np.errstate(over="ignore"):  # a dense u - xbar that overflows is refused by as_vector, with no warning
        du = u - xbar if sparse else as_vector(u - xbar)
    d_in = length(du)
    if d_in == 0.0:
        raise ValueError(f"u must differ from xbar: ||u - xbar|| is 0 at ||xbar|| = {norm(xbar):.6g}")
    df = f(u) - fx if sparse else as_vector_of(f(u) - fx, du.size)
    y_df = inner(y, df) if sparse else float(_dot(y, df))
    return du, y_df, d_in + length(df)


def _z_half(z: Vector, du: Vector, y_df: float, den) -> float:
    """The quotient from its z-free half (see ``_z_free_half``) and z, a checked array when du is one.

    A Python float division, so a quotient above the largest double is inf
    with no numpy overflow warning; den > 0, as u != xbar.
    """
    z_du = inner(z, du) if isinstance(du, SparseVector) else float(_dot(z, du))
    return float(z_du - y_df) / float(den)


def _anchor(x0: np.ndarray) -> tuple[float, float]:
    """<x0, x0> and ``norm(x0)``, from one square sum."""
    x_sq = float(_dot(x0, x0))
    return x_sq, _dense_norm(x0, x_sq)


def _structured_head(x0: np.ndarray, *vs: np.ndarray, anchor: Optional[tuple[float, float]] = None,
                     xbar_rows: bool = True) -> np.ndarray:
    """The (2k, m) block of unit directions +-xbar, then for each v of vs: +-v and +- the part of v orthogonal to xbar.

    The rows come in pairs u, -u, from one divide of the k stacked parts
    by their norms and one negation.  ``anchor`` is ``_anchor(x0)`` when
    the caller holds it, and ``xbar_rows=False`` leaves out +-xbar: a
    verdict's plan builds the rows of xbar and y, its z pass those of z.
    The norms are ``norm``'s and the orthogonal parts the split of
    ``orth_decompose`` (``vectors._split``), bit for bit and with its
    checks.  A v whose norm exceeds the largest double is taken as v / 2^e
    with max|v| < 2^e (``vectors._halved``), which has the same unit rows
    and a finite norm.
    """
    x_sq, x_len = _anchor(x0) if anchor is None else anchor
    parts, lengths = ([x0], [x_len]) if x_len and xbar_rows else ([], [])
    for v in vs:
        v_len = _dense_norm(v)
        if v_len == math.inf:
            v = _halved(v)[0]
            v_len = _dense_norm(v)
        if not v_len:
            continue
        parts.append(v)
        lengths.append(v_len)
        if x_len:
            _, o, o_len = _split(x0, v, anchor_sq=x_sq)
            if o_len > 1e-13 * v_len:
                parts.append(o)
                lengths.append(o_len)
    head = np.empty((2 * len(parts), x0.size))
    if parts:
        units = head[::2]
        for row, part, length in zip(units, parts, lengths):
            np.divide(part, length, out=row)
        np.negative(units, out=head[1::2])
    return head


def _axes(*vs: SparseVector) -> tuple[int, ...]:
    """The probed axes of a sparse query: all supports, in increasing order, plus one fresh index."""
    active = sorted({i for v in vs for i, _ in v.pairs})
    return (*active, (active[-1] + 1) if active else 1)


def _embed(pairs: tuple[tuple[int, float], ...], axes: tuple[int, ...]) -> np.ndarray:
    """The array over the probed axes of the sparse vector with these pairs."""
    values = dict(pairs)
    return np.array([values.get(i, 0.0) for i in axes])


def _point(axes: Optional[tuple[int, ...]], row: np.ndarray) -> Vector:
    """A probe row as a vector of the query's kind: the row itself, or a SparseVector over the probed axes."""
    return row if axes is None else SparseVector._of(zip(axes, row.tolist()))


def _block_rows(m: int) -> int:
    return max(1, _BLOCK_FLOATS // m)


# one array per (seed, count, m); 1 MB at m = 500, count = 256
@lru_cache(maxsize=16)
def _random_dirs(seed, count: int, m: int) -> np.ndarray:
    """Seeded random unit directions, probed at every radius: one read-only (count, m) array.

    Gaussian draws of length m are taken from default_rng(seed) into the
    rows and scaled to unit length in place.  A draw shorter than 1e-12 is
    dropped, the later rows move up, and the rows still lacking are drawn
    again until there are ``count``; when no draw is short, this is one
    draw of ``count`` rows.
    """
    rng, dirs, start = np.random.default_rng(seed), np.empty((count, m)), 0
    while start < count:
        draws = dirs[start:]
        rng.standard_normal(out=draws)
        length = np.linalg.norm(draws, axis=1)
        keep = length >= 1e-12
        np.divide(draws, length[:, None], out=draws, where=keep[:, None])
        kept = int(_count_nonzero(keep))
        if kept < len(draws):
            draws[:kept] = draws[keep]
        start += kept
    dirs.flags.writeable = False
    return dirs


# one array per (seed, count, m), beside _random_dirs's; 1 MB at m = 500, count = 256
@lru_cache(maxsize=16)
def _random_squares(seed, count: int, m: int) -> np.ndarray:
    """The element-wise squares of ``_random_dirs(seed, count, m)``, read-only: a direction form's ``squares``."""
    squares = np.square(_random_dirs(seed, count, m))
    squares.flags.writeable = False
    return squares


class _Scores(NamedTuple):
    """The z-free scores of the random probes, by radius (see ``_random_scores``)."""

    rows: np.ndarray     # the directions d, or u - xbar of every probe row ``score`` took, radius by radius
    scale: Optional[np.ndarray]  # the column of radii when the rows are the directions; None when they are u - xbar
    y_df: np.ndarray     # <y, f(u) - f(xbar)>
    den: np.ndarray      # the quotient's denominator


def _quotients(z0: np.ndarray, rows: np.ndarray, scale: Optional[np.ndarray], y_df: np.ndarray,
               den: np.ndarray) -> np.ndarray:
    """The quotients (<z, u - xbar> - <y, df>) / den of probe rows r with <z, u - xbar> = scale * <r, z> (<r, z> unscaled).

    When the rows are directions d and ``scale`` the column of radii,
    <z, u - xbar> = t <d, z> is one product per direction, broadcast over
    the radii.  <d, z> may overflow where t <d, z> does not: an entry whose
    t <d, z> is not finite is taken as <t d, z>.
    """
    z_du = _dot(rows, z0)
    if scale is not None:
        z_du = scale * z_du
        lost = ~np.isfinite(z_du)
        if _count_nonzero(lost):
            k, i = lost.nonzero()
            z_du[k, i] = _dot(scale[k] * rows[i], z0)
    return (z_du - y_df) / den


def _random_scores(base: _Base, y0: np.ndarray, score: Callable) -> Optional[_Scores]:
    """The z-free scores of the base's random directions at every radius, all above the floor (``_round_back_floor``).

    With the base's direction form of f (see ``_base``), every direction d
    is scored at every radius t from its products with xbar (in the base)
    and y (in the y stage), taken once: at u = x0 + t d, never formed, so
    <z, u - xbar> = t <d, z> and ||u - xbar|| = t, and the scores are
    (radius, direction) arrays.  When either stage declines, or f has no
    such form, the probe rows are formed, the directions at each radius in
    turn, and scored by the plan's ``score`` in chunks of ``_block_rows``
    rows, a chunk possibly spanning two radii.  With no random directions
    the result is None.
    """
    dirs, t, form = base.dirs, base.t, base.dirs_form
    count = len(dirs)
    if not count:
        return None
    if form is not None:
        y_df = form[0](y0)
        if y_df is not None:
            return _Scores(dirs, t, y_df, form[1])
    size, rows = _block_rows(base.x0.size), np.arange(t.size * count)
    # row k probes direction k % count at radius k // count
    scores = (score(base.x0 + t[k // count] * dirs[k % count]) for k in np.split(rows, range(size, rows.size, size)))
    du, y_df, den = map(np.concatenate, zip(*scores))
    return _Scores(du, None, y_df, den)


# one set per (m, radii); about 70 kB at m = 500, three radii
@lru_cache(maxsize=16)
def _geometry(m: int, radii: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only arrays (j, s, t) of the axis probes of every radius.

    Axis probe k = 0 .. 2m-1 of a radius moves along axis j = k // 2 with
    sign s = +1 for even k and -1 for odd k, at the radius t; the probes of
    each radius follow those of the one before.  None of it reads xbar or
    y, so a plan only gathers x0[j].
    """
    k = np.arange(2 * m * len(radii))
    arrays = ((k >> 1) % m, 1.0 - 2.0 * (k & 1), np.repeat(radii, 2 * m))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _axis_probes(xj: np.ndarray, s: np.ndarray, t):
    """Moved coordinates x0[j] + s*t of axis probes, with the step du.

    t is the radius, or an array of one radius per probe.  Each probe
    differs from x0 + 0.0 only at j, so u - x0 is the single number
    du = moved - x0[j]: the row norm is |du| (``row_norms`` of that row
    gives these bits) and the inner product with z0 du*z0[j] + 0.0, bit for
    bit what the full rows give (a sum of zero products rounds to +0.0).
    """
    moved = xj + s * t
    return moved, moved - xj


def _axis_rows(x0: np.ndarray, j: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """The full rows x0 + 0.0 with entry j set to ``moved``, one per axis probe."""
    u = np.tile(x0 + 0.0, (j.size, 1))
    u[np.arange(j.size), j] = moved
    return u


def _form(f: Callable[[Vector], Vector], kind: str) -> Optional[Callable]:
    """The ``kind`` form of f ("rows", "axes" or "dirs"), or None when f has none.

    A form is the ``project_<kind>`` of f's owner when f is the owner's
    ``project``: the owner is ``f.__self__`` for a bound method and the
    namespace of f's module, ``f.__globals__``, for a function.  Any other
    f, a ``functools.wraps`` wrapper of a ``project`` among them, has none.

    * A row form maps a k x m array of points (rows) to the k x m array
      of their images on the same coordinates, row i bit for bit the
      image f gives of row i alone, as every set of this package does: a
      dense head winner's witness quotient is read from ``score``.
    * The axis and direction forms come in two stages, so that the part
      that never reads y is kept with the base of xbar (see ``_base``).
      The first stage maps the probes, with x0 but no y0, to the array
      ||f(u) - f(x0)|| over the probes and the y stage, a function of y0
      that returns the array <y0, f(u) - f(x0)> over the same probes; each
      stage returns None where it declines the probes.  The first stage
      declines on what x0 and the probes alone show, the y stage on what y0
      shows.  A y stage answers as a one-stage call on (x0, y0) would, in
      its bits: it takes the same products in the same order.
    * An axis form's first stage takes (x0, j, moved), j the moved axis and
      ``moved`` the new coordinate of each probe u = x0 + (moved - x0[j]) e_j:
      the direction form's contract at d = e_j.
    * A direction form's first stage takes (x0, dirs, t, squares), dirs a
      2-D array whose rows are unit directions d, t a column of radii and
      ``squares`` the read-only element-wise squares of dirs, kept with
      the directions (``_random_squares``); a form may read them or not,
      and squares dirs itself, with the same bits, when called without
      them.  Its arrays are (radius, direction) arrays over the probes
      u = x0 + t*d, row k the terms at radius k.

    For a sparse f the coordinates are those on the probed axes, which is
    valid only when f acts coordinate by coordinate and maps 0 to 0.

    An f with a row form must be a pure function of its argument: its
    z-free plan and its base may be kept (see ``_kept_plan``) and reused
    by a later verdict on equal (f, xbar, y, config) or (f, xbar, config),
    and a kept plan or base holds f, and so its object, until it is
    dropped.  The plan of a bound method is kept only when its object is
    hashable (immutable by convention, as a frozen dataclass is), so the
    state of a mutable object is never answered from a stale plan.
    """
    if getattr(f, "__name__", None) != "project":
        return None
    owner = getattr(f, "__self__", None)
    get = getattr(f, "__globals__", {}).get if owner is None else partial(getattr, owner)
    return get(f"project_{kind}", None) if get("project", None) == f else None


def _round_back_floor(x0: np.ndarray) -> float:
    """The radius at or below which a unit probe x0 + t*d may round back to x0, and above which none does."""
    # a unit probe rounds back only when every |fl(t d_i)| <= spacing(x0_i) / 2, which forces t <= this:
    # sqrt(m) 2^-1074 covers the t d_i that underflow, and 2^-40 the rounding of ||d|| and of this sum
    return (0.5 * _dense_norm(np.spacing(x0)) + math.sqrt(x0.size) * 2.0**-1074) * (1.0 + 2.0**-40)


class _Base(NamedTuple):
    """The part of a verdict that reads neither y nor z (see ``_base``), built only for radii above the floor."""

    fx: Vector                     # f(xbar), a checked array of x0's size for a dense f
    rows: Optional[Callable]       # f's row form, or f row by row for a dense f with none; None for a sparse one
    fx0: Optional[np.ndarray]      # f(xbar) over the probed axes, when ``rows`` is not None
    x0: np.ndarray                 # xbar over the probed axes
    anchor: tuple[float, float]    # <x0, x0> and ||x0||
    head: np.ndarray               # the (2, m) or (0, m) block of the head rows of xbar (``_structured_head``)
    t: np.ndarray                  # the column of radii
    dirs: np.ndarray               # the read-only random directions, probed at every radius (``_random_dirs``)
    axis: tuple                    # (j, s, moved coordinate, du) of the axis probes of every radius
    axis_form: Optional[tuple]     # (y stage, denominator) of f's axis form; None when f has none or it declined
    dirs_form: Optional[tuple]     # the same of f's direction form on dirs at every radius


def _base(f: Callable[[Vector], Vector], xbar: Vector, x0: np.ndarray, axes: Optional[tuple[int, ...]],
          config: ProbeConfig) -> _Base:
    """The part of a verdict on f at xbar that reads neither y nor z: every plan at xbar builds on it.

    It holds f(xbar), x0, the anchor, the head rows of xbar, the geometry
    of the axis probes and the first stage of each form of f (see
    ``_form``).  A dense f(xbar), and each image of a dense f with no row
    form, is read with ``as_vector_of`` at x0's size.  A radius at or
    below ``_round_back_floor`` raises ValueError, before any probe is
    formed.
    """
    m, radii = x0.size, config.radii
    floor = _round_back_floor(x0)
    if radii[-1] <= floor:
        raise ValueError(
            f"u must differ from xbar: a probe at radius {next(t for t in radii if t <= floor)!r} rounds back to "
            f"xbar at ||xbar|| = {norm(xbar):.6g}; probe radii are absolute")
    anchor = _anchor(x0)
    axis_j, axis_s, axis_t = _geometry(m, radii)
    moved, axis_du = _axis_probes(x0[axis_j], axis_s, axis_t)
    fx = f(xbar)
    f_rows = _form(f, "rows")
    if not isinstance(fx, SparseVector):
        fx = as_vector_of(fx, m)
        if f_rows is None:
            f_rows = lambda rows: np.array([as_vector_of(f(row), m) for row in rows])
    fx0 = None if f_rows is None else _embed(fx.pairs, axes) if isinstance(fx, SparseVector) else fx

    def first_stage(kind: str, d_in, *args) -> Optional[tuple]:
        """(y stage, denominator) of f's ``kind`` form on the probes of args, or None."""
        form = _form(f, kind)
        staged = None if form is None else form(x0, *args)
        return None if staged is None else (staged[1], d_in + staged[0])

    t = np.array(radii)[:, None]
    key = (config.seed, config.random_directions, m)
    dirs = _random_dirs(*key)
    return _Base(fx, f_rows, fx0, x0, anchor, _structured_head(x0, anchor=anchor), t, dirs,
                 (axis_j, axis_s, moved, axis_du), first_stage("axes", np.abs(axis_du), axis_j, moved),
                 first_stage("dirs", t, dirs, t, _random_squares(*key)) if len(dirs) else None)


class _Plan(NamedTuple):
    """The part of a verdict that does not depend on z (see ``_plan``), built only for radii above the floor."""

    base: _Base                    # the part that reads neither y nor z (``_base``)
    score: Callable                # probe rows u -> (u - xbar, <y, f(u) - f(xbar)>, denominator), see ``_plan``
    head: np.ndarray               # the read-only (h, m) head rows of xbar and y, scored by every z pass
    random: Optional[_Scores]      # the scores of the random directions at every radius; None when there are none
    axis: tuple                    # (j, s, du, <y, df>, denominator) of the axis probes of every radius
    halves: dict                   # (slot, index) -> (direction, *z-free half) of witnesses at the last radius


def _plan(base: _Base, f: Callable[[Vector], Vector], y: Vector, y0: np.ndarray,
          axes: Optional[tuple[int, ...]]) -> _Plan:
    """The z-free part of a verdict on f at xbar for y, from the base at xbar (``_base``): only what reads y.

    That is the head rows of y, the y stage of each form of f, and
    ``score``, which scores the probe rows it is handed: the head rows in
    every z pass (see ``_z_pass``), and the axis and random probes here,
    once, where a stage declines or f has no such form.
    """
    # the probe plan, radius by radius: the head rows (slot 0), those of
    # xbar and y and then those of z, all scored by the z pass, the axis
    # probes (slot 1), then the random directions (slot 2), the columns
    # of the z pass's table in this order; the axis probes of every radius
    # form one block of scalars
    x0, f_rows, fx, fx0 = base.x0, base.rows, base.fx, base.fx0
    head = np.concatenate([base.head, _structured_head(x0, y0, anchor=base.anchor, xbar_rows=False)])
    head.flags.writeable = False

    def score(u):
        """(u - xbar, <y, f(u) - f(xbar)>, denominator) of the probe rows u, an array f is handed but never written to.

        u - xbar fills the top half of one new block and a row form's
        f(u) - f(xbar) the bottom half, so one ``row_norms`` call takes the
        norms of both; a formless sparse f is called once per row, its
        images read through ``inner`` and ``norm``.
        """
        h = len(u)
        block = np.empty((2 * h, x0.size))
        du = np.subtract(u, x0, out=block[:h])
        if f_rows is None:
            dfs = [f(_point(axes, row)) - fx for row in u]
            return du, np.array([inner(y, d) for d in dfs]), row_norms(du) + np.array([norm(d) for d in dfs])
        df = np.subtract(f_rows(u), fx0, out=block[h:])
        lengths = row_norms(block)
        return du, _dot(df, y0), lengths[:h] + lengths[h:]

    axis_j, axis_s, moved, axis_du = base.axis
    axis_y_df = None if base.axis_form is None else base.axis_form[0](y0)
    if axis_y_df is None:
        # f has no axis form, or a stage declined the block: the full rows, in chunks of the random rows' size
        rows = _block_rows(x0.size)
        tiles = (_axis_rows(x0, axis_j[i:i + rows], moved[i:i + rows]) for i in range(0, moved.size, rows))
        axis_y_df, axis_den = map(np.concatenate, zip(*(score(u)[1:] for u in tiles)))
    else:
        axis_den = base.axis_form[1]
    random = _random_scores(base, y0, score)
    return _Plan(base, score, head, random, (axis_j, axis_s, axis_du, axis_y_df, axis_den), {})


def _plan_key(f: Callable[[Vector], Vector], xbar: Vector, y: Vector, axes: Optional[tuple[int, ...]],
              config: ProbeConfig) -> Optional[tuple]:
    """The key under which a verdict's plan is kept, or None when it is not kept.

    A dense xbar and y, checked arrays, key by their bytes, and a sparse
    xbar and y by their pairs over the probed axes ``axes`` (None for a
    dense query).  A plan, and its base under the key without y, is kept
    when f has a row form (the sets of this package are pure; a user
    callable may not be), when the rows ``score`` would be handed, the head
    rows and the random directions at every radius, fit in one chunk, so
    that a kept plan holds at most about 32k floats of u - xbar, and when
    f and the object of a bound f are hashable (a bound method hashes by
    the identity of its object).
    """
    m = xbar.size if axes is None else len(axes)
    if _form(f, "rows") is None or len(config.radii) * (6 + config.random_directions) > _block_rows(m):
        return None
    try:  # the rest of the key is hashable by construction
        hash((f, getattr(f, "__self__", None)))
    except TypeError:  # an unhashable f or object, such as an instance of a class whose __hash__ is None
        return None
    return (f, xbar.tobytes(), y.tobytes(), axes, config) if axes is None else (f, xbar.pairs, y.pairs, axes, config)


def _kept_vector(key, axes: Optional[tuple[int, ...]]) -> tuple[Vector, np.ndarray]:
    """The vector of a plan key's bytes or pairs, and a read-only array of it over the probed axes."""
    if axes is None:
        v0 = np.frombuffer(key)
        return v0, v0
    v0 = _embed(key, axes)
    v0.flags.writeable = False
    return SparseVector._held(key), v0


# the bases of the 16 most recently built kept plans, by (f, xbar, axes, config)
@lru_cache(maxsize=16)
def _kept_base(f: Callable[[Vector], Vector], x_key, axes: Optional[tuple[int, ...]], config: ProbeConfig) -> _Base:
    """The base of a kept plan, built on a read-only array of xbar that no caller can reach."""
    return _base(f, *_kept_vector(x_key, axes), axes, config)


# the 16 most recently used plans of _plan_key, at most about 32k floats of u - xbar each
@lru_cache(maxsize=16)
def _kept_plan(f: Callable[[Vector], Vector], x_key, y_key, axes: Optional[tuple[int, ...]],
               config: ProbeConfig) -> _Plan:
    """The plan of ``_plan_key``, on its kept base and a read-only array of y that no caller can reach."""
    return _plan(_kept_base(f, x_key, axes, config), f, *_kept_vector(y_key, axes), axes)


def _z_pass(plan: _Plan, f: Callable[[Vector], Vector], xbar: Vector, y: Vector, z: Vector, z0: np.ndarray,
            axes: Optional[tuple[int, ...]], config: ProbeConfig) -> OracleVerdict:
    """The verdict on z from its plan: the +-z and +-orth(z) rows, the table of quotients and the witness."""
    base = plan.base
    x0 = base.x0
    radii, per, count = config.radii, 2 * x0.size, config.random_directions
    n_radii = len(radii)
    # the head rows of the plan, then those of z, of every radius are
    # scored in one call.  x0 is added to u in place before f sees u
    z_rows = _structured_head(x0, z0, anchor=base.anchor, xbar_rows=False)
    head = np.concatenate([plan.head, z_rows]) if len(z_rows) else plan.head
    n = len(head)
    if n:
        u = (base.t[:, None] * head).reshape(-1, x0.size)
        u += x0
        du, y_df, den = plan.score(u)

    axis_j, axis_s, axis_du, axis_y_df, axis_den = plan.axis
    # not prefilled: every entry is written, and plan.random is None here only when count is 0
    table = np.empty((n_radii, n + per + count))
    # a quotient above the largest double is inf, as it should be: it wins its radius
    with np.errstate(over="ignore"):
        if n:
            table[:, :n] = _quotients(z0, du, None, y_df, den).reshape(n_radii, n)
        table[:, n:n + per] = (((axis_du * z0[axis_j] + 0.0) - axis_y_df) / axis_den).reshape(n_radii, per)
        if plan.random is not None:
            table[:, n + per:] = _quotients(z0, *plan.random).reshape(n_radii, count)
    best = table.argmax(axis=1)
    estimates = list(zip(radii, table[np.arange(n_radii), best].tolist()))

    # the witness: a dense head row was scored as quotient scores it, so
    # its finite entry is the last supremum.  Any other winner at the
    # smallest radius is scored again through the two halves of the scalar
    # quotient, with the plan's f(xbar), so the witness re-evaluates to
    # exactly the stored value; its column gives its slot and index, and the
    # plan keeps the z-free half of each such winner but the rows of z, the
    # head rows from len(plan.head) on, which depend on z.  The value
    # replaces the winner's entry, and while another entry exceeds it by
    # more than 1e-9 of max(|value|, tolerance), that entry wins and is
    # scored in turn
    t, last, i = radii[-1], table[-1], int(best[-1])
    while True:
        slot = (i >= n) + (i >= n + per)
        if not slot and axes is None and math.isfinite(last[i]):
            direction, value = head[i], float(last[i])
        else:
            k = i - (0, n, n + per)[slot]
            half = plan.halves.get((slot, k))
            if half is None:
                if slot == 1:
                    unit = np.zeros(x0.size)
                    unit[axis_j[k]] = axis_s[k]
                else:
                    unit = (head if slot == 0 else base.dirs)[k].copy()
                direction = _point(axes, unit)
                half = (direction, *_z_free_half(f, base.fx, xbar, y, xbar + t * direction))
                if slot or (axes is not None and k < len(plan.head)):
                    plan.halves[slot, k] = half
            direction, *z_free = half
            value = _z_half(z, *z_free)
        last[i] = value
        i = int(last.argmax())
        # rounding noise (1e-17 where a quotient is 0, say) is no reason to score again
        if not last[i] > value + 1e-9 * max(abs(value), config.tolerance):
            break
    estimates[-1] = (t, value)
    sups = [s for _, s in estimates]
    tol = config.tolerance
    witness = None
    if sups[-1] > tol:
        # a persisting positive quotient at the smallest radius certifies
        # exclusion; keep the probe that achieved it, in an array of its own
        verdict = Verdict.NON_MEMBER
        witness = Witness(direction=direction.copy() if axes is None else direction, radius=t, quotient=sups[-1])
    elif all(max(b, 0.0) <= max(a, 0.0) + tol for a, b in zip(sups, sups[1:])):
        verdict = Verdict.MEMBER
    else:
        verdict = Verdict.INCONCLUSIVE
    return OracleVerdict(
        verdict=verdict,
        sup_estimates=tuple(estimates),
        witness=witness,
        tolerance=tol,
    )


def membership(f: Callable[[Vector], Vector], xbar: Vector, y: Vector, z: Vector,
               config: Optional[ProbeConfig] = None) -> OracleVerdict:
    """Estimate whether z belongs to the coderivative of f at xbar for y."""
    if config is None:
        config = ProbeConfig()
    if _sparse(xbar, y, z):
        axes = _axes(xbar, y, z)
    else:
        xbar = as_vector(xbar)
        y, z = as_vector_of(y, xbar.size), as_vector_of(z, xbar.size)
        axes = None
    key = _plan_key(f, xbar, y, axes, config)
    if key:
        plan = _kept_plan(*key)
    else:
        x0, y0 = (xbar, y) if axes is None else (_embed(xbar.pairs, axes), _embed(y.pairs, axes))
        plan = _plan(_base(f, xbar, x0, axes, config), f, y, y0, axes)
    return _z_pass(plan, f, xbar, y, z, z if axes is None else _embed(z.pairs, axes), axes, config)


def directional_quotient(f: Callable[[Vector], Vector], xbar: Vector, w: Vector, t: float) -> Vector:
    """Forward difference quotient (f(xbar + t w) - f(xbar)) / t.

    A dense f's images are read with ``as_vector_of`` at xbar's length, as
    ``quotient`` reads them.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if _sparse(xbar, w):
        df = f(xbar + t * w) - f(xbar)
        return df * (1.0 / t) if isinstance(df, SparseVector) else df / t
    xbar = as_vector(xbar)
    w = as_vector_of(w, xbar.size)
    return (as_vector_of(f(xbar + t * w), xbar.size) - as_vector_of(f(xbar), xbar.size)) / t


def jacobian_fd(f: Callable[[np.ndarray], np.ndarray], xbar, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a dense map; column j differentiates e_j."""
    if not (h > 0.0):
        raise ValueError("h must be positive")
    xbar = as_vector(xbar)
    n = xbar.shape[0]
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((as_vector(f(xbar + e)) - as_vector(f(xbar - e))) / (2.0 * h))
    return np.column_stack(cols)
