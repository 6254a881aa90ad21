"""Numerical limsup membership oracle for coderivative queries.

A vector z belongs to the coderivative of f at xbar applied to y exactly
when

    limsup_{u -> xbar}  ( <z, u - xbar> - <y, f(u) - f(xbar)> )
                        / ( ||u - xbar|| + ||f(u) - f(xbar)|| )   <=  0.

The oracle estimates the limsup by sampling u = xbar + t*d over a fixed
set of shrinking radii t and many unit directions d: a seeded batch of
random directions per radius plus structured probes aligned with the
known worst-case families (radial moves along xbar, moves along the
orthogonal parts of y and z against xbar, single-coordinate segments,
and moves along y and z themselves).  Scaled single-coordinate segments
such as u_j = xbar_j + t * z_j trace the same rays as the coordinate
probes, so normalising directions to unit length loses no coverage.
The structured directions other than the axes (the head) come from
scalar products taken once per plan (xbar and y) and once per verdict
(z); see ``_structured_head``.

Evaluation is batched, and split in two.  Only the +-z and +-orth(z)
head rows and <z, u - xbar> depend on z, so a verdict first takes a
z-free plan of (f, xbar, y, config): f(xbar), <xbar, xbar> and ||xbar||,
the head rows of xbar and y, and for every random and axis probe its
<y, f(u) - f(xbar)> and denominator.  The z pass then scores the head
rows, takes one <z, u - xbar> per chunk of rows and per axis probe, and
runs the argmaxes, the verdict rule and the witness.  Every radius
probes, in order, the head (the rows of z last), the axis probes, then
its random directions; the supremum at a radius is the first largest
quotient in that order.  The random directions of all radii are one
array, each radius a range of its rows.  Sparse queries use the same
dense path: they are embedded in R^m over the probed axes (all supports
plus one fresh index), from one dict per vector (``_embed``).

The head rows take the row path: u = xbar + t*d is formed (t per row)
and scored with one call of the row form (``_score``), inner products in
the fixed order of ``vectors._dot`` and norms by ``row_norms``, which
give a row the same bits at every position in a call.  So the head keeps
the bits of the scalar ``quotient``, and two head rows that round to one
probe tie, the first winning.  In every z pass, the head rows of xbar,
y and z of every radius take one call, so a z pass only reads its plan,
apart from the witness halves below.

The random rows take the direction form of f when it has one (see
``_form``; the ``project`` of every set in this package has one).  It
scores the exact probe u = xbar + t*d from products of d with xbar and
y taken in the plan, without forming u, and the z pass adds
<z, u - xbar> = t*<d, z>, with ||u - xbar|| = t: three products per
direction.  The row path scores the rounded probe instead; the two
quotients differ by about the spacing of doubles at xbar over t.  The
plan makes one call for every random row, each row at its radius, and
a row's terms do not depend on the other rows.  The form is not called,
and the random rows take the row path, when some row might round back to
xbar (see ``_plan``); the ball's form declines, with the same result,
where its axis form does.  On the row path, the random rows are cut into
chunks of at most about 32k floats (``_block_rows``), each one ``_score``
call; a chunk may span two radii, and each radius keeps the first
largest quotient over its chunks.

The 16 most recently used plans are kept, keyed by f, the bytes of
xbar and y over the probed axes, the axes and the config, when f has a
row form and all of a plan's rows fit in one chunk (m <= 41 at the
default config).  A row form thus marks f as a pure function of its
argument, as the sets of this package are: an object whose ``project``
has a ``project_rows`` but whose result changes with its state must not
be reused for equal (xbar, y, config) after that state changes.  A kept
plan holds private read-only copies of xbar and y, so a caller that
later changes its arrays cannot reach it, and -0.0 and 0.0 key apart.
Any other plan streams its chunks to the z pass one by one and is
dropped with the verdict.

The random directions depend only on (seed, random_directions, m, number
of radii), so they are drawn once per process and kept, read-only, as
one array in a cache of the 16 most recently used such sets; they give
the same bits as drawing anew, radius by radius.

The 2m axis probes u = xbar +- t*e_j of every radius are one block.
Their u - xbar is one number du per probe, so its norm and its inner
product with z are scalars.  When f has an axis form (see ``_form``: the
``project`` of every set in this package has one), so is the image side:
the form maps ||xbar||^2, xbar_j and the moved coordinate of each probe
to two numbers (a, b) with f(u) - f(xbar) = a*xbar + b*e_j, or declines
the block.  Then

    <y, f(u) - f(xbar)>  = a*<y, xbar> + b*y_j,
    ||f(u) - f(xbar)||   = hypot(a*||xbar - xbar_j e_j||, a*xbar_j + b),

with <y, xbar> and the off-axis norms (prefix and suffix sums of
squares, so nothing cancels) computed once per plan, so a radius
costs O(m).  When the form declines the block, or f has none, every
axis probe of every radius is scored as a full row, in chunks of the
random rows' size.  Separable forms (a = 0) give those rows' bits.

When f has a row form (``_form`` again), f is applied to a whole call's
rows at once, and its images lie on the probed coordinates.  Any other f
is called once per row.  Its dense images are scored as a row form's;
sparse rows reach it as SparseVectors, and their images, wherever f
maps, are scored through ``inner`` and ``norm``.

The winning probe at the smallest radius is scored again through the
two halves of the scalar ``quotient``, with the plan's f(xbar): the
z-free half (u - xbar, <y, f(u) - f(xbar)> and the denominator) and the
z half (<z, u - xbar> and the division).  That value is the last
supremum and the witness quotient, and ``quotient`` calls the same two
halves, so a witness re-evaluates exactly.  The plan keeps the z-free
half of each such winner, keyed by its slot (0 the head, 1 the axis
probes, 2 the random rows) and index and filled on first use, so a kept
plan holds at most one per probe of the smallest radius (at most six
head rows of xbar and y, 2m axis probes and the random directions).  A
winner among the rows of z, the head rows from ``len(plan.head)`` on,
depends on z and is scored in full every time.  A dense witness
direction is a copy the plan does not keep; witness directions of sparse
queries are (immutable) SparseVectors with 1-based indices.

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

The denominator may also be computed as sqrt(||u - xbar||^2 +
||f(u) - f(xbar)||^2); the two quotients have the same sign and their
ratio lies in [sqrt(2)/2, 1], so verdicts agree.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .vectors import SparseVector, Vector, _dense_norm, _dot, _split, as_vector, inner, norm, row_norms

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

_DENOMINATORS = ("sum", "euclidean")
# the row path scores probe rows in chunks of about this many floats
_BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling plan for the membership estimator.

    Every radius probes the structured directions of the module docstring,
    the axis probes among them, and then the random ones.

    radii: strictly decreasing, positive and finite probe radii, real numbers
        (not bools) in any iterable; kept as a tuple of floats.
    random_directions: random unit directions drawn per radius, an integer (not a bool).
    seed: integer seed (not a bool) for the direction generator; fixed seed, fixed verdict.
    tolerance: decision band for the quotient suprema, a positive and finite
        real number (not a bool); kept as a float.
    denominator: "sum" for ||du|| + ||df||, "euclidean" for the root of
        the sum of squares.
    """

    radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    random_directions: int = 256
    seed: int = 0
    tolerance: float = 1e-3
    denominator: str = "sum"

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
        if self.random_directions < 0:
            raise ValueError("random_directions must be nonnegative")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be positive and finite")
        if self.denominator not in _DENOMINATORS:
            raise ValueError(f"denominator must be one of {_DENOMINATORS}")


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


def _denominator(kind: str, d_in, d_out):
    """Quotient denominator; takes scalars or arrays of row norms alike."""
    if kind == "euclidean":
        return np.hypot(d_in, d_out)
    return d_in + d_out


def quotient(f: Callable[[Vector], Vector], xbar: Vector, y: Vector, z: Vector, u: Vector,
             denominator: str = "sum") -> float:
    """Difference quotient whose limsup decides membership of z.

    Requires u != xbar.  The denominator is strictly positive then, so the
    quotient is always finite.
    """
    if denominator not in _DENOMINATORS:
        raise ValueError(f"denominator must be one of {_DENOMINATORS}")
    return _z_half(z, *_z_free_half(f, None, xbar, y, u, denominator))


def _z_free_half(f: Callable[[Vector], Vector], fx: Optional[Vector], xbar: Vector, y: Vector, u: Vector,
                 denominator: str) -> tuple[Vector, float, float]:
    """The part of ``quotient`` that does not read z: u - xbar, <y, f(u) - f(xbar)> and the denominator.

    fx is f(xbar); None takes f(xbar) after f(u), as ``quotient`` does.
    """
    if isinstance(xbar, np.ndarray):
        u = as_vector(u)
    du = u - xbar
    d_in = norm(du)
    if d_in == 0.0:
        raise ValueError(f"u must differ from xbar: ||u - xbar|| is 0 at ||xbar|| = {norm(xbar):.6g}")
    df = f(u) - (f(xbar) if fx is None else fx)
    return du, inner(y, df), _denominator(denominator, d_in, norm(df))


def _z_half(z: Vector, du: Vector, y_df: float, den) -> float:
    """The quotient from its z-free half (see ``_z_free_half``) and z."""
    return float((inner(z, du) - y_df) / den)


def _anchor(x0: np.ndarray) -> tuple[float, float]:
    """<x0, x0> and ``norm(x0)``, from one square sum."""
    x_sq = float(_dot(x0, x0))
    return x_sq, _dense_norm(x0, x_sq)


def _structured_head(x0: np.ndarray, *vs: np.ndarray, anchor: Optional[tuple[float, float]] = None,
                     xbar_rows: bool = True) -> list[np.ndarray]:
    """Unit directions +-xbar, then for each v of vs: +-v and +- the part of v orthogonal to xbar.

    ``anchor`` is ``_anchor(x0)`` when the caller holds it, and
    ``xbar_rows=False`` leaves out +-xbar: a verdict's plan builds the
    rows of xbar and y, its z pass those of z.  The norms are ``norm``'s
    and the orthogonal parts the split of ``orth_decompose``
    (``vectors._split``), bit for bit and with its checks.
    """
    x_sq, x_len = _anchor(x0) if anchor is None else anchor
    parts = [(x0, x_len)] if x_len and xbar_rows else []
    for v in vs:
        v_len = _dense_norm(v)
        if not v_len:
            continue
        parts.append((v, v_len))
        if x_len:
            _, o, o_len = _split(x0, v, anchor_sq=x_sq)
            if o_len > 1e-13 * v_len:
                parts.append((o, o_len))
    units = [v / length for v, length in parts]
    return [w for u in units for w in (u, -u)]


def _embed(xbar: SparseVector, y: SparseVector, z: SparseVector) -> tuple:
    """The probed axes of a sparse query (all supports plus one fresh index) and x0, y0, z0 over them."""
    maps = [v.to_mapping() for v in (xbar, y, z)]
    active = sorted(maps[0].keys() | maps[1].keys() | maps[2].keys())
    axes = (*active, (active[-1] + 1) if active else 1)
    return (axes, *(np.array([values.get(i, 0.0) for i in axes]) for values in maps))


def _dense_over(v: SparseVector, axes) -> np.ndarray:
    values = v.to_mapping()
    return np.array([values.get(i, 0.0) for i in axes])


def _point(axes: Optional[tuple[int, ...]], row: np.ndarray) -> Vector:
    """A probe row as a vector of the query's kind: the row itself, or a SparseVector over the probed axes."""
    return row if axes is None else SparseVector._of(zip(axes, row.tolist()))


def _block_rows(m: int) -> int:
    return max(1, _BLOCK_FLOATS // m)


# one array per (seed, count, m, number of radii); 3 MB at m = 500, count = 256
@lru_cache(maxsize=16)
def _random_dirs(seed, count: int, m: int, n_radii: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Seeded random unit directions: one read-only (rows, m) array, and the (start, end) rows of each radius.

    For each radius in turn, `count` Gaussian draws of length m are taken
    from default_rng(seed) into the radius's rows and scaled to unit length
    in place; draws shorter than 1e-12 are dropped.
    """
    rng = np.random.default_rng(seed)
    dirs, bounds, end = np.empty((n_radii * count, m)), [], 0
    for _ in range(n_radii):
        draws = dirs[end:end + count]
        rng.standard_normal(out=draws)
        length = np.linalg.norm(draws, axis=1)
        keep = length >= 1e-12
        np.divide(draws, length[:, None], out=draws, where=keep[:, None])
        kept = int(np.count_nonzero(keep))
        if kept < count:
            draws[:kept] = draws[keep]
        bounds.append((end, end + kept))
        end += kept
    dirs = dirs[:end]
    dirs.flags.writeable = False
    return dirs, tuple(bounds)


class _Scores(NamedTuple):
    """The z-free scores of one chunk of probe rows (see ``_scored_chunks``)."""

    rows: np.ndarray     # rows r with <z, u - xbar> = scale * <r, z>, one per probe
    segments: list       # (radius index, slot, start, end, block, first): row start + i is block[first + i]
    scale: Optional[np.ndarray]  # the radius of each probe when the rows are its direction; None when they are u - xbar
    y_df: np.ndarray     # <y, f(u) - f(xbar)>
    den: np.ndarray      # the quotient's denominator
    stuck: int           # radius index of the first row with u == xbar, or the number of radii


def _score(dirs: np.ndarray, t, x0: np.ndarray, terms: Callable, denominator: str) -> tuple:
    """(first, u - xbar, <y, df>, denominator) of the probe rows u = x0 + t*dirs, t a radius or one per row.

    ``first`` is None, or the index of the first row that rounds back to
    xbar; then f is not called and the other scores are None.
    """
    u = x0 + t * dirs
    du = u - x0
    d_in = row_norms(du)
    if not (d_in > 0.0).all():
        return int(np.argmin(d_in > 0.0)), None, None, None
    y_df, df_norm = terms(u)
    return None, du, y_df, _denominator(denominator, d_in, df_norm)


def _scored_chunks(dirs: np.ndarray, bounds: tuple, x0: np.ndarray, radii: tuple, terms: Callable,
                   denominator: str, form: Optional[Callable] = None):
    """The z-free scores of the random rows (radius k at rows ``bounds[k]`` of ``dirs``), one ``_Scores`` per chunk.

    ``form`` is f's direction form on (x0, y0), or None.  With it, all the
    rows are one chunk scored from their directions: a row d at radius t
    is scored at u = x0 + t d, never formed, so <z, u - xbar> = t <d, z>
    and ||u - xbar|| = t.  When the form declines, or f has none, the rows
    take the row path in chunks of ``_block_rows`` rows, a chunk possibly
    spanning two radii; a chunk with a row that rounds back to xbar names
    the radius of its first such row, and its other scores are None.
    """
    if not len(dirs):
        return
    t = np.repeat(radii, [end - start for start, end in bounds])
    if form is not None:
        images = form(dirs, t)
        if images is not None:
            segments = [(k, 2, start, end, dirs, start) for k, (start, end) in enumerate(bounds) if start < end]
            yield _Scores(dirs, segments, t, images[0], _denominator(denominator, t, images[1]), len(radii))
            return
    size = _block_rows(x0.size)
    for lo in range(0, len(dirs), size):
        hi = min(lo + size, len(dirs))
        first, du, y_df, den = _score(dirs[lo:hi], t[lo:hi, None], x0, terms, denominator)
        stuck = len(radii) if first is None else next(k for k, (_, end) in enumerate(bounds) if lo + first < end)
        segments = [(k, 2, max(start, lo) - lo, min(end, hi) - lo, dirs, max(start, lo))
                    for k, (start, end) in enumerate(bounds) if start < hi and lo < end]
        yield _Scores(du, segments, None, y_df, den, stuck)


def _record(scores: _Scores, z0: np.ndarray, wins: list) -> None:
    """Keep in wins[k][slot] the (quotient, block, row in block) of the first largest quotient of each segment.

    A segment's win replaces an earlier one of its (radius, slot) only when
    it is strictly larger, so a (radius, slot) split over chunks keeps its
    first largest quotient.
    """
    z_du = _dot(scores.rows, z0)
    if scores.scale is not None:
        z_du *= scores.scale
    q = (z_du - scores.y_df) / scores.den
    for k, slot, start, end, block, first in scores.segments:
        i = int(q[start:end].argmax())
        value, win = float(q[start + i]), wins[k][slot]
        if win is None or value > win[0]:
            wins[k][slot] = (value, block, first + i)


def _axis_block(x0: np.ndarray, *vs: np.ndarray, copies: int = 1) -> tuple[np.ndarray, ...]:
    """The axis probes k = 0 .. 2m-1, ``copies`` times over, as the tuple (j, s, x0[j], *(v[j] for v in vs)).

    Probe k moves along axis j = k // 2 with sign s = +1 for even k and -1
    for odd k; copy c follows copy c - 1 (one copy per probe radius).
    """
    k = np.arange(2 * x0.size * copies)
    j = (k >> 1) % x0.size
    return (j, 1.0 - 2.0 * (k & 1), x0[j], *(v[j] for v in vs))


def _axis_probes(t, block: tuple[np.ndarray, ...]):
    """Moved coordinates x0[j] + s*t of an axis block, with ||u - x0|| and the step du.

    t is the radius, or an array of one radius per probe.  Each probe
    differs from x0 + 0.0 only at j, so u - x0 is the single number
    du = moved - x0[j]: the row norm is |du| and the inner product with z0
    du*z0[j] + 0.0, bit for bit what the full rows give (a sum of zero
    products rounds to +0.0) wherever du*du does not underflow.
    """
    _, s, xj = block[:3]
    moved = xj + s * t
    du = moved - xj
    return moved, np.abs(du), du


def _axis_rows(x0: np.ndarray, j: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """The full rows x0 + 0.0 with entry j set to ``moved``, one per axis probe."""
    u = np.tile(x0 + 0.0, (j.size, 1))
    u[np.arange(j.size), j] = moved
    return u


def _off_axis_norms(x0: np.ndarray) -> np.ndarray:
    """||x0 - x0_j e_j|| for every j, from exclusive prefix and suffix sums, so nothing cancels."""
    sq = x0 * x0
    before = np.concatenate(([0.0], np.cumsum(sq[:-1])))
    after = np.concatenate((np.cumsum(sq[:0:-1])[::-1], [0.0]))
    return np.sqrt(before + after)


def _axis_image_terms(a, b, block: tuple[np.ndarray, ...], frame: Callable[[], tuple]):
    """<y0, df> and ||df|| for the images df = a*x0 + b*e_j of an axis block (j, s, x0[j], y0[j], ...).

    ``frame()`` gives (<y0, x0>, the off-axis norms of x0), read only when
    some a is nonzero.  With a = 0 the terms are b*y0[j] and |b|,
    the bits of the full rows, whose other entries are zeros, wherever
    b*b does not underflow.  An entry with a = +-0 among nonzero ones
    gets the same |b|, and b*y0[j] up to the sign of a zero, which
    <z0, du> (never -0.0) absorbs in the quotient as long as <y0, x0> is
    finite; so the probes of several radii can share one block.
    """
    j, _, xj, yj = block[:4]
    if not np.any(a):
        return b * yj, np.abs(b)
    y_x, off = frame()
    return a * y_x + b * yj, np.hypot(a * off[j], a * xj + b)


def _form(f: Callable[[Vector], Vector], kind: str) -> Optional[Callable]:
    """The ``kind`` form of f ("rows", "axes" or "dirs"), or None when f has none.

    It is the ``project_<kind>`` method of the object when f is its bound
    ``project``, and otherwise the ``<kind>`` attribute of f, as set on
    ``orthant.project`` and ``l2_cone.project``.

    * A row form maps a k x m array of points (rows) to the k x m array
      of their images on the same coordinates.
    * An axis form maps (||x0||^2, x0[j], moved) for a base point x0 and
      probes u = x0 + (moved - x0[j]) e_j to (a, b) with
      f(u) - f(x0) = a*x0 + b*e_j, elementwise over the probes, or to
      None when it declines them.
    * A direction form maps (x0, y0, dirs, t), dirs a 2-D array whose
      rows are unit directions d and t one radius per row, to the arrays
      <y0, f(u) - f(x0)> and ||f(u) - f(x0)|| over the probes
      u = x0 + t*d, or to None when it declines them.

    For a sparse f the coordinates are those on the probed axes, which is
    valid only when f acts coordinate by coordinate and maps 0 to 0.

    An f with a row form must be a pure function of its argument: its
    z-free plan may be kept (see ``_kept_plan``) and reused by a later
    verdict on equal (f, xbar, y, config), and a kept plan holds f, and
    so its object, until the plan is dropped.
    """
    owner = getattr(f, "__self__", None)
    if owner is not None and getattr(f, "__name__", None) == "project":
        form = getattr(owner, f"project_{kind}", None)
        if form is not None:
            return form
    return getattr(f, kind, None)


class _Plan(NamedTuple):
    """The part of a verdict that does not depend on z (see ``_plan``)."""

    fx: Vector                     # f(xbar)
    terms: Callable                # probe rows u -> (<y, f(u) - f(xbar)>, ||f(u) - f(xbar)||)
    anchor: tuple[float, float]    # <x0, x0> and ||x0||
    head: np.ndarray               # the read-only (h, m) head rows of xbar and y, scored by every z pass
    chunks: Iterable[_Scores]      # the random rows: a list when kept, else streamed
    axis: tuple                    # (j, s, du, <y, df>, denominator) of the axis probes of every radius
    stuck: int                     # radius index of the first axis probe with u == xbar, or the number of radii
    halves: dict                   # (slot, index) -> (direction, *z-free half) of witnesses at the last radius


def _plan(f: Callable[[Vector], Vector], xbar: Vector, y: Vector, x0: np.ndarray, y0: np.ndarray,
          axes: Optional[tuple[int, ...]], config: ProbeConfig) -> _Plan:
    """The z-free part of a verdict on f at xbar for y.

    The random rows stream to the z pass chunk by chunk, so at most one
    chunk of rows is in memory; ``_kept_plan`` scores and keeps them all.
    Every z pass scores the head rows (see ``_z_pass``).
    """
    m, radii = x0.size, config.radii
    dirs, bounds = _random_dirs(config.seed, config.random_directions, m, len(radii))
    # the probe plan, radius by radius: the head rows (slot 0), those of
    # xbar and y and then those of z, all scored by the z pass, the axis
    # probes (slot 1), then the radius's random rows (slot 2); the axis
    # probes of every radius form one block of scalars
    anchor = _anchor(x0)
    head = np.reshape(_structured_head(x0, y0, anchor=anchor), (-1, m))
    head.flags.writeable = False
    axis = _axis_block(x0, y0, copies=len(radii))
    moved, axis_in, axis_du = _axis_probes(np.repeat(radii, 2 * m), axis)
    fx = f(xbar)
    f_rows, f_axes, f_dirs = _form(f, "rows"), _form(f, "axes"), _form(f, "dirs")
    if f_rows is not None:
        fx0 = _dense_over(fx, axes) if isinstance(fx, SparseVector) else fx

    def terms(u):
        """<y, df> and ||df|| of the images of the probe rows u.

        A row form maps all of u in one call; any other f is called once per row.
        """
        if f_rows is not None:
            df = f_rows(u) - fx0
        elif isinstance(fx, SparseVector):
            dfs = [f(_point(axes, row)) - fx for row in u]
            return np.array([inner(y, d) for d in dfs]), np.array([norm(d) for d in dfs])
        else:
            df = np.array([f(row) for row in u]) - fx
        return _dot(df, y0), row_norms(df)

    images = f_axes(anchor[0], axis[2], moved) if f_axes is not None else None
    if images is not None:
        axis_y_df, df_norm = _axis_image_terms(*images, axis, lambda: (float(_dot(y0, x0)), _off_axis_norms(x0)))
    else:
        # f has no axis form, or it declined the block: the full rows, in chunks of the random rows' size
        rows = _block_rows(m)
        tiles = (_axis_rows(x0, axis[0][i:i + rows], moved[i:i + rows]) for i in range(0, moved.size, rows))
        axis_y_df, df_norm = map(np.concatenate, zip(*(terms(u) for u in tiles)))

    # a unit row has an entry of at least 1/sqrt(m), so it moves x0 by more
    # than half the spacing of doubles at some entry, and no probe rounds
    # back to xbar, when the smallest radius exceeds sqrt(m) times the
    # largest spacing in x0; then the random rows take the direction form,
    # and else they are formed and tested
    form = None
    if f_dirs is not None and radii[-1] > math.sqrt(m) * float(np.spacing(np.max(np.abs(x0)))):
        def form(rows, t):
            return f_dirs(x0, y0, rows, t)

    chunks = _scored_chunks(dirs, bounds, x0, radii, terms, config.denominator, form)
    stuck = len(radii) if np.all(axis_in > 0.0) else int(np.argmin(axis_in > 0.0)) // (2 * m)
    return _Plan(fx, terms, anchor, head, chunks,
                 (axis[0], axis[1], axis_du, axis_y_df, _denominator(config.denominator, axis_in, df_norm)), stuck, {})


def _plan_key(f: Callable[[Vector], Vector], x0: np.ndarray, y0: np.ndarray, axes: Optional[tuple[int, ...]],
              config: ProbeConfig) -> Optional[tuple]:
    """The key under which a verdict's plan is kept, or None when it is not kept.

    A plan is kept when f has a row form (the sets of this package are
    pure; a user callable may not be), when every row of the plan fits in
    one chunk, so that a kept plan holds at most about 32k floats of
    u - xbar or of directions, and when f is hashable.
    """
    if _form(f, "rows") is None or len(config.radii) * (6 + config.random_directions) > _block_rows(x0.size):
        return None
    key = (f, x0.tobytes(), y0.tobytes(), axes, config)
    try:
        hash(key)
    except TypeError:  # an unhashable f, such as an instance of a class whose __hash__ is None
        return None
    return key


# the 16 most recently used plans of _plan_key, at most about 32k floats of u - xbar each
@lru_cache(maxsize=16)
def _kept_plan(f: Callable[[Vector], Vector], x_bytes: bytes, y_bytes: bytes, axes: Optional[tuple[int, ...]],
               config: ProbeConfig) -> _Plan:
    """The plan of ``_plan_key``, built on read-only copies of x0 and y0 that no caller can reach."""
    x0, y0 = np.frombuffer(x_bytes), np.frombuffer(y_bytes)
    plan = _plan(f, _point(axes, x0), _point(axes, y0), x0, y0, axes, config)
    return plan._replace(chunks=list(plan.chunks))


def _z_pass(plan: _Plan, f: Callable[[Vector], Vector], xbar: Vector, y: Vector, z: Vector, x0: np.ndarray,
            z0: np.ndarray, axes: Optional[tuple[int, ...]], config: ProbeConfig) -> OracleVerdict:
    """The verdict on z from its plan: the +-z and +-orth(z) rows, <z, u - xbar>, the argmaxes and the witness."""
    radii, per = config.radii, 2 * x0.size
    n_radii = len(radii)
    # per radius and slot, the first largest quotient: (value, block or None for the axis, row in block)
    wins = [[None] * 3 for _ in radii]
    # the head rows of the plan, then those of z, of every radius take the
    # row path in one call, one segment per radius
    stuck = plan.stuck
    z_rows = _structured_head(x0, z0, anchor=plan.anchor, xbar_rows=False)
    head = np.concatenate([plan.head, z_rows]) if z_rows else plan.head
    n = len(head)
    if n:
        t = np.array(radii).repeat(n)[:, None]
        first, du, y_df, den = _score(np.concatenate([head] * n_radii), t, x0, plan.terms, config.denominator)
        if first is not None:
            stuck = min(stuck, first // n)
        else:
            segments = [(k, 0, k * n, (k + 1) * n, head, 0) for k in range(n_radii)]
            _record(_Scores(du, segments, None, y_df, den, n_radii), z0, wins)
    # a probe that rounds back to xbar is reported at the first radius
    # where one does; a streamed plan is read up to its first such chunk
    for scores in plan.chunks:
        if scores.stuck < n_radii:
            stuck = min(stuck, scores.stuck)
            break
        if stuck == n_radii:
            _record(scores, z0, wins)
    if stuck < n_radii:
        raise ValueError(
            f"u must differ from xbar: a probe at radius {radii[stuck]!r} rounds back to xbar at "
            f"||xbar|| = {norm(xbar):.6g}; probe radii are absolute")

    axis_j, axis_s, axis_du, y_df, den = plan.axis
    q = (((axis_du * z0[axis_j] + 0.0) - y_df) / den).reshape(n_radii, per)
    for k, i in enumerate(q.argmax(axis=1).tolist()):
        wins[k][1] = (float(q[k, i]), None, k * per + i)

    estimates: list[tuple[float, float]] = []
    for t, found in zip(radii, wins):
        sup, best = -np.inf, None
        for slot, win in enumerate(found):
            if win is not None and (best is None or win[0] > sup):
                sup, best = win[0], slot
        estimates.append((t, sup))

    # the winner at the smallest radius is scored again through the two
    # halves of the scalar quotient, with the plan's f(xbar), so the witness
    # re-evaluates to exactly the stored value; the plan keeps the z-free
    # half of each winner but the rows of z, the head rows from
    # len(plan.head) on, which depend on z
    t, (_, block, i) = radii[-1], wins[-1][best]
    half = plan.halves.get((best, i))
    if half is None:
        if block is None:
            unit = np.zeros(x0.size)
            unit[axis_j[i]] = axis_s[i]
        else:
            unit = block[i].copy()
        direction = _point(axes, unit)
        half = (direction, *_z_free_half(f, plan.fx, xbar, y, xbar + t * direction, config.denominator))
        if best or i < len(plan.head):
            plan.halves[best, i] = half
    direction, *z_free = half
    estimates[-1] = (t, _z_half(z, *z_free))
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
    if isinstance(xbar, SparseVector):
        if not (isinstance(y, SparseVector) and isinstance(z, SparseVector)):
            raise TypeError("dense and sparse vectors cannot be combined in one operation")
        axes, x0, y0, z0 = _embed(xbar, y, z)
    else:
        xbar, y, z = x0, y0, z0 = as_vector(xbar), as_vector(y), as_vector(z)
        if not x0.shape == y0.shape == z0.shape:
            raise ValueError(f"dimension mismatch: {x0.size}, {y0.size}, {z0.size}")
        axes = None
    key = _plan_key(f, x0, y0, axes, config)
    plan = _kept_plan(*key) if key else _plan(f, xbar, y, x0, y0, axes, config)
    return _z_pass(plan, f, xbar, y, z, x0, z0, axes, config)


def directional_quotient(f: Callable[[Vector], Vector], xbar: Vector, w: Vector, t: float) -> Vector:
    """Forward difference quotient (f(xbar + t w) - f(xbar)) / t."""
    if not (t > 0.0):
        raise ValueError("t must be positive")
    if isinstance(xbar, np.ndarray):
        xbar = as_vector(xbar)
        w = as_vector(w)
    df = f(xbar + t * w) - f(xbar)
    return df * (1.0 / t) if isinstance(df, SparseVector) else df / t


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
