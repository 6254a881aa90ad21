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

Evaluation is batched.  f(xbar) is computed once per verdict.  At each
radius the probe directions are stacked as rows and scored in blocks of
about 32k floats; the differences, norms, inner products and the argmax
are array expressions over the block.  Sparse queries use the same dense
path: they are embedded in R^m over the probed axes (all supports plus
one fresh index).

The random directions depend only on (seed, random_directions, m, number
of radii), so for an integer seed they are drawn once per process and
kept, read-only, in a cache of the 16 most recently used such plans.
The axis probes xbar +- t*e_j are scored in closed form: u - xbar is one
number per row, so its norm and its inner product with z cost no k x m
work; only f(u) and its terms do.  Both give the same bits as drawing
anew and scoring full direction rows, block for block.

When f has a row form (see ``_row_form``: the ``project`` of every set
in this package has one), f is applied to a whole block in one call,
and its images lie on the probed coordinates.  Any other f is called
once per row: sparse rows reach it as SparseVectors, and its outputs are
laid out over the union of their supports, wherever f maps.

The winning probe at the smallest radius is scored again through the
scalar ``quotient``; that value is the last supremum and the witness
quotient, so a witness re-evaluates exactly.  Witness directions of
sparse queries are SparseVectors with 1-based indices.

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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .vectors import SparseVector, Vector, as_vector, inner, is_zero, norm, orth_decompose

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
# probe rows are generated and scored in blocks of about this many floats
_BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class ProbeConfig:
    """Sampling plan for the membership estimator.

    radii: strictly decreasing probe radii.
    random_directions: random unit directions drawn per radius.
    seed: seed for the direction generator; fixed seed, fixed verdict.
    tolerance: decision band for the quotient suprema.
    structured_probes: include the worst-case-family probes.
    denominator: "sum" for ||du|| + ||df||, "euclidean" for the root of
        the sum of squares.
    """

    radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    random_directions: int = 256
    seed: int = 0
    tolerance: float = 1e-3
    structured_probes: bool = True
    denominator: str = "sum"

    def __post_init__(self):
        if not self.radii:
            raise ValueError("at least one probe radius is required")
        if any(not (t > 0.0) for t in self.radii):
            raise ValueError("probe radii must be positive")
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("probe radii must be strictly decreasing")
        if self.random_directions < 0:
            raise ValueError("random_directions must be nonnegative")
        if not (self.tolerance > 0.0):
            raise ValueError("tolerance must be positive")
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

    @property
    def sups(self) -> dict[float, float]:
        return dict(self.sup_estimates)

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
    if isinstance(xbar, np.ndarray):
        u = as_vector(u)
    du = u - xbar
    d_in = norm(du)
    if d_in == 0.0:
        raise ValueError(f"u must differ from xbar: ||u - xbar|| is 0 at ||xbar|| = {norm(xbar):.6g}")
    df = f(u) - f(xbar)
    num = inner(z, du) - inner(y, df)
    return float(num / _denominator(denominator, d_in, norm(df)))


def _structured_head(xbar: np.ndarray, y: np.ndarray, z: np.ndarray) -> list[np.ndarray]:
    """Unit directions +-xbar, +-y, +-z and +- the parts of y and z orthogonal to xbar."""
    dirs: list[np.ndarray] = []

    def both_ways(v: np.ndarray):
        u = v / norm(v)
        dirs.extend((u, -u))

    if not is_zero(xbar):
        both_ways(xbar)
    for v in (y, z):
        if not is_zero(v):
            both_ways(v)
            if not is_zero(xbar):
                o = orth_decompose(xbar, v).o
                if norm(o) > 1e-13 * norm(v):
                    both_ways(o)
    return dirs


def _active_axes(xbar: SparseVector, y: SparseVector, z: SparseVector) -> list[int]:
    """Coordinate axes worth probing: all supports plus one fresh index."""
    active = sorted(xbar.support | y.support | z.support)
    fresh = (active[-1] + 1) if active else 1
    return active + [fresh]


def _dense_over(v: SparseVector, axes: list[int]) -> np.ndarray:
    values = v.to_mapping()
    return np.array([values.get(i, 0.0) for i in axes])


def _block_rows(m: int) -> int:
    return max(1, _BLOCK_FLOATS // m)


# one plan per (seed, count, m, number of radii); 3 MB at m = 500, count = 256
@lru_cache(maxsize=16)
def _random_blocks(seed, count: int, m: int, n_radii: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Seeded random unit directions: per radius, a tuple of read-only row blocks.

    For each radius in turn, `count` Gaussian draws of length m are taken
    from default_rng(seed) and scaled to unit length in place; draws
    shorter than 1e-12 are dropped.  Each block holds the kept draws of a
    run of at most `_block_rows(m)` draws, the layout they are scored in.
    """
    rng = np.random.default_rng(seed)
    rows = _block_rows(m)
    plan = []
    for _ in range(n_radii):
        draws = rng.standard_normal((count, m))
        length = np.linalg.norm(draws, axis=1)
        keep = length >= 1e-12
        np.divide(draws, length[:, None], out=draws, where=keep[:, None])
        draws.flags.writeable = False
        blocks = []
        for start in range(0, count, rows):
            block, kept = draws[start:start + rows], keep[start:start + rows]
            if not kept.all():
                block = block[kept]
                block.flags.writeable = False
            blocks.append(block)
        plan.append(tuple(blocks))
    return tuple(plan)


def _direction_probes(x0: np.ndarray, z0: np.ndarray, t: float, dirs: np.ndarray):
    """Points u = x0 + t*d for the rows d of dirs, with ||u - x0|| and <z0, u - x0>."""
    u = x0 + t * dirs
    du = u - x0
    return u, np.linalg.norm(du, axis=1), du @ z0


def _axis_blocks(x0: np.ndarray, z0: np.ndarray, rows: int) -> list[tuple[np.ndarray, ...]]:
    """The axis probes k = 0 .. 2m-1 in blocks of at most `rows` probes.

    Probe k moves along axis j = k // 2 with sign s = +1 for even k and -1
    for odd k.  A block is the tuple (j, s, x0[j], z0[j]) of its probes.
    """
    k = np.arange(2 * x0.size)
    j, s = k // 2, np.where(k % 2 == 0, 1.0, -1.0)
    return [(j[a:a + rows], s[a:a + rows], x0[j[a:a + rows]], z0[j[a:a + rows]])
            for a in range(0, k.size, rows)]


def _axis_probes(x0: np.ndarray, t: float, block: tuple[np.ndarray, ...]):
    """Points u = x0 + s*t*e_j for the probes of an axis block, scored in closed form.

    Each row differs from x0 + 0.0 only at j, so u - x0 is the single
    number du = u[r, j] - x0[j]: the row norm is sqrt(du*du) and the inner
    product du*z0[j] + 0.0, bit for bit what ``_direction_probes`` gets
    from the full rows (a sum of zero products rounds to +0.0).
    """
    j, s, xj, zj = block
    moved = xj + s * t
    u = np.tile(x0 + 0.0, (j.size, 1))
    u[np.arange(j.size), j] = moved
    du = moved - xj
    return u, np.sqrt(du * du), du * zj + 0.0


def _row_form(f: Callable[[Vector], Vector]) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The block form of f, or None when f has none.

    A block form maps a k x m array of points (rows) to the k x m array of
    their images on the same coordinates.  It is the ``project_rows`` of
    the object when f is its bound ``project`` method, and otherwise the
    ``rows`` attribute of f, as set on ``orthant.project`` and
    ``l2_cone.project``.  For a sparse f the block holds coordinates on
    the probed axes, which is valid only when f acts coordinate by
    coordinate and maps 0 to 0.
    """
    owner = getattr(f, "__self__", None)
    if owner is not None and getattr(f, "__name__", None) == "project":
        rows = getattr(owner, "project_rows", None)
        if rows is not None:
            return rows
    return getattr(f, "rows", None)


def _output_rows(outs: list[Vector], fx: Vector, y: Vector) -> tuple[np.ndarray, np.ndarray]:
    """Rows f(u) - f(xbar), and y, as dense arrays over one set of output coordinates.

    Sparse outputs are laid out over the union of their supports and that
    of f(xbar), so f may map anywhere in the sequence space.
    """
    if not isinstance(fx, SparseVector):
        return np.array(outs) - fx, y
    cols = sorted(fx.support.union(*(o.support for o in outs)))
    index = {i: c for c, i in enumerate(cols)}
    values = np.zeros((len(outs), len(cols)))
    for r, o in enumerate(outs):
        for i, v in o.pairs:
            values[r, index[i]] = v
    return values - _dense_over(fx, cols), _dense_over(y, cols)


def membership(f: Callable[[Vector], Vector], xbar: Vector, y: Vector, z: Vector,
               config: Optional[ProbeConfig] = None) -> OracleVerdict:
    """Estimate whether z belongs to the coderivative of f at xbar for y."""
    if config is None:
        config = ProbeConfig()
    if isinstance(xbar, SparseVector):
        if not (isinstance(y, SparseVector) and isinstance(z, SparseVector)):
            raise TypeError("dense and sparse vectors cannot be combined in one operation")
        axes = _active_axes(xbar, y, z)
        x0, y0, z0 = (_dense_over(v, axes) for v in (xbar, y, z))

        def point(row: np.ndarray) -> Vector:
            return SparseVector(zip(axes, row.tolist()))
    else:
        xbar, y, z = x0, y0, z0 = as_vector(xbar), as_vector(y), as_vector(z)
        if not x0.shape == y0.shape == z0.shape:
            raise ValueError(f"dimension mismatch: {x0.size}, {y0.size}, {z0.size}")

        def point(row: np.ndarray) -> Vector:
            return row
    m = x0.size
    rows = _block_rows(m)
    # probe order at every radius: the structured head, the axis blocks,
    # then the radius's random blocks
    fixed: list[np.ndarray | tuple] = []
    if config.structured_probes:
        head = _structured_head(x0, y0, z0)
        fixed = ([np.array(head)] if head else []) + _axis_blocks(x0, z0, rows)
    # a generator or an unhashable seed draws afresh, as default_rng would
    draw = _random_blocks if isinstance(config.seed, (int, np.integer)) else _random_blocks.__wrapped__
    randoms = draw(config.seed, config.random_directions, m, len(config.radii))
    fx = f(xbar)
    f_rows = _row_form(f)
    if f_rows is not None:
        fx0 = _dense_over(fx, axes) if isinstance(fx, SparseVector) else fx

    estimates: list[tuple[float, float]] = []
    for t, random_blocks in zip(config.radii, randoms):
        sup, best = -np.inf, None
        for block in (*fixed, *random_blocks):
            if not len(block):
                continue
            axis = isinstance(block, tuple)
            u, d_in, dz = _axis_probes(x0, t, block) if axis else _direction_probes(x0, z0, t, block)
            if not np.all(d_in > 0.0):
                raise ValueError(
                    f"u must differ from xbar: a probe at radius {t!r} rounds back to xbar at "
                    f"||xbar|| = {norm(xbar):.6g}; probe radii are absolute")
            if f_rows is not None:
                df, y_out = f_rows(u) - fx0, y0
            else:
                df, y_out = _output_rows([f(point(row)) for row in u], fx, y)
            q = (dz - df @ y_out) / _denominator(config.denominator, d_in, np.linalg.norm(df, axis=1))
            i = int(np.argmax(q))
            if best is None or q[i] > sup:
                sup = float(q[i])
                if axis:
                    best = np.zeros(m)
                    best[block[0][i]] = block[1][i]
                else:
                    best = block[i].copy()
        if best is None:
            raise ValueError("probe plan is empty; enable structured probes or random directions")
        estimates.append((t, sup))

    # the winner at the smallest radius is scored again through the scalar
    # quotient, so the witness re-evaluates to exactly the stored value
    direction = point(best)
    t = config.radii[-1]
    estimates[-1] = (t, quotient(f, xbar, y, z, xbar + t * direction, config.denominator))
    sups = [s for _, s in estimates]
    tol = config.tolerance
    witness = None
    if sups[-1] > tol:
        # a persisting positive quotient at the smallest radius certifies
        # exclusion; keep the probe that achieved it
        verdict = Verdict.NON_MEMBER
        witness = Witness(direction=direction, radius=t, quotient=sups[-1])
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
