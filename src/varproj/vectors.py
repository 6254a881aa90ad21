"""Hilbert-space vector arithmetic for dense and finite-support sparse data.

Dense vectors are one-dimensional numpy arrays modelling points of R^n.
Sparse vectors store a finite set of (index, value) pairs with 1-based
integer indices and model finitely supported points of the sequence space
l2.  The two representations never mix inside a single operation: inner
products, norms and decompositions require both operands of the same kind.

Every vector admits an orthogonal splitting against a nonzero anchor:

    x = a * anchor + o,   a = <x, anchor> / ||anchor||^2,   <o, anchor> = 0.

Both the coefficient ``a`` and the orthogonal component ``o`` are linear
in x, and ||x||^2 = a^2 ||anchor||^2 + ||o||^2.  Convergence x -> anchor
is equivalent to a -> 1 together with ||o|| -> 0.

A SparseVector holds its pairs in increasing index order.  The public
constructor sorts them once; every vector the library builds (sums,
differences, negatives, multiples, positive parts and the oracle's probe
points) is built in that order and never sorted again, so ``+`` and
``-`` are one two-pointer merge and every sparse test or product is one
walk over the pairs.  Sparse inner products and square sums add their
products left to right from 0.0 in index order, one rounding per term,
so they have the same bits on every Python (the builtin ``sum`` of
floats is compensated since Python 3.12).

Every dense inner product of the library, and every dense square sum
(``norm``, ``row_norms``), is taken by ``_dot`` in one fixed summation
order, with no BLAS call: a row of a block gets the bits of the same row
alone, at every position in the block and under every BLAS kernel.
Every dense split is taken by ``_split``.

Public names validate each argument once, at entry, here and in
``ball``, ``orthant``, ``descriptors``, ``l2_cone`` and ``oracle``, and
only this module words the error of a bad dense argument: ``as_vector``
raises ValueError on a non-finite, empty or multi-dimensional argument.
Kind rule: a SparseVector read as dense (``as_vector``), or a dense and
a sparse vector in one operation (``inner``), raises TypeError "dense and
sparse vectors cannot be combined in one operation".  Length rule: a
vector whose length must match another's is read once, with
``as_vector_of(v, n)``, and another length raises ValueError "dimension
mismatch: <got> vs <want>".  A ``_`` helper takes checked finite float arrays and checks none of them
again: ``_dense_norm`` in place of ``norm``, ``_dot`` of ``inner``,
``_split`` of ``orth_decompose``, ``_count_nonzero`` of ``is_zero``,
``_close`` of ``approx_equal``, and the sets' ``_region``, ``_frechet``
and ``_direction_class`` and the maps' ``_on``.  The checks that stay
inside are on derived values, which can overflow although the
arguments are finite: ``_distance`` answers inf when an entry of u - v
does, ``_split`` raises when a or o is not a finite double, the ball's
outward Gateaux limit raises when it exceeds the largest double, and
the orthant's corner rule answers None when lambda or z - lambda y
overflows after its scaling.

A check or reduction on a per-call path of ``vectors``, ``ball``,
``orthant``, ``descriptors`` and ``oracle`` calls numpy's C entry point,
never a Python-level wrapper: ``_all_finite`` for finiteness,
``_count_nonzero`` (numpy's C ``count_nonzero``) for zero, sign and
equality tests (it counts -0.0 as zero and NaN as nonzero, as ``any()``
does), ``np.maximum.reduce`` and ``np.minimum.reduce`` for extrema,
``np.zeros(v.shape)`` and ``b.nonzero()[0]``.  ``ndarray.any/all/max/min``
run numpy's Python ``_methods`` before the ufunc reduction;
``np.any``, ``np.all`` and ``np.max`` add the dispatch of
``fromnumeric``; and ``np.count_nonzero``, ``np.array_equal``,
``np.zeros_like`` and ``np.flatnonzero`` are a dispatcher and a wrapper
in numpy's Python ``numeric``.  On a 6-vector (numpy 2.4, Xeon, timeit,
fastest of five) ``x.any()`` takes 1.3-1.6 us and ``np.count_nonzero``
0.32-0.36 us against 0.08-0.11 us for ``_count_nonzero``; ``x.max()``
2.3 us and ``np.max`` 3.4 us against 1.1 us for ``np.maximum.reduce``;
``np.zeros_like``, ``np.flatnonzero`` and ``np.array_equal`` 1.2, 1.4
and 2.3 us against 0.3-0.4 us for ``np.zeros``, ``nonzero()[0]`` and
``_count_nonzero`` of ``u != v``.  A closed form of 3-45 us makes two to
four such checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Union

import numpy as np

try:  # numpy's C einsum and count_nonzero, without the Python dispatch of np.einsum and np.count_nonzero
    from numpy._core.multiarray import c_einsum as _einsum, count_nonzero as _count_nonzero
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum, count_nonzero as _count_nonzero

__all__ = [
    "SparseVector",
    "OrthDecomp",
    "as_vector",
    "as_vector_of",
    "as_rows",
    "inner",
    "norm",
    "row_norms",
    "is_zero",
    "approx_equal",
    "orth_decompose",
    "encode_vector",
    "dense_from_wire",
    "sparse_from_wire",
]


_MIXED = "dense and sparse vectors cannot be combined in one operation"


def _all_finite(v: np.ndarray) -> bool:
    """True when every entry of v is finite: ``np.isfinite(v).all()`` without numpy's Python ``_methods`` wrapper."""
    return _count_nonzero(np.isfinite(v)) == v.size


def as_vector(x) -> np.ndarray:
    """Coerce array-like input to a finite 1-D float vector of length >= 1; a SparseVector raises TypeError."""
    if isinstance(x, SparseVector):
        raise TypeError(_MIXED)
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a one-dimensional vector with at least one entry")
    if not _all_finite(v):
        raise ValueError("vector entries must be finite")
    return v


def as_vector_of(x, dim: int) -> np.ndarray:
    """``as_vector(x)`` with exactly ``dim`` entries; another length raises ValueError, as in ``inner``."""
    v = as_vector(x)
    if v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {dim}")
    return v


def as_rows(x) -> np.ndarray:
    """Coerce array-like input to a finite 2-D float block: one point per row, >= 1 column."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("expected a two-dimensional block with at least one column")
    if not _all_finite(v):
        raise ValueError("vector entries must be finite")
    return v


class SparseVector:
    """Finite-support vector over 1-based integer coordinates.

    Stored values are finite and nonzero; exact zeros produced by
    arithmetic are dropped so that the support is always minimal.  The
    pairs are held in increasing index order.  Instances are immutable,
    hashable, and compare structurally.
    """

    __slots__ = ("_pairs",)

    def __init__(self, data: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        if isinstance(data, Mapping):
            items = data.items()
        else:
            items = list(data)
        seen: dict[int, float] = {}
        for index, value in items:
            if isinstance(index, bool) or not isinstance(index, int):
                raise TypeError(f"sparse index must be an int, got {index!r}")
            if index < 1:
                raise ValueError(f"sparse index must be positive, got {index}")
            if index in seen:
                raise ValueError(f"duplicate sparse index {index}")
            fval = float(value)
            if not math.isfinite(fval):
                raise ValueError(f"sparse value at index {index} must be finite")
            if fval != 0.0:
                seen[index] = fval
        object.__setattr__(self, "_pairs", tuple(sorted(seen.items())))

    @classmethod
    def _of(cls, items: Iterable[tuple[int, float]]) -> "SparseVector":
        """A SparseVector of (index, float) pairs in increasing index order, as the library builds them.

        The index checks of the constructor are skipped and the pairs are
        not sorted again; its finiteness check is kept, and names the
        first non-finite value in index order.  Zeros are dropped, as there.
        """
        kept = [(i, v) for i, v in items if v != 0.0]
        if not all(math.isfinite(v) for _, v in kept):
            index = next(i for i, v in kept if not math.isfinite(v))
            raise ValueError(f"sparse value at index {index} must be finite")
        return cls._held(tuple(kept))

    @classmethod
    def _held(cls, pairs: tuple[tuple[int, float], ...]) -> "SparseVector":
        """A SparseVector that holds ``pairs`` as they are: nonzero finite values in increasing index order."""
        out = object.__new__(cls)
        object.__setattr__(out, "_pairs", pairs)
        return out

    @classmethod
    def zero(cls) -> "SparseVector":
        return cls()

    @classmethod
    def basis(cls, index: int) -> "SparseVector":
        """Unit coordinate vector e_index."""
        return cls({index: 1.0})

    @property
    def pairs(self) -> tuple[tuple[int, float], ...]:
        return self._pairs

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self._pairs)

    def get(self, index: int) -> float:
        """Value at ``index`` (0.0 off the support), by bisection on the sorted pairs."""
        k = bisect_left(self._pairs, (index,))
        if k < len(self._pairs) and self._pairs[k][0] == index:
            return self._pairs[k][1]
        return 0.0

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(self._pairs)

    def to_mapping(self) -> dict[int, float]:
        return dict(self._pairs)

    def is_zero(self) -> bool:
        return not self._pairs

    def positive_part(self) -> "SparseVector":
        return SparseVector._held(tuple(p for p in self._pairs if p[1] > 0.0))

    def __add__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        return SparseVector._held(_merged(self._pairs, other._pairs, True))

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        return SparseVector._held(_merged(self._pairs, other._pairs, False))

    def __mul__(self, s) -> "SparseVector":
        s = float(s)
        return SparseVector._of((i, v * s) for i, v in self._pairs)

    __rmul__ = __mul__

    def __neg__(self) -> "SparseVector":
        return SparseVector._held(tuple((i, -v) for i, v in self._pairs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {v!r}" for i, v in self._pairs)
        return f"SparseVector({{{body}}})"


Vector = Union[np.ndarray, SparseVector]

# a pair past every index: a walk over sorted pairs reads it once a side is used up
_STOP = (math.inf, 0.0)


def _merged(a: tuple, b: tuple, add: bool) -> tuple:
    """The pairs of a + b, or of a - b when not ``add``, from pairs in increasing index order, in that order.

    One two-pointer walk: an index of one side alone keeps its value (b's
    negated for a difference), and a shared index is summed, dropped at 0
    and checked for finiteness, so an overflow raises the constructor's
    error at the first such index.
    """
    out = []
    push, step, stop, finite = out.append, next, _STOP, math.isfinite
    ia, ib = iter(a), iter(b)
    pa, pb = step(ia, stop), step(ib, stop)
    ka, kb = pa[0], pb[0]
    while True:
        if ka < kb:
            push(pa)
            pa = step(ia, stop)
            ka = pa[0]
        elif kb < ka:
            push(pb if add else (kb, -pb[1]))
            pb = step(ib, stop)
            kb = pb[0]
        elif pa is stop:  # both sides used up
            return tuple(out)
        else:
            v = pa[1] + pb[1] if add else pa[1] - pb[1]
            if v != 0.0:
                if not finite(v):
                    raise ValueError(f"sparse value at index {ka} must be finite")
                push((ka, v))
            pa, pb = step(ia, stop), step(ib, stop)
            ka, kb = pa[0], pb[0]


def _check_same_kind(u: Vector, v: Vector) -> bool:
    """Return True for a sparse pair, False for a dense pair; reject mixes."""
    u_sparse = isinstance(u, SparseVector)
    v_sparse = isinstance(v, SparseVector)
    if u_sparse != v_sparse:
        raise TypeError(_MIXED)
    return u_sparse


def _dot(a: np.ndarray, b: np.ndarray):
    """<a, b> over the last axis, in one fixed order: a 1-D or 2-D a against a 1-D b or a block of a's shape.

    numpy's einsum loop sums the products of two contiguous operands in
    an order set by their length alone, so a row of a block gets the bits
    of that row as a 1-D array, at every position in the block.  A BLAS
    product does not: it rounds a row by its position and by the kernel
    that runs.  A strided view is summed as its contiguous copy.  Unlike
    a BLAS product, an overflowing sum gives inf without a warning.
    """
    return _einsum("...i,...i->...", np.ascontiguousarray(a), np.ascontiguousarray(b))


def inner(u: Vector, v: Vector) -> float:
    """Inner product <u, v>.  Disjoint sparse supports contribute zero; shared ones add left to right in index order."""
    if _check_same_kind(u, v):
        # one walk over the shorter pairs, adding the products of shared indices left to right from 0.0
        short, long = (u.pairs, v.pairs) if len(u.pairs) <= len(v.pairs) else (v.pairs, u.pairs)
        lookup, total = dict(long).get, 0.0
        for i, x in short:
            w = lookup(i)
            if w is not None:
                total += x * w
        return total
    b = as_vector(v)
    return float(_dot(as_vector_of(u, b.shape[0]), b))


# The squares behind a plain norm below this may have underflowed (the
# root of the smallest normal double is 1.5e-154); an infinite plain norm
# of finite entries has overflowed.
_TINY_NORM = 1e-146


def _rescaled(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(s, x / s, <x / s, x / s>) with s = max|x|, so no square over- or underflows; (0.0, x, 0.0) for a zero x."""
    s = float(np.maximum.reduce(np.abs(x), initial=0.0))
    if s == 0.0:
        return 0.0, x, 0.0
    x = x / s
    return s, x, float(_dot(x, x))


def _rescaled_norm(x: np.ndarray) -> float:
    """Norm of x computed on x / max|x|, so no square over- or underflows."""
    s, _, sq = _rescaled(x)
    return s * math.sqrt(sq)


def _dense_norm(x: np.ndarray, sq: float | None = None) -> float:
    """``norm`` of a finite 1-D array, not validated again; ``sq`` is ``float(_dot(x, x))`` when the caller has it."""
    length = math.sqrt(float(_dot(x, x)) if sq is None else sq)
    if _TINY_NORM <= length < math.inf or not _count_nonzero(x):
        return length
    return _rescaled_norm(x)


def _anchor_norm(x: np.ndarray, sq: float) -> tuple[float, tuple[float, np.ndarray, float] | None]:
    """``_dense_norm(x, sq)`` and the ``_rescaled(x)`` it took (None when it took none), for ``_split``'s anchor x."""
    length = math.sqrt(sq)
    if _TINY_NORM <= length < math.inf or not _count_nonzero(x):
        return length, None
    rescaled = _rescaled(x)
    return rescaled[0] * math.sqrt(rescaled[2]), rescaled


def norm(u: Vector) -> float:
    """Euclidean / l2 norm, safe from overflow and underflow.

    A sparse square sum runs left to right in index order.  The plain
    norm is kept whenever it lies in [_TINY_NORM, inf), so
    ordinary inputs get the plain result bit for bit; outside that range
    the norm is recomputed on u / max|u| (Blue's safe scaling, reduced to
    one scale).  The dense square sum is ``_dot``'s, so its overflow
    gives no warning.
    """
    if isinstance(u, SparseVector):
        sq = 0.0
        for _, v in u.pairs:
            sq += v * v
        length = math.sqrt(sq)
        if _TINY_NORM <= length < math.inf or not u.pairs:
            return length
        return _rescaled_norm(np.array([v for _, v in u.pairs]))
    return _dense_norm(as_vector(u))


def row_norms(block: np.ndarray) -> np.ndarray:
    """Norms of the rows of a 2-D array: row i gets the bits of ``norm(block[i])``.

    Only rows whose plain norm lies outside [_TINY_NORM, inf) and that
    have a nonzero entry are recomputed, one by one; a zero row keeps its
    plain +0.0.
    """
    lengths = np.sqrt(_dot(block, block))
    if lengths.size and not (np.minimum.reduce(lengths) >= _TINY_NORM and np.maximum.reduce(lengths) < np.inf):
        odd = (~((lengths >= _TINY_NORM) & (lengths < np.inf))).nonzero()[0]
        for i in odd[np.logical_or.reduce(block[odd], axis=1, dtype=bool)]:
            lengths[i] = _rescaled_norm(block[i])
    return lengths


def is_zero(u: Vector) -> bool:
    if isinstance(u, SparseVector):
        return u.is_zero()
    return not _count_nonzero(as_vector(u))


def _distance(u: Vector, v: Vector) -> float:
    """||u - v|| with a safe norm, inf when an entry of u - v overflows; u and v are checked vectors of one kind and size."""
    if isinstance(u, SparseVector):
        try:
            return norm(u - v)
        except ValueError:  # an entry of u - v is infinite
            return math.inf
    with np.errstate(over="ignore"):
        d = u - v
    return _dense_norm(d) if _all_finite(d) else math.inf


def approx_equal(u: Vector, v: Vector, rel: float = 1e-9) -> bool:
    """||u - v|| <= rel * max(1, ||u||, ||v||), with safe norms; False when u - v overflows.

    When a norm exceeds the largest double, so that the bound is inf, u
    and v are compared as u / 2^64 and v / 2^64, whose norms are doubles;
    the scaling changes no digit of an entry above 2^-958.
    """
    length = norm
    if not _check_same_kind(u, v):
        v = as_vector(v)
        u, length = as_vector_of(u, v.shape[0]), _dense_norm
    return _close(u, v, rel, length, length(v))


def _close(u: Vector, v: Vector, rel: float, length: Callable[[Vector], float], v_len: float) -> bool:
    """``approx_equal`` of checked vectors of one kind and size; ``length`` is their norm and ``v_len`` = length(v)."""
    bound = rel * max(1.0, length(u), v_len)
    if bound == math.inf:
        u, v = u * 2.0**-64, v * 2.0**-64
        bound = rel * max(1.0, length(u), length(v))
    return _distance(u, v) <= bound


@dataclass(frozen=True)
class OrthDecomp:
    """Orthogonal splitting x = a * anchor + o with <o, anchor> = 0."""

    a: float
    o: Vector
    anchor: Vector

    @property
    def radial(self) -> Vector:
        return self.a * self.anchor

    def reconstruct(self) -> Vector:
        return self.a * self.anchor + self.o


def _halved(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v / 2^e, e) with max|v| < 2^e: the scaling is exact, and no norm or split of v / 2^e overflows."""
    e = math.frexp(float(np.maximum.reduce(np.abs(v))))[1]
    return np.ldexp(v, -e), e


def _split(anchor: np.ndarray, x: np.ndarray, orth_rtol: float = 1e-12, anchor_sq: float | None = None,
           rescaled: tuple[float, np.ndarray, float] | None = None) -> tuple[float, np.ndarray, float]:
    """(a, o, ||o||) of x = a * anchor + o for finite 1-D arrays, with the checks of ``orth_decompose``.

    ``anchor_sq`` is ``float(_dot(anchor, anchor))`` when the caller has it.
    When ||anchor||^2 under- or overflows, x is split against
    anchor / max|anchor| instead and ``a`` is converted back to the anchor;
    ``rescaled`` is ``_rescaled(anchor)`` when the caller has it.
    When <x, anchor> or o overflows, x / 2^e with max|x| < 2^e is split and
    a and o are scaled back; a ValueError is raised only when a or o is
    itself not a finite double.
    """
    if anchor_sq is None:
        anchor_sq = float(_dot(anchor, anchor))
    scale = 1.0
    if not _TINY_NORM**2 <= anchor_sq < math.inf:
        scale, anchor, anchor_sq = _rescaled(anchor) if rescaled is None else rescaled
        if scale == 0.0:
            raise ValueError("anchor must be nonzero")
    a = float(_dot(x, anchor)) / anchor_sq
    with np.errstate(over="ignore", invalid="ignore"):
        o = x - a * anchor
    if not _all_finite(o):
        # <x, anchor> or a * anchor overflowed: split x / 2^e, max|x| < 2^e, and scale a and o back
        half, e = _halved(x)
        a, o, _ = _split(anchor, half, orth_rtol, anchor_sq)
        with np.errstate(over="ignore"):
            a, o = float(np.ldexp(a / scale, e)), np.ldexp(o, e)
        if not (math.isfinite(a) and _all_finite(o)):
            raise ValueError("vector entries must be finite")
        return a, o, _dense_norm(o)
    residual, o_len, a_len = abs(float(_dot(o, anchor))), _dense_norm(o), _dense_norm(anchor, anchor_sq)
    if residual > orth_rtol * max(o_len * a_len, 1e-300) and residual > orth_rtol * max(1.0, _dense_norm(x) * a_len):
        raise ArithmeticError("orthogonality residual exceeds tolerance; anchor is ill-conditioned")
    return a / scale, o, o_len


def orth_decompose(anchor: Vector, x: Vector, *, orth_rtol: float = 1e-12) -> OrthDecomp:
    """Split x against a nonzero anchor; verifies orthogonality numerically.

    The residual check |<o, anchor>| <= orth_rtol * ||o|| * ||anchor|| guards
    against calling with a near-zero anchor where the split is meaningless.
    A non-finite o raises ValueError.  A sparse pair is split as its
    dense embedding over the union of the two supports.
    """
    if _check_same_kind(anchor, x):
        axes = sorted(anchor.support | x.support)
        a, o, _ = _split(*(np.array([v.get(i) for i in axes]) for v in (anchor, x)), orth_rtol)
        return OrthDecomp(a=a, o=SparseVector._of(zip(axes, o.tolist())), anchor=anchor)
    anchor = as_vector(anchor)
    x = as_vector_of(x, anchor.shape[0])
    a, o, _ = _split(anchor, x, orth_rtol)
    return OrthDecomp(a=a, o=o, anchor=anchor)


def encode_vector(v: Vector):
    """JSON-ready encoding: dense -> [x1, ...]; sparse -> [[i, v], ...]."""
    if isinstance(v, SparseVector):
        return [[i, val] for i, val in v.pairs]
    return [float(x) for x in as_vector(v)]


def dense_from_wire(obj) -> np.ndarray:
    """Decode a dense vector from a JSON array of numbers."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("dense vector must be a non-empty JSON array of numbers")
    for x in obj:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ValueError("dense vector entries must be numbers")
    return as_vector(obj)


def sparse_from_wire(obj) -> SparseVector:
    """Decode a sparse vector from [[index, value], ...].

    Indices must be 1-based, strictly increasing integers; values must be
    nonzero finite numbers.  An empty array is the zero vector.
    """
    if not isinstance(obj, list):
        raise ValueError("sparse vector must be a JSON array of [index, value] pairs")
    pairs: list[tuple[int, float]] = []
    last = 0
    for item in obj:
        if not isinstance(item, list) or len(item) != 2:
            raise ValueError("sparse vector entries must be [index, value] pairs")
        index, value = item
        if isinstance(index, bool) or not isinstance(index, int) or index < 1:
            raise ValueError("sparse indices must be positive integers")
        if index <= last:
            raise ValueError("sparse indices must be strictly increasing")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError("sparse values must be numbers")
        if float(value) == 0.0:
            raise ValueError("sparse values must be nonzero")
        if not math.isfinite(float(value)):
            raise ValueError("sparse values must be finite")
        pairs.append((index, float(value)))
        last = index
    return SparseVector(pairs)
