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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

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


def as_vector(x) -> np.ndarray:
    """Coerce array-like input to a finite 1-D float vector of length >= 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a one-dimensional vector with at least one entry")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_vector_of(x, dim: int) -> np.ndarray:
    """``as_vector(x)`` with exactly ``dim`` entries.

    A SparseVector raises TypeError and another length ValueError, as in ``inner``.
    """
    if isinstance(x, SparseVector):
        raise TypeError("dense and sparse vectors cannot be combined in one operation")
    v = as_vector(x)
    if v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {dim}")
    return v


def as_rows(x) -> np.ndarray:
    """Coerce array-like input to a finite 2-D float block: one point per row, >= 1 column."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("expected a two-dimensional block with at least one column")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


class SparseVector:
    """Finite-support vector over 1-based integer coordinates.

    Stored values are finite and nonzero; exact zeros produced by
    arithmetic are dropped so that the support is always minimal.
    Instances are immutable, hashable, and compare structurally.
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
        return SparseVector({i: v for i, v in self._pairs if v > 0.0})

    def __add__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        out = dict(self._pairs)
        for i, v in other._pairs:
            out[i] = out.get(i, 0.0) + v
        return SparseVector(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        if not isinstance(other, SparseVector):
            return NotImplemented
        out = dict(self._pairs)
        for i, v in other._pairs:
            out[i] = out.get(i, 0.0) - v
        return SparseVector(out)

    def __mul__(self, s) -> "SparseVector":
        s = float(s)
        return SparseVector({i: v * s for i, v in self._pairs})

    __rmul__ = __mul__

    def __neg__(self) -> "SparseVector":
        return SparseVector({i: -v for i, v in self._pairs})

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


def _check_same_kind(u: Vector, v: Vector) -> bool:
    """Return True for a sparse pair, False for a dense pair; reject mixes."""
    u_sparse = isinstance(u, SparseVector)
    v_sparse = isinstance(v, SparseVector)
    if u_sparse != v_sparse:
        raise TypeError("dense and sparse vectors cannot be combined in one operation")
    return u_sparse


def inner(u: Vector, v: Vector) -> float:
    """Inner product <u, v>.  Disjoint sparse supports contribute zero."""
    if _check_same_kind(u, v):
        small, big = (u, v) if len(u.pairs) <= len(v.pairs) else (v, u)
        lookup = dict(big.pairs)
        return float(sum(val * lookup.get(i, 0.0) for i, val in small.pairs))
    b = as_vector(v)
    return float(as_vector_of(u, b.shape[0]) @ b)


# The squares behind a plain norm below this may have underflowed (the
# root of the smallest normal double is 1.5e-154); an infinite plain norm
# of finite entries has overflowed.
_TINY_NORM = 1e-146


def _rescaled_norm(x: np.ndarray) -> float:
    """Norm of x computed on x / max|x|, so no square over- or underflows."""
    s = float(np.max(np.abs(x), initial=0.0))
    return s * float(np.linalg.norm(x / s)) if s > 0.0 else 0.0


def norm(u: Vector) -> float:
    """Euclidean / l2 norm, safe from overflow and underflow.

    The plain norm is kept whenever it lies in [_TINY_NORM, inf), so
    ordinary inputs get the plain result bit for bit; outside that range
    the norm is recomputed on u / max|u| (Blue's safe scaling, reduced to
    one scale).
    """
    if isinstance(u, SparseVector):
        length = float(np.sqrt(sum(v * v for _, v in u.pairs)))
        if _TINY_NORM <= length < np.inf or not u.pairs:
            return length
        return _rescaled_norm(np.array([v for _, v in u.pairs]))
    x = as_vector(u)
    length = float(np.linalg.norm(x))
    if _TINY_NORM <= length < np.inf or not x.any():
        return length
    return _rescaled_norm(x)


def row_norms(block: np.ndarray) -> np.ndarray:
    """Norms of the rows of a 2-D array, with the same rescue as ``norm``."""
    lengths = np.linalg.norm(block, axis=1)
    for i in np.flatnonzero(~((lengths >= _TINY_NORM) & (lengths < np.inf))):
        lengths[i] = _rescaled_norm(block[i])
    return lengths


def is_zero(u: Vector) -> bool:
    if isinstance(u, SparseVector):
        return u.is_zero()
    return bool(np.all(as_vector(u) == 0.0))


def approx_equal(u: Vector, v: Vector, rel: float = 1e-9) -> bool:
    """||u - v|| <= rel * max(1, ||u||, ||v||), with safe norms; False when u - v overflows."""
    if not _check_same_kind(u, v):
        v = as_vector(v)
        u = as_vector_of(u, v.shape[0])
    try:
        diff = norm(u - v)
    except ValueError:  # an entry of u - v is infinite
        return False
    return diff <= rel * max(1.0, norm(u), norm(v))


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


def orth_decompose(anchor: Vector, x: Vector, *, orth_rtol: float = 1e-12) -> OrthDecomp:
    """Split x against a nonzero anchor; verifies orthogonality numerically.

    The residual check |<o, anchor>| <= orth_rtol * ||o|| * ||anchor|| guards
    against calling with a near-zero anchor where the split is meaningless.
    When ||anchor||^2 under- or overflows, x is split against
    anchor / max|anchor| instead and ``a`` is converted back to the anchor.
    """
    _check_same_kind(anchor, x)
    if isinstance(x, np.ndarray):
        x = as_vector(x)
        anchor = as_vector(anchor)
    anchor_sq = inner(anchor, anchor)
    if not _TINY_NORM**2 <= anchor_sq < np.inf:
        sparse = isinstance(anchor, SparseVector)
        s = float(np.max(np.abs([v for _, v in anchor.pairs] if sparse else anchor), initial=0.0))
        if s == 0.0:
            raise ValueError("anchor must be nonzero")
        unit = SparseVector({i: v / s for i, v in anchor.pairs}) if sparse else anchor / s
        split = orth_decompose(unit, x, orth_rtol=orth_rtol)
        return OrthDecomp(a=split.a / s, o=split.o, anchor=anchor)
    a = inner(x, anchor) / anchor_sq
    o = x - a * anchor
    residual = abs(inner(o, anchor))
    bound = orth_rtol * max(norm(o) * norm(anchor), 1e-300)
    if residual > bound and residual > orth_rtol * max(1.0, norm(x) * norm(anchor)):
        raise ArithmeticError("orthogonality residual exceeds tolerance; anchor is ill-conditioned")
    return OrthDecomp(a=float(a), o=o, anchor=anchor)


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
