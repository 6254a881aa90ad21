"""Set-valued derivative descriptors and closed-form linear maps.

A coderivative query returns a set of vectors.  The closed forms either
pin that set down exactly (a singleton, the empty set, an order interval)
or only give partial rules that settle certain membership queries.  Every
descriptor therefore exposes ``contains`` returning

* ``True``   -- the closed form proves membership,
* ``False``  -- the closed form proves non-membership,
* ``None``   -- the closed form does not decide the query.

Definite answers are exact consequences of the derivative formulas; the
numerical membership oracle is the fallback for ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .vectors import Vector, approx_equal, as_vector, as_vector_of, encode_vector, norm

__all__ = [
    "DerivativeSet",
    "SingletonSet",
    "EmptySet",
    "LinearMap",
    "IdentityMap",
    "ZeroMap",
    "ScaledComplementMap",
    "CoordinateMaskMap",
]

# Relative tolerance for deciding z == value in a singleton descriptor.
SINGLETON_RTOL = 1e-9


class DerivativeSet:
    """Base class for coderivative value descriptors."""

    def contains(self, z: Vector) -> Optional[bool]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SingletonSet(DerivativeSet):
    """The set {value}."""

    value: Vector

    def contains(self, z: Vector) -> Optional[bool]:
        return approx_equal(z, self.value, rel=SINGLETON_RTOL)

    def to_json(self) -> dict:
        return {"variant": "singleton", "value": encode_vector(self.value)}


@dataclass(frozen=True)
class EmptySet(DerivativeSet):
    """The empty subset of R^dim: every membership query is definitely False.

    A query of another dimension raises ValueError and a SparseVector
    TypeError, as for ``SingletonSet``.
    """

    dim: int

    def contains(self, z: Vector) -> Optional[bool]:
        as_vector_of(z, self.dim)
        return False

    def to_json(self) -> dict:
        return {"variant": "empty"}


class LinearMap:
    """Closed-form derivative map.  All maps here are self-adjoint, so the
    coderivative of a differentiable point is the singleton {map(y)}."""

    def __call__(self, v: Vector) -> Vector:
        raise NotImplementedError

    def matrix(self, n: int) -> np.ndarray:
        """Dense matrix representation on R^n (for derivative checks)."""
        cols = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cols.append(self(e))
        return np.column_stack(cols)

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(LinearMap):
    def __call__(self, v: Vector) -> Vector:
        return v

    def to_json(self) -> dict:
        return {"kind": "identity"}


@dataclass(frozen=True)
class ZeroMap(LinearMap):
    def __call__(self, v: Vector) -> Vector:
        if isinstance(v, np.ndarray):
            return np.zeros_like(v)
        return v * 0.0

    def to_json(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True)
class ScaledComplementMap(LinearMap):
    """v  |->  scale * (v - <v, axis> axis) for a unit vector ``axis``.

    This is the derivative of the ball projection at an exterior point:
    scale = r/||x|| and axis = x/||x||.
    """

    scale: float
    axis: tuple[float, ...]

    @classmethod
    def from_point(cls, scale: float, axis_vector: np.ndarray) -> "ScaledComplementMap":
        axis = as_vector(axis_vector)
        length = norm(axis)
        if length == 0.0:
            raise ValueError("axis must be nonzero")
        return cls(scale=float(scale), axis=tuple(float(x) for x in axis / length))

    def __call__(self, v: Vector) -> Vector:
        v = as_vector(v)
        axis = np.array(self.axis)
        if v.shape != axis.shape:
            raise ValueError("dimension mismatch with map axis")
        return self.scale * (v - (v @ axis) * axis)

    def to_json(self) -> dict:
        return {"kind": "scaled_complement", "scale": self.scale, "axis": list(self.axis)}


@dataclass(frozen=True)
class CoordinateMaskMap(LinearMap):
    """Keep the coordinates in ``keep`` (0-based), zero the rest."""

    keep: frozenset[int]
    dim: int

    def __call__(self, v: Vector) -> Vector:
        v = as_vector(v)
        if v.shape[0] != self.dim:
            raise ValueError("dimension mismatch with mask")
        out = np.zeros_like(v)
        idx = sorted(self.keep)
        out[idx] = v[idx]
        return out

    def to_json(self) -> dict:
        return {"kind": "coordinate_mask", "keep": sorted(self.keep), "dim": self.dim}
