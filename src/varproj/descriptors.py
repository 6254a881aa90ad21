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

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .vectors import (SparseVector, Vector, _check_same_kind, _close, _dense_norm, _dot, as_vector, as_vector_of,
                      encode_vector, norm)

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


def _unchecked(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, built without the checks of its ``__post_init__``."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


def _checked_scale(scale) -> float:
    """A map's scale as a float; a bool or a non-real raises TypeError, a NaN or infinite scale ValueError."""
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real):
        raise TypeError(f"scale must be a real number, got {scale!r}")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    return float(scale)


class DerivativeSet:
    """Base class for coderivative value descriptors."""

    def contains(self, z: Vector) -> Optional[bool]:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class SingletonSet(DerivativeSet):
    """The set {value}.

    ``contains`` is ``approx_equal(z, value)``: it raises and answers as
    that does, but checks the value and takes its norm once, on first use.
    """

    value: Vector

    @cached_property
    def _checked(self) -> tuple[Vector, Callable[[Vector], float], float]:
        """(value, its norm function, its norm), the value checked as ``approx_equal`` checks it."""
        if isinstance(self.value, SparseVector):
            return self.value, norm, norm(self.value)
        value = as_vector(self.value)
        return value, _dense_norm, _dense_norm(value)

    def contains(self, z: Vector) -> Optional[bool]:
        sparse = _check_same_kind(z, self.value)
        value, length, value_len = self._checked
        if not sparse:
            z = as_vector_of(z, value.shape[0])
        return _close(z, value, SINGLETON_RTOL, length, value_len)

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
    """Closed-form derivative map on R^dim.  All maps here are self-adjoint, so the
    coderivative of a differentiable point is the singleton {map(y)}.

    ``map(v)`` reads v with ``as_vector_of(v, dim)``, so a vector of
    another length or a SparseVector raises as for ``SingletonSet``.
    """

    dim: int

    def __call__(self, v: Vector) -> np.ndarray:
        return self._on(as_vector_of(v, self.dim))

    def _on(self, v: np.ndarray) -> np.ndarray:
        """The map of a checked array of the map's dimension, not checked again."""
        raise NotImplementedError

    def matrix(self) -> np.ndarray:
        """Dense matrix representation on R^dim (for derivative checks)."""
        return np.column_stack([self._on(e) for e in np.eye(self.dim)])

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityMap(LinearMap):
    dim: int

    def _on(self, v: np.ndarray) -> np.ndarray:
        # a copy, so a singleton built from the image never shares the caller's array
        return v.copy()

    def to_json(self) -> dict:
        return {"kind": "identity"}


@dataclass(frozen=True)
class ZeroMap(LinearMap):
    dim: int

    def _on(self, v: np.ndarray) -> np.ndarray:
        return np.zeros(v.shape)

    def to_json(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True, eq=False)
class ScaledComplementMap(LinearMap):
    """v  |->  scale * (v - <v, axis> axis) for a unit vector ``axis``, a read-only array.

    This is the derivative of the ball projection at an exterior point:
    scale = r/||x|| and axis = x/||x||, held as a read-only copy; an axis
    whose norm is not 1 within 1e-12 raises ValueError.  ``scale`` is a
    finite real number (not a bool), kept as a float, else TypeError or
    ValueError; ``from_point`` checks it the same way.
    """

    scale: float
    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", _checked_scale(self.scale))
        axis = np.array(as_vector(self.axis))
        if not abs(_dense_norm(axis) - 1.0) <= 1e-12:
            raise ValueError(f"axis must be a unit vector, got norm {_dense_norm(axis)!r}")
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)

    @classmethod
    def from_point(cls, scale: float, axis_vector: np.ndarray) -> "ScaledComplementMap":
        scale = _checked_scale(scale)
        axis = as_vector(axis_vector)
        return cls._of(scale, axis, _dense_norm(axis))

    @classmethod
    def _of(cls, scale: float, axis: np.ndarray, length: float) -> "ScaledComplementMap":
        """``from_point`` of a checked array whose norm is ``length``."""
        if length == 0.0:
            raise ValueError("axis must be nonzero")
        unit = axis / length
        unit.flags.writeable = False
        return _unchecked(cls, scale=float(scale), axis=unit)

    @property
    def dim(self) -> int:
        return self.axis.shape[0]

    def _on(self, v: np.ndarray) -> np.ndarray:
        return self.scale * (v - _dot(v, self.axis) * self.axis)

    def to_json(self) -> dict:
        return {"kind": "scaled_complement", "scale": self.scale, "axis": self.axis.tolist()}


@dataclass(frozen=True)
class CoordinateMaskMap(LinearMap):
    """Keep the coordinates in ``keep`` (0-based), zero the rest.

    ``dim`` is an int (not a bool) of at least 1 and ``keep`` holds ints
    (not bools) 0 <= i < dim, else TypeError or ValueError.  The map
    applies ``keep`` as a read-only boolean mask, with one ``np.where``;
    the orthant hands it the mask x > 0 it already holds.
    """

    keep: frozenset[int]
    dim: int

    def __post_init__(self):
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in (self.dim, *self.keep)):
            raise TypeError(f"dim and the coordinates of keep must be integers, got {self.dim!r} and {self.keep!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be at least 1, got {self.dim!r}")
        if not all(0 <= i < self.dim for i in self.keep):
            raise ValueError(f"keep must lie in 0 .. {self.dim - 1}, got {sorted(self.keep)}")
        object.__setattr__(self, "keep", frozenset(map(int, self.keep)))
        object.__setattr__(self, "dim", int(self.dim))

    @classmethod
    def _of(cls, mask: np.ndarray) -> "CoordinateMaskMap":
        """The map keeping the coordinates where the 1-D boolean array ``mask`` is True; it holds a read-only copy of the mask."""
        held = mask.copy()
        held.flags.writeable = False
        return _unchecked(cls, keep=frozenset(mask.nonzero()[0].tolist()), dim=mask.shape[0], _mask=held)

    @cached_property
    def _mask(self) -> np.ndarray:
        """The coordinates of ``keep`` as a read-only boolean array."""
        mask = np.zeros(self.dim, dtype=bool)
        mask[sorted(self.keep)] = True
        mask.flags.writeable = False
        return mask

    def _on(self, v: np.ndarray) -> np.ndarray:
        return np.where(self._mask, v, 0.0)

    def to_json(self) -> dict:
        return {"kind": "coordinate_mask", "keep": sorted(self.keep), "dim": self.dim}
