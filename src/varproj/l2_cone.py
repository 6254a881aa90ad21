"""Projection onto the nonnegative cone of l2, on finite-support vectors.

The cone consists of sequences with every coordinate >= 0, and the
projection takes the componentwise positive part.  All computations here
use finite-support sparse vectors, which is lossless: the projection,
the derivative maps, and every membership rule below preserve finite
support.  The exceptions are the orthant's forms ``project_rows``,
``project_axes`` and ``project_dirs``, which take many points at once,
given as their coordinates on fixed indices: exact, because the
projection acts coordinate by coordinate and maps 0 to 0.

The interesting base points are those with support exactly M and
strictly positive values there ("strictly positive on M").  For such a
base point xbar and a query vector y that is nonnegative off M, the
coderivative is the order interval

    { z : z_i = y_i on M,  0 <= z_i <= y_i off M },

which collapses to the singleton {y} exactly when y is supported inside
M.  For y with a negative coordinate off M the closed form only proves
that y itself is not a member.  The zero query always gives {0}.  The
origin is the base point with M empty: there P'(0; w) = max(w, 0), and
for y >= 0 the interval is { 0 <= z <= y }.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .descriptors import DerivativeSet, SingletonSet
from .orthant import project_axes, project_dirs, project_rows
from .vectors import _STOP, SparseVector

__all__ = [
    "as_support",
    "project",
    "project_rows",
    "project_axes",
    "project_dirs",
    "has_positive_support",
    "nonnegative_off",
    "order_leq",
    "OrderIntervalSet",
    "SelfExclusionPartial",
    "coderivative",
]


class _Support(frozenset):
    """A support set that ``as_support`` has validated, so it is not checked again."""

    def __repr__(self) -> str:
        return repr(frozenset(self))


def as_support(M: Iterable[int]) -> frozenset[int]:
    """Validate a support set: a finite set of 1-based indices, empty for the origin."""
    if isinstance(M, _Support):
        return M
    out = _Support(M)
    for i in out:
        if not isinstance(i, int) or isinstance(i, bool) or i < 1:
            raise ValueError(f"support indices must be positive integers, got {i!r}")
    return out


def _require_sparse(v, name: str) -> SparseVector:
    if not isinstance(v, SparseVector):
        raise TypeError(f"{name} must be a SparseVector")
    return v


def project(x: SparseVector) -> SparseVector:
    """Componentwise positive part."""
    return _require_sparse(x, "x").positive_part()


def has_positive_support(x: SparseVector, M: Iterable[int]) -> bool:
    """True iff x is strictly positive exactly on M and zero elsewhere."""
    x = _require_sparse(x, "x")
    M = as_support(M)
    # the stored indices are distinct: len(M) of them, all positive and in M, are M
    positive = [i for i, v in x.pairs if v > 0.0]
    return len(positive) == len(x.pairs) == len(M) and M.issuperset(positive)


def nonnegative_off(y: SparseVector, M: Iterable[int]) -> bool:
    """True iff y_i >= 0 for every coordinate i outside M."""
    y = _require_sparse(y, "y")
    M = as_support(M)
    return M.issuperset([i for i, v in y.pairs if v < 0.0])


def order_leq(z: SparseVector, y: SparseVector, M: Iterable[int]) -> bool:
    """Partial order: z_i = y_i for i in M and z_i <= y_i for i outside M."""
    z = _require_sparse(z, "z")
    y = _require_sparse(y, "y")
    return _ordered(z.pairs, y.pairs, as_support(M), False)


def _ordered(z: tuple, y: tuple, M: frozenset[int], z_nonnegative_off: bool) -> bool:
    """``order_leq`` of the sorted pairs of z and y, and z_i >= 0 off M as well when ``z_nonnegative_off``: one walk.

    Stored values are nonzero, so an index of z alone breaks the order on M
    (z_i != 0) and off M unless z_i < 0, which breaks z >= 0; an index of
    y alone breaks it on M and where y_i < 0.  An index of M outside both
    supports compares 0.0 with 0.0.
    """
    step, stop = next, _STOP
    iz, iy = iter(z), iter(y)
    pz, py = step(iz, stop), step(iy, stop)
    kz, ky = pz[0], py[0]
    while True:
        if kz == ky:
            if pz is stop:
                return True
            zv, yv = pz[1], py[1]
            if (zv != yv) if kz in M else (zv > yv or (z_nonnegative_off and zv < 0.0)):
                return False
            pz, py = step(iz, stop), step(iy, stop)
            kz, ky = pz[0], py[0]
        elif kz < ky:
            if z_nonnegative_off or kz in M or pz[1] > 0.0:
                return False
            pz = step(iz, stop)
            kz = pz[0]
        else:
            if ky in M or py[1] < 0.0:
                return False
            py = step(iy, stop)
            ky = py[0]


@dataclass(frozen=True)
class OrderIntervalSet(DerivativeSet):
    """The set { z : z = bound on M, 0 <= z <= bound off M }.

    The set is never materialised; membership is decided symbolically.
    It is a singleton exactly when the bound is supported inside M.
    """

    bound: SparseVector
    support: frozenset[int]

    def __post_init__(self):
        _require_sparse(self.bound, "y")
        object.__setattr__(self, "support", as_support(self.support))
        if not nonnegative_off(self.bound, self.support):
            raise ValueError("order interval bound must be nonnegative off the support set")

    @classmethod
    def _of(cls, bound: SparseVector, support: frozenset[int]) -> "OrderIntervalSet":
        """The interval of a bound nonnegative off a support that ``as_support`` gave, not checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "bound", bound)
        object.__setattr__(out, "support", support)
        return out

    def contains(self, z) -> Optional[bool]:
        return _ordered(_require_sparse(z, "z").pairs, self.bound.pairs, self.support, True)

    @property
    def is_singleton(self) -> bool:
        return self.bound.support <= self.support

    def example_members(self, limit: int = 4) -> list[SparseVector]:
        """Up to ``limit`` distinct members, starting with the bound.

        When the interval is not a singleton, shrinking any off-support
        coordinate of the bound stays inside the set.
        """
        members = [self.bound]
        for i in sorted(self.bound.support - self.support):
            for factor in (0.5, 0.0):
                if len(members) >= limit:
                    return members
                members.append(self.bound + SparseVector({i: (factor - 1.0) * self.bound.get(i)}))
        return members[:limit]

    def to_json(self) -> dict:
        return {
            "variant": "order_interval",
            "y": [[i, v] for i, v in self.bound.items()],
            "support": sorted(self.support),
        }


@dataclass(frozen=True)
class SelfExclusionPartial(DerivativeSet):
    """Partial rule for a query y with a negative coordinate off M.

    The closed form proves that y itself is not a member; every other
    query is undetermined.  Equality with y is exact, matching the exact
    sparse arithmetic used throughout.
    """

    target: SparseVector
    rule = "l2-self-exclusion"

    def contains(self, z) -> Optional[bool]:
        z = _require_sparse(z, "z")
        if z == self.target:
            return False
        return None

    def to_json(self) -> dict:
        return {"variant": "partial", "rule": self.rule, "known": {"contains_target": False}}


def coderivative(xbar: SparseVector, M: Iterable[int], y: SparseVector) -> DerivativeSet:
    """Coderivative of the cone projection at xbar applied to y.

    The query y = 0 yields {0} at every base point.  All other queries
    require xbar strictly positive exactly on M; then y nonnegative off M
    yields the order interval, and any other y yields the self-exclusion
    partial rule.
    """
    xbar = _require_sparse(xbar, "xbar")
    y = _require_sparse(y, "y")
    M = as_support(M)
    if y.is_zero():
        return SingletonSet(SparseVector.zero())
    if not has_positive_support(xbar, M):
        raise ValueError("xbar must be strictly positive exactly on M")
    if nonnegative_off(y, M):
        return OrderIntervalSet._of(y, M)
    return SelfExclusionPartial(target=y)
