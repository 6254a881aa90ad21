"""Projection onto the nonnegative cone of l2, on finite-support vectors.

The cone consists of sequences with every coordinate >= 0, and the
projection takes the componentwise positive part.  All computations here
use finite-support sparse vectors, which is lossless: the projection,
the derivative maps, and every membership rule below preserve finite
support.  The one exception is ``project_rows``, the orthant's row form,
which projects many points at once, given as rows of their coordinates
on fixed indices.

The interesting base points are those with support exactly M and
strictly positive values there ("strictly positive on M").  For such a
base point xbar and a query vector y that is nonnegative off M, the
coderivative is the order interval

    { z : z_i = y_i on M,  0 <= z_i <= y_i off M },

which collapses to the singleton {y} exactly when y is supported inside
M.  For y with a negative coordinate off M the closed form only proves
that y itself is not a member.  The zero query always gives {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .descriptors import DerivativeSet, SingletonSet
from .orthant import project_axes, project_rows
from .vectors import SparseVector

__all__ = [
    "as_support",
    "project",
    "project_rows",
    "has_positive_support",
    "nonnegative_off",
    "order_leq",
    "OrderIntervalSet",
    "SelfExclusionPartial",
    "coderivative",
]


def as_support(M: Iterable[int]) -> frozenset[int]:
    """Validate a support set: a nonempty finite set of 1-based indices."""
    out = frozenset(M)
    if not out:
        raise ValueError("support set must be nonempty")
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


# the orthant's forms are exact on coordinates over fixed indices, because
# the projection acts coordinate by coordinate and maps 0 to 0
project.rows = project_rows
project.axes = project_axes


def has_positive_support(x: SparseVector, M: Iterable[int]) -> bool:
    """True iff x is strictly positive exactly on M and zero elsewhere."""
    x = _require_sparse(x, "x")
    M = as_support(M)
    return x.support == M and all(v > 0.0 for _, v in x.items())


def nonnegative_off(y: SparseVector, M: Iterable[int]) -> bool:
    """True iff y_i >= 0 for every coordinate i outside M."""
    y = _require_sparse(y, "y")
    M = as_support(M)
    return all(v >= 0.0 for i, v in y.items() if i not in M)


def order_leq(z: SparseVector, y: SparseVector, M: Iterable[int]) -> bool:
    """Partial order: z_i = y_i for i in M and z_i <= y_i for i outside M."""
    z = _require_sparse(z, "z").to_mapping()
    y = _require_sparse(y, "y").to_mapping()
    M = as_support(M)
    # an index of M outside both supports compares 0.0 with 0.0
    for i in z.keys() | y.keys():
        zi, yi = z.get(i, 0.0), y.get(i, 0.0)
        if zi != yi if i in M else zi > yi:
            return False
    return True


@dataclass(frozen=True)
class OrderIntervalSet(DerivativeSet):
    """The set { z : z = bound on M, 0 <= z <= bound off M }.

    The set is never materialised; membership is decided symbolically.
    It is a singleton exactly when the bound is supported inside M.
    """

    bound: SparseVector
    support: frozenset[int]

    def __post_init__(self):
        if not nonnegative_off(self.bound, self.support):
            raise ValueError("order interval bound must be nonnegative off the support set")

    def contains(self, z) -> Optional[bool]:
        z = _require_sparse(z, "z")
        return nonnegative_off(z, self.support) and order_leq(z, self.bound, self.support)

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
        return OrderIntervalSet(bound=y, support=M)
    return SelfExclusionPartial(target=y)
