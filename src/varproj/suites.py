"""Seeded verification batteries behind the command line ``verify``.

Each suite draws a deterministic set of instances, checks the closed
forms against independent numerics (difference quotients, small grid
searches, the limsup membership estimator), and reports one result per
check.  The same instance generators feed the acceptance test battery,
which runs them at a larger scale.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import l2_cone, orthant
from .ball import BallProjection
from .oracle import (
    ProbeConfig,
    Verdict,
    directional_quotient,
    jacobian_fd,
    membership,
    quotient,
)
from .vectors import SparseVector, Vector, inner, norm, orth_decompose

__all__ = [
    "CaseResult",
    "SuiteReport",
    "MembershipCase",
    "SUITE_NAMES",
    "run_suite",
    "ball_membership_cases",
    "orthant_membership_cases",
    "l2_membership_cases",
    "decomposition_residuals",
    "order_interval_grid",
]


@dataclass(frozen=True)
class CaseResult:
    id: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        # comparisons against numpy scalars yield numpy bools, which the
        # json encoder rejects; normalize at the single entry point
        object.__setattr__(self, "ok", bool(self.ok))


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple[CaseResult, ...]

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        ordered = sorted(self.cases, key=lambda c: c.id)
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "total": len(self.cases),
            "passed": self.passed,
            "failed": self.failed,
            "failures": [c.id for c in ordered if not c.ok],
            "cases": [{"id": c.id, "ok": c.ok} for c in ordered],
        }
        return out


@dataclass(frozen=True)
class MembershipCase:
    """One coderivative membership query with its definite closed-form answer."""

    label: str
    project: Callable[[Vector], Vector]
    xbar: Vector
    y: Vector
    z: Vector
    expected: bool
    descriptor: object


def _signed_coords(rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 1.0) -> np.ndarray:
    return rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)


def _unit_dense(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        v = rng.standard_normal(n)
        length = norm(v)
        if length > 1e-6:
            return v / length


def _dense_pert(rng: np.random.Generator, n: int, lo: float = 0.3, hi: float = 1.0) -> np.ndarray:
    return _unit_dense(rng, n) * rng.uniform(lo, hi)


def _ball(rng: np.random.Generator) -> tuple[int, float, BallProjection]:
    """A dimension in 2..6, a radius of 0.5, 1 or 2 and the ball's projection."""
    n = int(rng.integers(2, 7))
    r = float(rng.choice((0.5, 1.0, 2.0)))
    return n, r, BallProjection(r)


def _mixed(rng: np.random.Generator, n: int) -> np.ndarray:
    """A point of R^n with |entries| in [0.1, 2), the first positive and the second negative."""
    x = _signed_coords(rng, n, 0.1, 2.0)
    x[0] = abs(x[0])
    x[1] = -abs(x[1])
    return x


def _sparse(rng: np.random.Generator, idx, lo: float = 0.1, hi: float = 2.0, signs: bool = True) -> SparseVector:
    """A SparseVector on the indices idx: a uniform magnitude in [lo, hi) each, then a random sign when ``signs``."""
    return SparseVector({int(i): float(rng.uniform(lo, hi)) * (float(rng.choice((-1.0, 1.0))) if signs else 1.0)
                         for i in idx})


def _interval(rng: np.random.Generator, m_size: int, off_size: int, lo: float) -> tuple:
    """(M, off, xbar, y) over indices 1..8: xbar > 0 on M, y signed in [lo, 2) on M and in [0.4, 2) on off."""
    idx = [int(i) for i in rng.choice(np.arange(1, 9), size=m_size + off_size, replace=False)]
    M, off = frozenset(idx[:m_size]), idx[m_size:]
    xbar = _sparse(rng, M, 0.5, 2.0, signs=False)
    return M, off, xbar, _sparse(rng, M, lo) + _sparse(rng, off, 0.4, 2.0, signs=False)


def _orth_unit(rng: np.random.Generator, anchor: np.ndarray) -> np.ndarray:
    """Random unit vector orthogonal to the anchor."""
    while True:
        o = orth_decompose(anchor, _unit_dense(rng, anchor.shape[0])).o
        length = norm(o)
        if length > 0.1:
            return o / length


def _checked_case(label: str, project, xbar, y, z, expected: bool, descriptor) -> MembershipCase:
    got = descriptor.contains(z)
    if got is not expected:
        raise AssertionError(
            f"generator bug: closed form answered {got!r} for {label}, wanted {expected}"
        )
    return MembershipCase(label, project, xbar, y, z, expected, descriptor)


def ball_membership_cases(rng: np.random.Generator, per_family: int) -> list[MembershipCase]:
    """Queries spanning all coderivative regimes of the ball projection."""
    cases: list[MembershipCase] = []
    for k in range(per_family):
        n, r, op = _ball(rng)
        theta = np.zeros(n)

        def case(label, xbar, y, z, expected):
            desc = op.coderivative(xbar, y)
            cases.append(_checked_case(f"ball/{label}/{k:03d}", op.project, xbar, y, z, expected, desc))

        x_in = _unit_dense(rng, n) * (r * rng.uniform(0.2, 0.8))
        y_in = _signed_coords(rng, n)
        case("interior-member", x_in, y_in, y_in.copy(), True)
        case("interior-off", x_in, y_in, y_in + _dense_pert(rng, n), False)

        x_ex = _unit_dense(rng, n) * (r * rng.uniform(1.5, 2.5))
        y_ex = _signed_coords(rng, n)
        v_ex = op.frechet(x_ex)(y_ex)
        case("exterior-member", x_ex, y_ex, v_ex, True)
        case("exterior-off", x_ex, y_ex, v_ex + _dense_pert(rng, n), False)

        x_s = r * _unit_dense(rng, n)
        o_hat = _orth_unit(rng, x_s)
        case("sphere-zero-member", x_s, theta, theta.copy(), True)
        c = float(rng.uniform(0.3, 1.5) * rng.choice((-1.0, 1.0)))
        case("sphere-zero-radial", x_s, theta, c * x_s, False)
        z_orth = rng.uniform(-0.5, 0.5) * x_s + o_hat * rng.uniform(0.3, 1.5)
        case("sphere-zero-orth", x_s, theta, z_orth, False)

        y_neg = -rng.uniform(0.1, 1.5) * x_s
        case("sphere-partial-member", x_s, y_neg, theta.copy(), True)
        a_pos = rng.uniform(0.1, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.5)
        case("sphere-partial-radial", x_s, a_pos * x_s, theta.copy(), False)
        y_orth = rng.uniform(-0.5, 0.5) * x_s + o_hat * rng.uniform(0.3, 1.0)
        case("sphere-partial-orth", x_s, y_orth, theta.copy(), False)

        for tag, z_self in (
            ("theta", theta.copy()),
            ("xbar", x_s.copy()),
            ("neg-xbar", -x_s),
            ("random", _signed_coords(rng, n, 0.3, 1.0)),
        ):
            case(f"sphere-self-{tag}", x_s, x_s.copy(), z_self, False)
    return cases


def orthant_membership_cases(rng: np.random.Generator, per_family: int) -> list[MembershipCase]:
    """Queries spanning all coderivative regimes of the orthant projection."""
    cases: list[MembershipCase] = []
    for k in range(per_family):
        n = int(rng.integers(2, 7))
        theta = np.zeros(n)

        def case(label, xbar, y, z, expected):
            desc = orthant.coderivative(xbar, y)
            cases.append(
                _checked_case(f"orthant/{label}/{k:03d}", orthant.project, xbar, y, z, expected, desc)
            )

        x_pos = rng.uniform(0.1, 2.0, n)
        y1 = _signed_coords(rng, n)
        case("positive-member", x_pos, y1, y1.copy(), True)
        case("positive-off", x_pos, y1, y1 + _dense_pert(rng, n), False)

        x_neg = -rng.uniform(0.1, 2.0, n)
        y2 = _signed_coords(rng, n)
        case("negative-member", x_neg, y2, theta.copy(), True)
        case("negative-off", x_neg, y2, _dense_pert(rng, n), False)

        x_mix = _mixed(rng, n)
        y3 = _signed_coords(rng, n)
        v3 = orthant.frechet(x_mix)(y3)
        case("mixed-member", x_mix, y3, v3, True)
        case("mixed-off", x_mix, y3, v3 + _dense_pert(rng, n), False)

        x_c = _signed_coords(rng, n, 0.1, 2.0)
        zero_count = int(rng.integers(1, n))
        x_c[rng.choice(n, size=zero_count, replace=False)] = 0.0
        case("corner-zero-member", x_c, theta, theta.copy(), True)
        case("corner-zero-off", x_c, theta, _signed_coords(rng, n, 0.3, 1.0), False)

        x_l = _signed_coords(rng, n, 0.1, 2.0)
        j = int(rng.integers(n))
        x_l[j] = 0.0
        y_l = _signed_coords(rng, n, 0.1, 1.0)
        y_l[j] = -rng.uniform(0.5, 2.0)
        for lam in (0.0, 0.5, 0.9, -1.0):
            case(f"corner-scale-{lam}", x_l, y_l, lam * y_l, False)

        x7 = -rng.uniform(0.1, 2.0, n)
        x7[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
        case("corner-self-nopos-member", x7, x7.copy(), theta.copy(), True)
        case("corner-self-nopos-off", x7, x7.copy(), _signed_coords(rng, n, 0.3, 1.0), False)

        x8 = _signed_coords(rng, n, 0.1, 2.0)
        x8[0] = abs(x8[0])
        x8[int(rng.integers(1, n))] = 0.0
        case("corner-self-pos-theta", x8, x8.copy(), theta.copy(), False)
        case("corner-self-pos-random", x8, x8.copy(), _signed_coords(rng, n, 0.3, 1.0), False)
    return cases


def l2_membership_cases(rng: np.random.Generator, per_family: int) -> list[MembershipCase]:
    """Queries spanning the sparse-cone coderivative rules."""
    cases: list[MembershipCase] = []
    zero = SparseVector.zero()
    for k in range(per_family):
        def case(label, xbar, M, y, z, expected):
            desc = l2_cone.coderivative(xbar, M, y)
            cases.append(
                _checked_case(f"l2/{label}/{k:03d}", l2_cone.project, xbar, y, z, expected, desc)
            )

        any_support = [int(i) for i in rng.choice(np.arange(1, 9), size=int(rng.integers(1, 5)), replace=False)]
        x_any = _sparse(rng, any_support)
        m_any = frozenset(any_support)
        case("zero-query-member", x_any, m_any, zero, zero, True)
        case("zero-query-off", x_any, m_any, zero, _sparse(rng, any_support, 0.3, 1.0), False)

        M, off, xbar, y = _interval(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0.1)
        i0 = off[0]
        j0 = min(M)
        case("interval-bound", xbar, M, y, y, True)
        case("interval-interior", xbar, M, y, y + SparseVector({i0: -0.5 * y.get(i0)}), True)
        case("interval-above", xbar, M, y, y + SparseVector({i0: 0.5}), False)
        z_negative = y + SparseVector({i0: -y.get(i0) - rng.uniform(0.3, 1.0)})
        case("interval-negative", xbar, M, y, z_negative, False)
        sign = float(rng.choice((-1.0, 1.0)))
        case("interval-on-support", xbar, M, y, y + SparseVector({j0: 0.5 * sign}), False)

        y_col = _sparse(rng, M)
        fresh = max(M.union(off)) + 1
        case("collapse-member", xbar, M, y_col, y_col, True)
        case("collapse-off", xbar, M, y_col, y_col + SparseVector({fresh: 0.5}), False)

        y_sx = y + SparseVector({i0: -y.get(i0) - rng.uniform(0.3, 1.0)})
        case("self-exclusion", xbar, M, y_sx, y_sx, False)
    return cases


def decomposition_residuals(anchor: Vector, u: Vector, v: Vector) -> dict[str, float]:
    """Relative residuals of the five splitting identities for (anchor, u, v)."""
    du = orth_decompose(anchor, u)
    dv = orth_decompose(anchor, v)
    asq = inner(anchor, anchor)

    def rel(lhs: float, rhs: float) -> float:
        return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    mixed = du.a * dv.a * asq + inner(du.o, dv.o)
    cross = inner(du.a * anchor, dv.o)
    straight = norm(du.a * anchor + dv.o) ** 2
    straight_rhs = du.a**2 * asq + norm(dv.o) ** 2
    pythagoras = norm(u) ** 2
    pythagoras_rhs = du.a**2 * asq + norm(du.o) ** 2
    summed = norm(u + v) ** 2
    summed_rhs = (du.a + dv.a) ** 2 * asq + norm(du.o + dv.o) ** 2
    return {
        "inner_split": rel(inner(u, v), mixed),
        "cross_orthogonal": abs(cross) / max(1.0, abs(du.a) * norm(anchor) * norm(dv.o)),
        "mixed_pythagoras": rel(straight, straight_rhs),
        "pythagoras": rel(pythagoras, pythagoras_rhs),
        "sum_split": rel(summed, summed_rhs),
    }


def order_interval_grid(rng: np.random.Generator, m_size: int, off_size: int,
                        variant: int = 0) -> tuple[SparseVector, frozenset[int], SparseVector, list[SparseVector]]:
    """Deterministic instance plus a 3^(active) grid of candidate members.

    Per-coordinate value templates straddle the membership boundary: the
    on-support lattice breaks/keeps equality with the bound, the
    off-support lattice covers negative, inside, and above-the-bound
    values (with exact boundary points on even variants).
    """
    M, off, xbar, y = _interval(rng, m_size, off_size, 0.4)
    active = sorted(M.union(off))
    templates = []
    for i in active:
        yi = y.get(i)
        if i in M:
            templates.append((yi - 0.5, yi, yi + 0.5))
        elif variant % 2 == 0:
            templates.append((0.0, yi, yi + 0.25))
        else:
            templates.append((-0.5, 0.5 * yi, yi + 0.5))
    grid = [SparseVector({i: val for i, val in zip(active, combo)}) for combo in itertools.product(*templates)]
    return xbar, M, y, grid


def _agreement(suite: str, cases: list[MembershipCase], seed: int) -> list[CaseResult]:
    """One result per case: does the oracle's verdict, with 64 random directions, match the closed form's answer?"""
    config = ProbeConfig(random_directions=64, seed=seed)
    results = []
    for mc in cases:
        verdict = membership(mc.project, mc.xbar, mc.y, mc.z, config).verdict
        want = Verdict.MEMBER if mc.expected else Verdict.NON_MEMBER
        results.append(CaseResult(f"{suite}/{mc.label}", verdict is want,
                                  f"closed form {mc.expected}, oracle {verdict.value}"))
    return results


def run_decomp(seed: int) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(150):
        n = int(rng.integers(2, 9))
        anchor = _signed_coords(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        worst = max(decomposition_residuals(anchor, u, v).values())
        cases.append(CaseResult(f"decomp/triple/{k:04d}", worst <= 1e-9, f"worst residual {worst:.3e}"))
    for k in range(20):
        n = int(rng.integers(2, 9))
        anchor = _signed_coords(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        alpha, beta = rng.uniform(-2.0, 2.0, 2)
        combo = orth_decompose(anchor, alpha * u + beta * v)
        du = orth_decompose(anchor, u)
        dv = orth_decompose(anchor, v)
        a_err = abs(combo.a - (alpha * du.a + beta * dv.a))
        o_err = norm(combo.o - (alpha * du.o + beta * dv.o))
        ok = a_err <= 1e-10 * max(1.0, abs(combo.a)) and o_err <= 1e-10 * max(1.0, norm(combo.o))
        cases.append(CaseResult(f"decomp/linearity/{k:04d}", ok, f"a_err {a_err:.3e} o_err {o_err:.3e}"))
    for k in range(10):
        n = int(rng.integers(2, 9))
        anchor = _signed_coords(rng, n)
        w = rng.standard_normal(n)
        gaps = []
        offs = []
        for step in range(1, 8):
            dk = orth_decompose(anchor, anchor + w / step)
            gaps.append(abs(dk.a - 1.0))
            offs.append(norm(dk.o))
        ok = all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
        ok = ok and all(b <= a + 1e-15 for a, b in zip(offs, offs[1:]))
        cases.append(CaseResult(f"decomp/convergence/{k:04d}", ok))
    return cases


def run_ball_deriv(seed: int) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(15):
        n, r, op = _ball(rng)
        x_in = _unit_dense(rng, n) * (r * rng.uniform(0.2, 0.8))
        err = float(np.max(np.abs(jacobian_fd(op.project, x_in) - op.frechet(x_in).matrix())))
        cases.append(CaseResult(f"ball-deriv/jac-interior/{k:03d}", err <= 1e-5, f"err {err:.3e}"))
        x_ex = _unit_dense(rng, n) * (r * rng.uniform(1.5, 2.5))
        err = float(np.max(np.abs(jacobian_fd(op.project, x_ex) - op.frechet(x_ex).matrix())))
        cases.append(CaseResult(f"ball-deriv/jac-exterior/{k:03d}", err <= 1e-5, f"err {err:.3e}"))
    for k in range(15):
        n, r, op = _ball(rng)
        x_s = r * _unit_dense(rng, n)
        o_hat = _orth_unit(rng, x_s)
        directions = {
            "outward": o_hat + rng.uniform(0.0, 1.0) * x_s / r,
            "radial": rng.uniform(0.1, 2.0) * x_s,
            "inward": o_hat - rng.uniform(0.1, 1.0) * x_s / r,
        }
        for tag, w in directions.items():
            got = directional_quotient(op.project, x_s, w, 1e-5)
            err = float(np.max(np.abs(got - op.gateaux(x_s, w))))
            cases.append(CaseResult(f"ball-deriv/gateaux-{tag}/{k:03d}", err <= 1e-4, f"err {err:.3e}"))
    for k in range(20):
        n, r, op = _ball(rng)
        u = _signed_coords(rng, n, 0.1, 3.0)
        v = _signed_coords(rng, n, 0.1, 3.0)
        nonexp = norm(op.project(u) - op.project(v)) <= norm(u - v) + 1e-12
        idem = norm(op.project(op.project(u)) - op.project(u)) <= 1e-12 * max(1.0, r)
        cases.append(CaseResult(f"ball-deriv/nonexpansive/{k:03d}", nonexp and idem))
    return cases


def run_ball_coderiv(seed: int) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    cases = _agreement("ball-coderiv", ball_membership_cases(rng, per_family=1), seed)
    for k in range(10):
        n, r, op = _ball(rng)
        x = _unit_dense(rng, n) * (r * float(rng.choice((0.5, 1.7))))
        y = _signed_coords(rng, n)
        desc = op.coderivative(x, y)
        err = norm(desc.value - op.frechet(x)(y))
        cases.append(CaseResult(f"ball-coderiv/frechet-consistency/{k:03d}", err <= 1e-12))
    return cases


def run_cone_rn(seed: int) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    cases = []
    axis = np.linspace(-1.0, 1.0, 21)
    grid = np.array(list(itertools.product(axis, axis)))
    feasible = grid[np.all(grid >= 0.0, axis=1)]
    for k in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        best = feasible[np.argmin(np.sum((feasible - x) ** 2, axis=1))]
        ok = norm(best - orthant.project(x)) <= 0.1 * np.sqrt(2) + 1e-9
        cases.append(CaseResult(f"cone-rn/grid/{k:03d}", ok))
    for k in range(10):
        n = int(rng.integers(2, 7))
        x = _signed_coords(rng, n, 0.0, 2.0)
        ok = all(
            np.array_equal(orthant.project(lam * x), lam * orthant.project(x))
            for lam in (0.0, 0.5, 1.0, 2.0, 10.0)
        )
        w = rng.standard_normal(n)
        ok = ok and np.array_equal(orthant.gateaux(np.zeros(n), w), orthant.project(w))
        cases.append(CaseResult(f"cone-rn/homogeneity/{k:03d}", ok))
    for k in range(10):
        n = int(rng.integers(2, 7))
        x = _mixed(rng, n)
        w = rng.standard_normal(n)
        v = rng.standard_normal(n)
        alpha, beta = rng.uniform(-2.0, 2.0, 2)
        lin = norm(
            orthant.gateaux(x, alpha * w + beta * v)
            - (alpha * orthant.gateaux(x, w) + beta * orthant.gateaux(x, v))
        )
        cases.append(CaseResult(f"cone-rn/mask-linearity/{k:03d}", lin <= 1e-12))
    for k in range(10):
        n = int(rng.integers(2, 7))
        regions = {
            "positive": rng.uniform(0.1, 2.0, n),
            "negative": -rng.uniform(0.1, 2.0, n),
            "mixed": _mixed(rng, n),
        }
        for tag, x in regions.items():
            err = float(np.max(np.abs(jacobian_fd(orthant.project, x) - orthant.frechet(x).matrix())))
            cases.append(CaseResult(f"cone-rn/jac-{tag}/{k:03d}", err <= 1e-5, f"err {err:.3e}"))
    for k in range(15):
        n = int(rng.integers(2, 7))
        x = _signed_coords(rng, n, 0.1, 2.0)
        x[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
        w = rng.standard_normal(n)
        got = directional_quotient(orthant.project, x, w, 1e-6)
        err = float(np.max(np.abs(got - orthant.gateaux(x, w))))
        cases.append(CaseResult(f"cone-rn/gateaux-corner/{k:03d}", err <= 1e-5, f"err {err:.3e}"))
    return cases + _agreement("cone-rn", orthant_membership_cases(rng, per_family=1), seed)


def run_cone_l2(seed: int) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(20):
        base = [int(i) for i in rng.choice(np.arange(1, 9), size=3, replace=False)]
        M, off = frozenset(base[:2]), base[2]
        za, zb, zc = (_sparse(rng, base) for _ in range(3))
        # zb and zc keep za on M and move off M by the positive part of zb's
        # draw there, then by zc's draw: za <= zb always, zb <= za when zb's
        # draw is negative, and zb <= zc when zc's draw is positive
        zb = za + SparseVector({off: max(zb.get(off), 0.0)})
        zc = zb + SparseVector({off: zc.get(off)})
        ok = l2_cone.order_leq(za, za, M)
        if l2_cone.order_leq(za, zb, M) and l2_cone.order_leq(zb, za, M):
            ok = ok and za == zb
        if l2_cone.order_leq(za, zb, M) and l2_cone.order_leq(zb, zc, M):
            ok = ok and l2_cone.order_leq(za, zc, M)
        cases.append(CaseResult(f"cone-l2/order-axioms/{k:03d}", ok))
    for k in range(10):
        idx = [int(i) for i in rng.choice(np.arange(1, 9), size=3, replace=False)]
        x = _sparse(rng, idx)
        proj = l2_cone.project(x)
        ok = all(v > 0.0 for _, v in proj.items())
        ok = ok and all(proj.get(i) == max(x.get(i), 0.0) for i in idx)
        cases.append(CaseResult(f"cone-l2/project/{k:03d}", ok))
    cases += _agreement("cone-l2", l2_membership_cases(rng, per_family=1), seed)
    for k in range(5):
        idx = [int(i) for i in rng.choice(np.arange(1, 7), size=2, replace=False)]
        M = frozenset(idx)
        xbar = _sparse(rng, idx, 0.5, 2.0, signs=False)
        y = _sparse(rng, idx)
        desc = l2_cone.coderivative(xbar, M, y)
        ok = desc.is_singleton and desc.contains(y) is True
        cases.append(CaseResult(f"cone-l2/collapse/{k:03d}", ok))
    xbar, M, y, grid = order_interval_grid(rng, m_size=1, off_size=2)
    desc = l2_cone.coderivative(xbar, M, y)
    config = ProbeConfig(random_directions=32, seed=seed)
    for idx_g, z in enumerate(grid):
        expected = desc.contains(z)
        verdict = membership(l2_cone.project, xbar, y, z, config).verdict
        want = Verdict.MEMBER if expected else Verdict.NON_MEMBER
        cases.append(CaseResult(f"cone-l2/grid/{idx_g:03d}", verdict is want, verdict.value))
    return cases


def run_oracle_consistency(seed: int) -> list[CaseResult]:
    rng = np.random.default_rng(seed)
    cases = []
    samples = (
        ball_membership_cases(rng, per_family=1)[:5]
        + orthant_membership_cases(rng, per_family=1)[:5]
        + l2_membership_cases(rng, per_family=1)[:4]
    )
    # one verdict per sample, read again by the determinism and witness checks
    config = ProbeConfig(random_directions=64, seed=seed)
    verdicts = [membership(mc.project, mc.xbar, mc.y, mc.z, config) for mc in samples]
    for idx, (mc, a) in enumerate(zip(samples[:5], verdicts)):
        b = membership(mc.project, mc.xbar, mc.y, mc.z, config)
        cases.append(
            CaseResult(
                f"oracle/determinism/{idx:03d}",
                json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True),
            )
        )
    witness_checked = 0
    idx = 0
    for mc, verdict in zip(samples, verdicts):
        if mc.expected:
            continue
        if verdict.verdict is not Verdict.NON_MEMBER:
            cases.append(CaseResult(f"oracle/witness/{idx:03d}", False, "expected NonMember"))
            idx += 1
            continue
        w = verdict.witness
        again = quotient(mc.project, mc.xbar, mc.y, mc.z, mc.xbar + w.radius * w.direction)
        cases.append(
            CaseResult(
                f"oracle/witness/{idx:03d}",
                again == w.quotient and w.quotient > verdict.tolerance,
                f"stored {w.quotient!r} recomputed {again!r}",
            )
        )
        idx += 1
        witness_checked += 1
        if witness_checked >= 5:
            break
    return cases


_RUNNERS = {
    "decomp": run_decomp,
    "ball-deriv": run_ball_deriv,
    "ball-coderiv": run_ball_coderiv,
    "cone-rn": run_cone_rn,
    "cone-l2": run_cone_l2,
    "oracle-consistency": run_oracle_consistency,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suite(name: str, seed: int) -> SuiteReport:
    """Run one named suite (or ``all``) with a fixed seed."""
    if name == "all":
        cases: list[CaseResult] = []
        for runner in _RUNNERS.values():
            cases.extend(runner(seed))
        return SuiteReport(suite="all", seed=seed, cases=tuple(cases))
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return SuiteReport(suite=name, seed=seed, cases=tuple(_RUNNERS[name](seed)))
