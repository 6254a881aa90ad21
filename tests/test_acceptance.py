"""End-to-end acceptance battery.

One test per criterion; each prints a PASS/FAIL line with timing so the
suite run doubles as a checklist. Tolerances and instance counts are
fixed here on purpose: loosening them is a library regression, not a
test chore.
"""

import itertools
import time

import numpy as np

from varproj import l2_cone, orthant
from varproj.ball import BallProjection
from varproj.oracle import ProbeConfig, Verdict, directional_quotient, jacobian_fd, membership
from varproj.suites import (
    _signed_coords,
    _unit_dense,
    ball_membership_cases,
    decomposition_residuals,
    l2_membership_cases,
    order_interval_grid,
    orthant_membership_cases,
)
from varproj.vectors import SparseVector, norm


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_splitting_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        anchor = _signed_coords(rng, n, 0.1, 2.0)
        u = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        v = rng.standard_normal(n) * rng.uniform(0.1, 3.0)
        worst = max(worst, max(decomposition_residuals(anchor, u, v).values()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "splitting identities", ok, f"1000 triples, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_projection_law_brute_force():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    ball_gap = 0.0
    cone_dev = 0.0
    checked = {"ball": 0, "cone": 0}
    for n in (2, 3):
        cell = 0.05 * np.sqrt(n)
        axis = np.linspace(-2.0, 2.0, 81)
        grid = np.array(list(itertools.product(*([axis] * n))))
        ball_feasible = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        cone_feasible = grid[np.all(grid >= 0.0, axis=1)]
        op = BallProjection(1.0)
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, n)
            # The grid argmin can slide tangentially along the sphere by
            # more than one cell while staying distance-optimal, so the
            # one-cell agreement for the ball is in the achieved
            # distance; the separable cone admits the stronger
            # positional check.
            best = ball_feasible[np.argmin(np.sum((ball_feasible - x) ** 2, axis=1))]
            p = op.project(x)
            gap = float(np.linalg.norm(best - x) - np.linalg.norm(p - x))
            assert gap >= -1e-9
            ball_gap = max(ball_gap, gap)
            checked["ball"] += 1

            best = cone_feasible[np.argmin(np.sum((cone_feasible - x) ** 2, axis=1))]
            p = orthant.project(x)
            cone_dev = max(cone_dev, float(np.max(np.abs(best - p))))
            checked["cone"] += 1
        if ball_gap > cell or cone_dev > 0.05 + 1e-9:
            break
    elapsed = time.perf_counter() - start
    ok = (
        checked == {"ball": 50, "cone": 50}
        and ball_gap <= 0.05 * np.sqrt(2)  # tightest cell diagonal used
        and cone_dev <= 0.05 + 1e-9
        and elapsed < 10.0
    )
    _report(
        2,
        "projection law vs grid search",
        ok,
        f"50+50 inputs, ball distance gap {ball_gap:.4f}, cone deviation {cone_dev:.4f}, {elapsed:.2f}s",
    )


def test_criterion_3_frechet_vs_finite_differences():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = {}
    for regime in ("ball-interior", "ball-exterior", "cone-positive", "cone-negative", "cone-mixed"):
        err = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            if regime.startswith("ball"):
                r = float(rng.choice((0.5, 1.0, 2.0)))
                op = BallProjection(r)
                scale = rng.uniform(0.2, 0.8) if regime == "ball-interior" else rng.uniform(1.5, 2.5)
                x = _unit_dense(rng, n) * (r * scale)
                project, mapping = op.project, op.frechet(x)
            else:
                if regime == "cone-positive":
                    x = rng.uniform(0.1, 2.0, n)
                elif regime == "cone-negative":
                    x = -rng.uniform(0.1, 2.0, n)
                else:
                    x = _signed_coords(rng, n, 0.1, 2.0)
                    x[0], x[1] = abs(x[0]), -abs(x[1])
                project, mapping = orthant.project, orthant.frechet(x)
            err = max(err, float(np.max(np.abs(jacobian_fd(project, x) - mapping.matrix()))))
        worst[regime] = err
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-5 and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(3, "derivative maps vs central differences", ok, f"100/regime, {detail}, {elapsed:.2f}s")


def test_criterion_4_gateaux_vs_forward_quotients():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = {}
    for regime in ("sphere-outward", "sphere-radial", "sphere-inward", "cone-corner"):
        err = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 7))
            if regime == "cone-corner":
                x = _signed_coords(rng, n, 0.1, 2.0)
                x[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
                w = rng.standard_normal(n)
                got = orthant.gateaux(x, w)
                fd = directional_quotient(orthant.project, x, w, 1e-5)
            else:
                r = float(rng.choice((0.5, 1.0, 2.0)))
                op = BallProjection(r)
                x = r * _unit_dense(rng, n)
                o = rng.standard_normal(n)
                o -= np.dot(o, x) / np.dot(x, x) * x
                o *= rng.uniform(0.5, 2.0) / np.linalg.norm(o)
                if regime == "sphere-outward":
                    b = 0.0 if trial % 5 == 0 else rng.uniform(0.1, 1.0)
                    w = o + b * x / r
                elif regime == "sphere-inward":
                    w = o - rng.uniform(0.1, 1.0) * x / r
                else:
                    w = rng.uniform(0.1, 2.0) * x
                got = op.gateaux(x, w)
                fd = directional_quotient(op.project, x, w, 1e-5)
            err = max(err, float(np.max(np.abs(got - fd))))
        worst[regime] = err
    elapsed = time.perf_counter() - start
    ok = max(worst.values()) <= 1e-4 and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report(4, "directional derivatives vs forward quotients", ok, f"100/regime, {detail}, {elapsed:.2f}s")


def test_criterion_5_coderivative_oracle_agreement():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    cases = (
        ball_membership_cases(rng, per_family=6)
        + orthant_membership_cases(rng, per_family=6)
        + l2_membership_cases(rng, per_family=6)
    )
    assert len(cases) >= 200
    families = {c.label.rsplit("/", 1)[0] for c in cases}
    assert len(families) == 40, sorted(families)
    config = ProbeConfig()
    contradictions = []
    inconclusive = []
    for case in cases:
        verdict = membership(case.project, case.xbar, case.y, case.z, config).verdict
        if verdict is Verdict.INCONCLUSIVE:
            inconclusive.append(case.label)
            continue
        want = Verdict.MEMBER if case.expected else Verdict.NON_MEMBER
        if verdict is not want:
            contradictions.append((case.label, verdict.value))
    for label in inconclusive:
        print(f"    inconclusive: {label}")
    elapsed = time.perf_counter() - start
    rate = len(inconclusive) / len(cases)
    ok = not contradictions and rate < 0.05 and elapsed < 60.0
    _report(
        5,
        "coderivative vs membership oracle",
        ok,
        f"{len(cases)} instances over {len(families)} families, "
        f"{len(contradictions)} contradictions, {len(inconclusive)} inconclusive, {elapsed:.2f}s",
    )


def test_criterion_6_exclusion_limit_constants():
    start = time.perf_counter()
    op = BallProjection(1.0)
    xc = np.array([0.0, -1.0])
    origin = np.zeros(2)
    y_corner = np.array([0.0, -1.0])
    checks = [
        # radial probe outside a sphere point: limit is the radial
        # coefficient of z times the radius
        ("sphere-radial", op.project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.3, 0.0]), 1.3),
        # flat probe along a zero coordinate with a negative candidate
        # entry: limit is that entry's magnitude
        ("corner-flat", orthant.project, xc, xc, np.array([-0.8, 0.0]), 0.8),
        # scaled-candidate exclusion at the origin: limit is
        # (1 - scale)/2 times the magnitude of the negative entry
        ("corner-scale-0", orthant.project, origin, y_corner, np.zeros(2), 0.5),
        ("corner-scale-neg1", orthant.project, origin, y_corner, np.array([0.0, 1.0]), 1.0),
        # self-query with a negative off-support entry: limit is that
        # entry's magnitude
        (
            "sparse-self-exclusion",
            l2_cone.project,
            SparseVector({1: 1.0}),
            SparseVector({1: 0.4, 2: -0.7}),
            SparseVector({1: 0.4, 2: -0.7}),
            0.7,
        ),
    ]
    failures = []
    for label, f, xbar, y, z, constant in checks:
        out = membership(f, xbar, y, z, ProbeConfig())
        w = out.witness
        if out.verdict is not Verdict.NON_MEMBER or w.radius != 1e-4:
            failures.append(f"{label}: verdict {out.verdict.value}")
            continue
        if abs(w.quotient - constant) > 0.1 * constant:
            failures.append(f"{label}: witness {w.quotient:.4f} vs constant {constant}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(6, "witness quotients vs limit constants", ok, f"5 pinned instances, {failures or 'all within 10%'}, {elapsed:.2f}s")


def test_criterion_7_order_interval_enumeration():
    rng = np.random.default_rng(707)
    start = time.perf_counter()
    config = ProbeConfig(random_directions=32, seed=7)
    points = 0
    mismatches = []
    for instance in range(20):
        m_size = int(rng.integers(1, 4))
        off_size = int(rng.integers(1, 4))
        xbar, M, y, grid = order_interval_grid(rng, m_size, off_size, variant=instance)
        desc = l2_cone.coderivative(xbar, M, y)
        assert desc.to_json()["variant"] == "order_interval"
        assert len(grid) >= 3 ** (m_size + off_size)
        for z in grid:
            expected = desc.contains(z)
            verdict = membership(l2_cone.project, xbar, y, z, config).verdict
            want = Verdict.MEMBER if expected else Verdict.NON_MEMBER
            if verdict is not want:
                mismatches.append((instance, z.to_mapping(), expected, verdict.value))
            points += 1
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    _report(
        7,
        "order-interval grid enumeration",
        ok,
        f"20 instances, {points} grid points, {len(mismatches)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_8_non_singleton_evidence():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    config = ProbeConfig()
    failures = []
    for instance in range(20):
        m_size = int(rng.integers(1, 4))
        off_size = int(rng.integers(1, 3))
        idx = [int(i) for i in rng.choice(np.arange(1, 9), size=m_size + off_size, replace=False)]
        M = frozenset(idx[:m_size])
        xbar = SparseVector({i: float(rng.uniform(0.5, 2.0)) for i in M})
        y = SparseVector(
            {i: float(rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))) for i in idx[:m_size]}
            | {i: float(rng.uniform(0.4, 2.0)) for i in idx[m_size:]}
        )
        desc = l2_cone.coderivative(xbar, M, y)
        if desc.is_singleton:
            failures.append(f"{instance}: unexpectedly singleton")
            continue
        members = desc.example_members(limit=4)
        distinct = len(set(members))
        if distinct < 2:
            failures.append(f"{instance}: only {distinct} members")
            continue
        for z in members[:2]:
            if desc.contains(z) is not True:
                failures.append(f"{instance}: listed member rejected symbolically")
                continue
            verdict = membership(l2_cone.project, xbar, y, z, config).verdict
            if verdict is not Verdict.MEMBER:
                failures.append(f"{instance}: oracle said {verdict.value}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(
        8,
        "non-singleton coderivative evidence",
        ok,
        f"20 instances, 2 confirmed members each, {failures or 'all confirmed'}, {elapsed:.2f}s",
    )
