import dataclasses
import functools
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types
from dataclasses import dataclass, field

import numpy as np
import pytest

from varproj import l2_cone, oracle, orthant, suites, vectors
from varproj.ball import BallProjection
from varproj.oracle import (
    ProbeConfig,
    Verdict,
    _form,
    directional_quotient,
    jacobian_fd,
    membership,
    quotient,
)
from varproj.vectors import SparseVector, as_vector, is_zero, norm, orth_decompose

# the properties that must hold under any probe plan run under two: the
# default radii, and five radii that reach a decade further each way
_RADII = pytest.mark.parametrize("radii", [(1e-2, 1e-3, 1e-4), (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)],
                                 ids=["three-radii", "five-radii"])

def _reference_membership(f, xbar, y, z, config):
    """Per-probe scalar loop the batched oracle replaced; returns (verdict, sups).

    Every probe goes through the public ``quotient``, in the order the
    batched path scores them: structured directions, then seeded random
    ones, drawn once, one vector at a time, a draw shorter than 1e-12
    drawn again until there are ``random_directions`` of them, and probed
    at every radius.
    """
    if isinstance(xbar, np.ndarray):
        xbar, y, z = as_vector(xbar), as_vector(y), as_vector(z)
    sparse = isinstance(xbar, SparseVector)
    if sparse:
        active = sorted(xbar.support | y.support | z.support)
        axes = active + [(active[-1] + 1) if active else 1]
        basis = [SparseVector.basis(i) for i in axes]
    else:
        axes = range(xbar.shape[0])
        basis = list(np.eye(xbar.shape[0]))

    def unit(v):
        length = norm(v)
        return v * (1.0 / length) if sparse else v / length

    structured = []
    anchors = [xbar] if not is_zero(xbar) else []
    for v in (y, z):
        if not is_zero(v):
            anchors.append(v)
            if not is_zero(xbar):
                o = orth_decompose(xbar, v).o
                if norm(o) > 1e-13 * norm(v):
                    anchors.append(o)
    for v in anchors + basis:
        structured += [unit(v), -unit(v)]
    rng = np.random.default_rng(config.seed)
    dirs = list(structured)
    while len(dirs) < len(structured) + config.random_directions:
        values = rng.standard_normal(len(axes))
        length = float(np.linalg.norm(values))
        if length < 1e-12:
            continue
        values = values / length
        dirs.append(SparseVector(dict(zip(axes, values))) if sparse else values)
    sups = [max(quotient(f, xbar, y, z, xbar + t * d) for d in dirs) for t in config.radii]
    tol = config.tolerance
    if sups[-1] > tol:
        verdict = Verdict.NON_MEMBER
    elif all(max(b, 0.0) <= max(a, 0.0) + tol for a, b in zip(sups, sups[1:])):
        verdict = Verdict.MEMBER
    else:
        verdict = Verdict.INCONCLUSIVE
    return verdict, sups


def _assert_matches_reference(f, xbar, y, z, config):
    out = membership(f, xbar, y, z, config)
    verdict, sups = _reference_membership(f, xbar, y, z, config)
    assert out.verdict is verdict
    for (_, got), want in zip(out.sup_estimates, sups):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    if out.verdict is Verdict.NON_MEMBER:
        w = out.witness
        again = quotient(f, xbar, y, z, xbar + w.radius * w.direction)
        assert again == w.quotient == out.sup_estimates[-1][1]


class TestProbeConfig:
    def test_defaults(self):
        c = ProbeConfig()
        assert c.radii == (1e-2, 1e-3, 1e-4)
        assert c.random_directions == 256 and c.seed == 0 and c.tolerance == 1e-3

    def test_the_quotient_has_one_denominator(self):
        # ||u - xbar|| + ||f(u) - f(xbar)||, with no field that picks another
        assert [f.name for f in dataclasses.fields(ProbeConfig)] == ["radii", "random_directions", "seed", "tolerance"]
        with pytest.raises(TypeError):
            ProbeConfig(denominator="sum")

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError):
            ProbeConfig(radii=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            ProbeConfig(radii=(1e-3, 1e-3))
        with pytest.raises(ValueError):
            ProbeConfig(radii=())

    def test_validation(self):
        for kwargs in ({"tolerance": 0.0}, {"tolerance": math.inf}, {"tolerance": math.nan},
                       {"random_directions": -1},
                       {"radii": (math.inf, 1e-2)}, {"radii": (1e-2, math.nan)}):
            with pytest.raises(ValueError):
                ProbeConfig(**kwargs)
        for count in (1.5, 256.0, True, "8", None):
            with pytest.raises(TypeError, match="random_directions must be an integer"):
                ProbeConfig(random_directions=count)
        # a numpy integer is an integer, as for the seed
        assert ProbeConfig(random_directions=np.int64(8)) == ProbeConfig(random_directions=8)

    def test_seed_must_be_nonnegative(self):
        for seed in (-1, np.int64(-1)):
            with pytest.raises(ValueError, match="^seed must be nonnegative$"):
                ProbeConfig(seed=seed)
        assert ProbeConfig(seed=np.int64(0)) == ProbeConfig()

    def test_radii_and_tolerance_must_be_real_numbers(self):
        for kwargs in ({"radii": (1e-2, "1e-3")}, {"radii": (True,)}, {"radii": (1e-2, None)},
                       {"tolerance": "1e-3"}, {"tolerance": True}, {"tolerance": None}):
            with pytest.raises(TypeError, match="must be real numbers"):
                ProbeConfig(**kwargs)
        config = ProbeConfig(radii=(1, 0.5), tolerance=np.float32(0.5))
        assert config.radii == (1.0, 0.5) and all(type(t) is float for t in config.radii)
        assert type(config.tolerance) is float

    def test_numpy_radii_print_as_floats(self):
        config = ProbeConfig(radii=tuple(np.array([1e-2, 1e-3, 1e-4])))
        out = membership(BallProjection(1.0).project, [3, 4], [1, 0], [5, 5], config).to_json()
        assert list(out["sup_estimates"]) == ["0.01", "0.001", "0.0001"]

    def test_an_array_or_list_of_radii_is_a_tuple_of_floats(self):
        # and so a hashable config, equal to the default's
        want = ProbeConfig()
        for radii in (np.array([1e-2, 1e-3, 1e-4]), [1e-2, 1e-3, 1e-4]):
            config = ProbeConfig(radii=radii, tolerance=np.float64(1e-3))
            assert config == want and hash(config) == hash(want)
            assert all(type(t) is float for t in config.radii) and type(config.tolerance) is float


class TestQuotient:
    def test_zero_everything(self):
        q = quotient(
            orthant.project, np.array([1.0, 1.0]), np.zeros(2), np.zeros(2), np.array([1.0, 1.001])
        )
        assert q == 0.0

    def test_radial_ball_probe_frozen(self):
        op = BallProjection(1.0)
        q = quotient(
            op.project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.0, 0.0]), np.array([1.001, 0.0])
        )
        assert q == 1.0

    def test_corner_probe_frozen(self):
        xbar = np.array([0.0, -1.0])
        q = quotient(orthant.project, xbar, xbar, np.zeros(2), np.array([0.0, -1.0 + 1e-3]))
        assert q == 0.0

    def test_rejects_base_point_probe(self):
        with pytest.raises(ValueError):
            quotient(orthant.project, np.ones(2), np.ones(2), np.ones(2), np.ones(2))

    def test_one_denominator(self):
        # (<z, du> - <y, df>) / (||du|| + ||df||); no argument picks another
        xbar, y, z, u = np.array([1.0, -1.0]), np.array([2.0, 1.0]), np.array([1.0, 3.0]), np.array([1.5, -0.5])
        assert quotient(orthant.project, xbar, y, z, u) == (2.0 - 1.0) / (math.sqrt(0.5) + 0.5)
        with pytest.raises(TypeError):
            quotient(orthant.project, xbar, y, z, u, "sum")

    def test_overflowing_step_raises_with_no_warning(self):
        # u and xbar are finite but u - xbar is not: the ValueError of the
        # checked step, with no overflow warning first (warnings are errors here)
        with pytest.raises(ValueError, match="vector entries must be finite"):
            quotient(orthant.project, [-1e308, 0.0], [1.0, 0.0], [1.0, 0.0], [1e308, 0.0])

    def test_vanished_probe_names_the_base_norm(self):
        xbar = np.array([1e13, 0.0])
        with pytest.raises(ValueError, match=r"\|\|xbar\|\| = 1e\+13"):
            quotient(orthant.project, xbar, np.zeros(2), np.zeros(2), xbar + np.array([1e-4, 0.0]))


class TestMembership:
    def test_member_verdict_interior(self):
        op = BallProjection(1.0)
        xbar = np.array([0.2, 0.1])
        y = np.array([0.4, -0.3])
        out = membership(op.project, xbar, y, y.copy(), ProbeConfig())
        assert out.verdict is Verdict.MEMBER
        assert out.witness is None

    def test_non_member_with_witness(self):
        op = BallProjection(1.0)
        xbar = np.array([1.0, 0.0])
        out = membership(op.project, xbar, np.zeros(2), np.array([1.3, 0.0]), ProbeConfig())
        assert out.verdict is Verdict.NON_MEMBER
        w = out.witness
        assert w is not None and w.radius == 1e-4
        # the witness re-evaluates to the stored quotient through the public entry point
        again = quotient(op.project, xbar, np.zeros(2), np.array([1.3, 0.0]), xbar + w.radius * w.direction)
        assert again == w.quotient
        assert w.quotient > out.tolerance

    def test_determinism(self):
        op = BallProjection(1.0)
        xbar = np.array([1.0, 0.0, 0.0])
        y = np.array([0.3, 0.4, 0.0])
        cfg = ProbeConfig(seed=123)
        a = membership(op.project, xbar, y, np.zeros(3), cfg)
        b = membership(op.project, xbar, y, np.zeros(3), cfg)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_sparse_instance(self):
        xbar = SparseVector({1: 1.0})
        y = SparseVector({1: 0.4, 2: -0.7})
        out = membership(l2_cone.project, xbar, y, y, ProbeConfig())
        assert out.verdict is Verdict.NON_MEMBER
        assert out.witness.quotient == pytest.approx(0.7, rel=1e-9)

    def test_vanished_probe_names_radius_and_base_norm(self):
        # the absolute radius 1e-4 is below the spacing of doubles near 1e13
        with pytest.raises(ValueError, match=r"radius 0\.0001 .*\|\|xbar\|\| = 1e\+13"):
            membership(BallProjection(1).project, [1e13, 0], [0, 0], [0, 0])

    def test_vanished_probe_is_named_at_its_first_radius(self):
        # the axis probe along -7e14 rounds back from radius 0.06 (half the
        # spacing there is 0.0625), the probe rows only from 1e-5
        with pytest.raises(ValueError, match=r"radius 0\.06 "):
            membership(orthant.project, [-6e7, -7e14], [0, 0], [0, 0],
                       ProbeConfig(radii=(1.0, 0.06, 1e-5), random_directions=2))

    def test_large_base_point_answers_at_the_default_radii(self):
        # half the spacing of doubles at 1e12 is 6.1e-5, below the smallest default radius
        out = membership(orthant.project, [1e12, 1.0], [1.0, -1.0], [0.5, 0.0])
        assert out.verdict is Verdict.NON_MEMBER and out.sup_estimates[-1] == (1e-4, 0.5)

    @pytest.mark.parametrize("f, y, z, want", [
        (orthant.project, [0.2, 0.3, -0.1], [0.5, 0.3, 0.0], Verdict.NON_MEMBER),
        (orthant.project, [1.0, -0.5, 0.25], [0.5, -0.5, 0.0], Verdict.NON_MEMBER),
        (BallProjection(1.0).project, [0.2, 0.3, -0.1], [0.2, 0.3, -0.1], Verdict.MEMBER),
    ])
    def test_radii_whose_squares_underflow(self, f, y, z, want):
        # below about 1.5e-154 the squares of a probe step underflow; the
        # rescued norms see the same quotients as the default radii, since
        # both sets are positively homogeneous near the origin
        tiny = membership(f, np.zeros(3), y, z, ProbeConfig(radii=(1e-165, 1e-170)))
        plain = membership(f, np.zeros(3), y, z)
        assert tiny.verdict is plain.verdict is want
        for (_, a), (_, b) in zip(tiny.sup_estimates, plain.sup_estimates):
            assert abs(a - b) <= 1e-12

    def test_list_images_are_read_as_vectors(self):
        # f(xbar) and every image of an f that returns lists are read as
        # vectors of xbar's length, so the verdicts are those of the same map
        # returning arrays, and a witness re-evaluates exactly through quotient
        f = lambda u: list(np.maximum(np.asarray(u), 0.0))
        xbar, y = np.array([1.0, -1.0]), np.array([1.0, 1.0])
        for z, want in (([1.0, 0.0], Verdict.MEMBER), ([1.0, 0.6], Verdict.NON_MEMBER),
                        ([3.0, 0.0], Verdict.NON_MEMBER)):
            out = membership(f, xbar, y, z)
            assert out.verdict is want
            assert json.dumps(out.to_json(), sort_keys=True) == _verdict_json(lambda u: orthant.project(u), xbar, y, z)
            if out.witness is not None:
                w = out.witness
                assert quotient(f, xbar, y, z, xbar + w.radius * w.direction) == w.quotient
        assert quotient(f, xbar, y, [3.0, 0.0], xbar + [1e-4, 0.0]) == 1.0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_no_random_directions(self, seed):
        # the head rows and the axis probes alone: a ball, a formless orthant
        # map (its axis probes scored as full rows) and l2-cone queries agree
        # with the closed forms, and every witness re-evaluates exactly
        config = ProbeConfig(random_directions=0)
        rng = np.random.default_rng(seed)
        hidden = lambda u: orthant.project(u)
        cases = [(case, case.project) for case in suites.ball_membership_cases(rng, per_family=1)]
        cases += [(case, hidden) for case in suites.orthant_membership_cases(rng, per_family=1)]
        cases += [(case, case.project) for case in suites.l2_membership_cases(rng, per_family=1)]
        for case, f in cases:
            out = membership(f, case.xbar, case.y, case.z, config)
            assert out.verdict is (Verdict.MEMBER if case.expected else Verdict.NON_MEMBER), case.label
            if out.witness is not None:
                w = out.witness
                assert quotient(f, case.xbar, case.y, case.z, case.xbar + w.radius * w.direction) == w.quotient
        case = cases[0][0]
        assert _kept_plan_of(case.project, case.xbar, case.y, case.z, config).random is None

    def test_sup_estimates_track_radii(self):
        op = BallProjection(1.0)
        out = membership(op.project, np.array([0.5, 0.0]), np.ones(2), np.ones(2), ProbeConfig())
        assert tuple(r for r, _ in out.sup_estimates) == (1e-2, 1e-3, 1e-4)

    def test_json_shape(self):
        op = BallProjection(1.0)
        out = membership(op.project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.3, 0.0]), ProbeConfig())
        j = out.to_json()
        assert j["verdict"] == "non_member"
        assert set(j["sup_estimates"]) == {"0.01", "0.001", "0.0001"}
        assert j["witness"]["radius"] == 1e-4

    def test_a_quotient_that_rises_and_falls_again_is_inconclusive(self):
        # f dips to -0.002 |u| on 5e-4 < |u| < 5e-3 only, so the quotient
        # 0.002 t / (t + 0.002 t) = 0.002 / 1.002 exceeds the tolerance at
        # the middle radius alone: no witness persists, and the suprema rise
        def f(u):
            a = abs(float(u[0]))
            return np.array([-0.002 * a if 5e-4 < a < 5e-3 else 0.0])

        out = membership(f, np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert out.verdict is Verdict.INCONCLUSIVE and out.witness is None
        assert out.sup_estimates == ((1e-2, 0.0), (1e-3, 0.001996007984031936), (1e-4, 0.0))

    def test_suprema_agree_on_a_linear_piece(self):
        # near an orthant point with no coordinate within reach of a radius,
        # and near a ball interior point, P is linear, so a quotient depends
        # on the direction alone; every radius probes the same directions, so
        # the suprema of all radii agree to rounding (the random winner of
        # one radius wins at every radius)
        config = ProbeConfig(seed=3)
        rng = np.random.default_rng(29)
        random_wins = 0
        for m in (2, 6, 50, 500):
            u = rng.standard_normal(m)
            x_orth = rng.uniform(0.05, 1.0, m) * rng.choice((-1.0, 1.0), m)
            x_orth[0], x_orth[1] = abs(x_orth[0]), -abs(x_orth[1])
            y, v = rng.uniform(-1.0, 1.0, m), rng.standard_normal(m)
            v /= norm(v)
            assert np.abs(x_orth).min() > config.radii[0]
            for f, x, z in ((BallProjection(1.0).project, 0.5 * u / norm(u), y + 0.5 * v),
                            (orthant.project, x_orth, np.where(x_orth > 0.0, y, 0.0) + 0.5 * v)):
                out = membership(f, x, y, z, config)
                assert out.verdict is Verdict.NON_MEMBER
                sups = [s for _, s in out.sup_estimates]
                assert all(abs(s - sups[0]) <= 1e-9 * abs(sups[0]) for s in sups), (m, sups)
                dirs = oracle._random_dirs(config.seed, config.random_directions, m)
                random_wins += any(np.array_equal(out.witness.direction, d) for d in dirs)
        # the random winners at m = 2 and 6
        assert random_wins >= 3


def _round_back_points(rng, m):
    """Base points of every scale from 1e-330 (zero) to 1e300: Gaussian, with zeros, +-2^k, subnormal, mixed."""
    for e in range(-330, 301, 10):
        x = rng.standard_normal(m) * 10.0**e
        yield x
        yield np.where(np.arange(m) % 2 == 0, 0.0, x)
        yield np.ldexp(rng.choice((-1.0, 1.0), m), rng.integers(-1074, 1024, m))
        x = x.copy()
        x[0] = 10.0**min(e + 30, 300)
        yield x
    yield 5e-324 * rng.integers(0, 4, m) * rng.choice((-1.0, 1.0), m)
    yield np.zeros(m)


class TestRoundBackFloor:
    def test_no_unit_probe_above_the_floor_rounds_back(self):
        # the floor is sound: no random, axis, head or adversarial unit probe
        # rounds back to x0 at any radius above it; and it is tight: the
        # direction |spacing(x0)| / ||spacing(x0)||, signed away from 0,
        # rounds back at 0.98 times the floor wherever the subnormal term
        # is small beside ||spacing(x0)|| / 2
        rng = np.random.default_rng(5)
        probes = tight = 0
        for m in (1, 2, 3, 6, 50):
            dirs = np.concatenate([oracle._random_dirs(3, 64, m), np.eye(m), -np.eye(m)])
            for x0 in _round_back_points(rng, m):
                floor = oracle._round_back_floor(x0)
                spacing = np.abs(np.spacing(x0))
                adverse = np.where(x0 < 0.0, -1.0, 1.0) * spacing / vectors.norm(spacing)
                head = oracle._structured_head(x0, rng.standard_normal(m), x0 + spacing)
                rows = np.concatenate([dirs, np.reshape(head, (-1, m)), [adverse, -adverse]])
                for t in (np.nextafter(floor, math.inf), floor * (1.0 + 2.0**-30), 2.0 * floor):
                    moved = ((x0 + t * rows) - x0).any(axis=1)
                    assert moved.all(), (m, x0, t, rows[~moved])
                    probes += len(rows)
                if math.sqrt(m) * 2.0**-1074 <= 0.005 * vectors.norm(spacing):
                    assert not ((x0 + 0.98 * floor * adverse) - x0).any(), (m, x0)
                    tight += 1
        assert probes > 350_000 and tight > 1000

    @pytest.mark.parametrize("x0", [np.array([1e13, -3.0]), np.array([0.0, 2e-310, 5e-324]), np.zeros(2)],
                             ids=["large", "subnormal", "zero"])
    def test_the_floor_is_refused_and_the_next_radius_answers(self, x0):
        floor = oracle._round_back_floor(x0)
        y, z = np.ones(x0.size), np.zeros(x0.size)
        with pytest.raises(ValueError, match=rf"a probe at radius {re.escape(repr(floor))} rounds back"):
            membership(orthant.project, x0, y, z, ProbeConfig(radii=(4.0 * floor, floor)))
        out = membership(orthant.project, x0, y, z, ProbeConfig(radii=(np.nextafter(floor, math.inf),)))
        assert out.verdict in tuple(Verdict)

    def test_project_formless_and_sparse_raise_alike(self):
        # a set's project, its formless lambda and the sparse embedding of the
        # same point refuse the same radius with the same message
        rng = np.random.default_rng(13)
        for scale in (1e12, 3e12, 1e13, 3e13, 1e15):
            x, y, z = scale * rng.uniform(0.5, 1.0, 4), rng.standard_normal(4), rng.standard_normal(4)
            errors = []
            queries = [(BallProjection(1.0).project, x, y, z), (lambda u: BallProjection(1.0).project(u), x, y, z),
                       (orthant.project, x, y, z), (lambda u: orthant.project(u), x, y, z),
                       (l2_cone.project, *(SparseVector(dict(enumerate(v.tolist(), 1))) for v in (x, y, z)))]
            for f, *query in queries:
                with pytest.raises(ValueError, match="rounds back to xbar") as info:
                    membership(f, *query)
                errors.append(str(info.value))
            assert len(set(errors)) == 1, errors

    def test_no_entry_of_the_last_row_exceeds_the_last_supremum(self):
        # just above the floor the direction form scores the exact probe and
        # the witness the rounded one, which differ by O(1): the last
        # supremum is at least every head and axis probe's quotient, and every
        # random direction's entry above it was scored again on its rounded
        # probe, to at most it (all within 1e-9 of max(|s|, tolerance));
        # the witness re-evaluates to it
        rng = np.random.default_rng(7)
        rescored = 0
        for _ in range(60):
            x, y, z = rng.uniform(0.5, 1.0, 3) * rng.choice((-1e12, 1e12), 3), *rng.standard_normal((2, 3))
            x[rng.integers(3)] = rng.standard_normal()
            floor = oracle._round_back_floor(x)
            config = ProbeConfig(radii=(4.0 * floor, rng.uniform(1.01, 1.5) * floor), random_directions=64)
            out = membership(orthant.project, x, y, z, config)
            t, s = out.sup_estimates[-1]
            top = s + 1e-9 * max(abs(s), config.tolerance)
            plan = oracle._plan(oracle._base(orthant.project, x, x, None, config), orthant.project, y, y, None)
            rows = [*np.eye(3), *-np.eye(3), *oracle._structured_head(x, y, z)]
            assert top >= max(quotient(orthant.project, x, y, z, x + t * d) for d in rows)
            entries = oracle._quotients(z, *plan.random)[-1]
            rounded = np.array([quotient(orthant.project, x, y, z, x + t * d) for d in plan.base.dirs])
            assert top >= np.minimum(entries, rounded).max()
            rescored += entries.max() > top
            if out.witness is not None:
                assert quotient(orthant.project, x, y, z, x + t * out.witness.direction) == s
        assert rescored > 10

    def test_large_base_point_reports_the_largest_rounded_quotient(self):
        # at xbar = (1e12, 1) and radius 9e-5 a probe's first coordinate
        # rounds to a step of 0 or +-1.2e-4: the last supremum is the largest
        # quotient of the rounded probes, and the first radius's that of the
        # exact ones
        x, y, z = np.array([1e12, 1.0]), np.array([1.0, -1.0]), np.array([0.5, 0.0])
        out = membership(orthant.project, x, y, z, ProbeConfig(radii=(1e-4, 9e-5)))
        rows = [*oracle._random_dirs(0, 256, 2), *np.eye(2), *-np.eye(2), *oracle._structured_head(x, y, z)]
        assert out.sup_estimates[-1][1] == max(quotient(orthant.project, x, y, z, x + 9e-5 * d) for d in rows)
        assert out.sup_estimates[0][1] > 0.558 and out.verdict is Verdict.NON_MEMBER


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("seed", [3, 4])
    @_RADII
    def test_membership_corpora(self, seed, radii):
        rng = np.random.default_rng(seed)
        cases = (
            suites.ball_membership_cases(rng, per_family=1)
            + suites.orthant_membership_cases(rng, per_family=1)
            + suites.l2_membership_cases(rng, per_family=1)
        )
        config = ProbeConfig(radii=radii, random_directions=64, seed=seed)
        for case in cases:
            _assert_matches_reference(case.project, case.xbar, case.y, case.z, config)

    def test_order_interval_grids(self):
        # the first two grids of acceptance criterion 7, one per template variant
        rng = np.random.default_rng(707)
        config = ProbeConfig(random_directions=32, seed=7)
        for variant in (0, 1):
            m_size, off_size = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            xbar, _, y, grid = suites.order_interval_grid(rng, m_size, off_size, variant=variant)
            for z in grid:
                _assert_matches_reference(l2_cone.project, xbar, y, z, config)

    def test_sparse_image_off_probe_axes(self):
        x1 = SparseVector({1: 1.0})
        x13 = SparseVector({1: 1.0, 3: -0.5})
        for xbar, y, z in (
            (x13, SparseVector({2: 0.7, 4: -0.2}), SparseVector({1: 0.7})),
            (x13, SparseVector({2: 0.7}), SparseVector({1: 0.9, 3: 0.3})),
            # the probe +e_2 moves f(u) at index 3, which is no probe axis:
            # the limsup is 1/2, not the 1 that ignoring index 3 would give
            (x1, SparseVector({}), SparseVector({2: 1.0})),
        ):
            _assert_matches_reference(_shift, xbar, y, z, ProbeConfig(random_directions=64))
        assert membership(_shift, x1, SparseVector({}), SparseVector({2: 1.0})).witness.quotient == 0.5

    def test_radii_whose_squares_overflow(self):
        # probe steps of 1e198 and 1e197, whose plain norms are inf
        xbar, ones = np.array([6e199, -8e199]), np.ones(2)
        config = ProbeConfig(radii=(1e198, 1e197), random_directions=4)
        _assert_matches_reference(BallProjection(1e200).project, xbar, ones, ones, config)
        sups = membership(BallProjection(1e200).project, xbar, ones, ones, config).sup_estimates
        assert [repr(s) for _, s in sups] == ["0.0", "0.0"]


def _shift(x):
    """A sparse map with no row form whose output lies partly off the probed axes: every index moves up by one."""
    return SparseVector({i + 1: v for i, v in x.positive_part().items()})


def _golden_queries():
    """Seeded ball and orthant queries at n 2, 6, 50 and 500, signed zeros at n 1, and a sparse l2-cone query."""
    rng = np.random.default_rng(2024)
    ball = BallProjection(1.0)
    out = []
    for n in (2, 6, 50, 500):
        # norms and products in the fixed order of vectors._dot, so the inputs hold on every BLAS kernel
        u = rng.standard_normal(n)
        u /= norm(u)
        y = rng.standard_normal(n)
        v = rng.standard_normal(n)
        x = 2.0 * u
        ay = 0.5 * (y - vectors._dot(y, u) * u)
        out += [(f"ball/n{n}/exterior", ball.project, x, y, ay),
                (f"ball/n{n}/exterior-off", ball.project, x, y, ay + 0.5 * v / norm(v))]
        x = rng.uniform(0.1, 1.0, n) * rng.choice((-1.0, 1.0), n)
        z = np.where(x > 0.0, y, 0.0)
        out.append((f"orthant/n{n}/mixed", orthant.project, x, y, z + 0.3 * v / norm(v)))
        x = np.where(rng.random(n) < 0.3, 0.0, x)
        x[0] = 0.0
        out.append((f"orthant/n{n}/corner", orthant.project, x, y, np.where(x > 0.0, y, 0.0) + np.eye(n)[0]))
    # no structured probe, so an axis probe wins; its <z, u - xbar> sums zero products to +0.0
    out.append(("ball/n1/signed-zeros", ball.project, np.array([-0.0]), np.array([-0.0]), np.array([-0.0])))
    out.append(("l2_cone/sparse", l2_cone.project, SparseVector({1: 1.0, 3: -0.5}),
                SparseVector({1: 0.4, 2: -0.7}), SparseVector({1: 0.4, 2: 0.3})))
    return out


def _golden_digest(f, xbar, y, z):
    out = membership(f, xbar, y, z, ProbeConfig(seed=5))
    return hashlib.sha256(json.dumps(out.to_json(), sort_keys=True).encode()).hexdigest()[:16]


# First 16 hex digits of the sha256 of each verdict's sorted JSON, recorded
# with the oracle that drew its random directions anew for every verdict and
# scored every probe as a full direction row.  Equal digests mean equal bytes:
# every sup, witness coordinate and signed zero.  The four ball/n500/exterior
# entries were recorded again when the ball's axis probes moved to the axis
# form: their sups at radii 1e-2 and 1e-3 moved by at most 5e-14, and their
# verdicts and witnesses kept their bytes.  All were recorded again when every
# inner product and square sum, of the oracle and of these inputs, moved from
# BLAS to the fixed order of vectors._dot, whose bits hold on every OpenBLAS
# kernel (before, 19 to 23 digests changed with OPENBLAS_CORETYPE): 23 changed,
# no verdict did, and no sup moved by more than 3e-12.  The two
# orthant/n500/corner entries were recorded again when row_norms moved from
# np.linalg.norm to the square sums of vectors._dot, so a row's norm is
# norm(row) bit for bit: one sup each moved, by at most 4.5e-16, and their
# verdicts and witnesses kept their bytes.  The 19 entries at n 2 to 50 whose
# random probes decide a supremum were recorded again when the random probes
# moved to the direction forms, which score the exact probe xbar + t*d where
# a row is rounded: no verdict or witness changed, no sup moved by more than
# 1.6e-13, and the n = 500, signed-zero and sparse entries kept their digests.
# These 19 and the five ROW_PATH entries at n = 50 whose random probes decide a
# supremum were recorded again when every radius came to probe one set of
# random directions: no verdict changed, every first-radius sup kept its
# bytes, and the largest move was 0.3721 -> 0.4417 (ball/n6/exterior-off,
# under a root-sum-of-squares denominator, at radius 1e-4, where the random
# direction that wins at 1e-2 now wins again).  The entries of that second
# denominator went with it; every query keeps its /sum digest.
GOLDEN = {
    "ball/n2/exterior/sum": "e324ec5a4f436cc5",
    "ball/n2/exterior-off/sum": "2fd434b6c9ee2b1f",
    "orthant/n2/mixed/sum": "39f72e3b61c7aa40",
    "orthant/n2/corner/sum": "0cc55c50fce7f5b3",
    "ball/n6/exterior/sum": "0ca054b0c9ccdd8a",
    "ball/n6/exterior-off/sum": "5e13364419df37bc",
    "orthant/n6/mixed/sum": "fe8653451c777d08",
    "orthant/n6/corner/sum": "60b308b9b5e315f4",
    "ball/n50/exterior/sum": "9d52687253afb802",
    "ball/n50/exterior-off/sum": "03e006f870efbf3f",
    "orthant/n50/mixed/sum": "dd188bfec23dd15d",
    "orthant/n50/corner/sum": "72392eb51f582a3b",
    "ball/n500/exterior/sum": "38f4f6f336d12344",
    "ball/n500/exterior-off/sum": "249bf64790fba451",
    "orthant/n500/mixed/sum": "c8a55ad1e60825d9",
    "orthant/n500/corner/sum": "c3ca208c6f17c1fc",
    "ball/n1/signed-zeros/sum": "0cc55c50fce7f5b3",
    "l2_cone/sparse/sum": "073f99bb17b440b6",
}


# The GOLDEN queries at n 50 and 500 with f behind a lambda, which hides every
# form: f is called once per row, no plan is kept, and the random and axis
# probes take the row path in chunks of _block_rows(n) rows.  Recorded with
# the oracle that streamed those chunks to the z pass one by one; the
# ball/n50/exterior-off witnesses are random rows.
ROW_PATH = {
    "ball/n50/exterior/sum": "9d52687253afb802",
    "ball/n50/exterior-off/sum": "8b48e34b1aaf71b4",
    "orthant/n50/mixed/sum": "dd188bfec23dd15d",
    "orthant/n50/corner/sum": "72392eb51f582a3b",
    "ball/n500/exterior/sum": "69642055249f2ead",
    "ball/n500/exterior-off/sum": "7303bdea7fa5aa14",
    "orthant/n500/mixed/sum": "c8a55ad1e60825d9",
    "orthant/n500/corner/sum": "c3ca208c6f17c1fc",
}


def _golden_digests(formless: bool = False) -> dict:
    """The digests of GOLDEN, or with ``formless`` those of ROW_PATH."""
    ball = BallProjection(1.0)
    hidden = {"ball": lambda u: ball.project(u), "orthant": lambda u: orthant.project(u)}
    got = {}
    for label, f, xbar, y, z in _golden_queries():
        if formless:
            if label.split("/")[1] not in ("n50", "n500"):
                continue
            f = hidden[label.split("/")[0]]
        got[f"{label}/sum"] = _golden_digest(f, xbar, y, z)
    return got


def _openblas_picks_its_kernel_at_run_time() -> bool:
    try:
        return "DYNAMIC_ARCH" in np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return False


class TestGolden:
    def test_verdicts_are_byte_identical(self):
        assert _golden_digests() == GOLDEN

    def test_row_path_verdicts_are_byte_identical(self):
        assert _golden_digests(formless=True) == ROW_PATH

    @pytest.mark.skipif(not _openblas_picks_its_kernel_at_run_time(),
                        reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, so OPENBLAS_CORETYPE "
                               "selects no kernel")
    @pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
    def test_digests_hold_on_another_openblas_kernel(self, coretype):
        # a fresh process loads OpenBLAS with the named kernel; the oracle
        # calls no BLAS routine, so every digest keeps its bytes
        tests = pathlib.Path(__file__).resolve().parent
        src = pathlib.Path(oracle.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=path)
        script = "import json, test_oracle; print(json.dumps(test_oracle._golden_digests()))"
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        assert json.loads(out.stdout) == GOLDEN

    def test_cold_and_warm_cache_agree(self, clear_kept):
        # a warm verdict reuses its kept plan (n <= 41), or else the cached directions
        for label, f, xbar, y, z in _golden_queries()[::3]:
            oracle._random_dirs.cache_clear()
            clear_kept()
            cold = _golden_digest(f, xbar, y, z)
            assert oracle._random_dirs.cache_info().misses == 1
            assert _golden_digest(f, xbar, y, z) == cold, label
            kept = oracle._kept_plan.cache_info().hits
            assert kept == (xbar.size <= 41), label
            assert oracle._random_dirs.cache_info().hits == 1 - kept, label

    def test_cached_directions_reject_writes(self):
        dirs = oracle._random_dirs(5, 256, 500)
        assert oracle._random_dirs(5, 256, 500) is dirs
        assert dirs.shape == (256, 500)
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0

    def test_directions_follow_the_generator_stream(self):
        # the first count draws of one fresh generator, probed at every radius
        count = 256
        for m in (1, 6, 41, 500):
            dirs = oracle._random_dirs(9, count, m)
            assert dirs.shape == (count, m)
            draws = np.random.default_rng(9).standard_normal((count, m))
            np.testing.assert_array_equal(dirs, draws / np.linalg.norm(draws, axis=1)[:, None])

    def test_short_draws_are_drawn_again(self, monkeypatch):
        # a draw shorter than 1e-12 is dropped, the later rows move up, and
        # the rows still lacking are drawn again, so there are always count
        # rows; the stream is unchanged when none is short
        default_rng = np.random.default_rng
        short = {(0, 1): 1e-13, (0, 3): 0.0, (1, 0): 0.0}  # (call, row) -> scale of the short draws
        sizes = []

        class ShortDraws:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                for (call, row), scale in short.items():
                    if call == len(sizes):
                        out[row] *= scale
                sizes.append(len(out))

        monkeypatch.setattr(oracle.np.random, "default_rng", ShortDraws)
        dirs = oracle._random_dirs.__wrapped__(4, 5, 3)
        monkeypatch.undo()
        # the first draw loses two rows and draws two more, of which one is short and drawn again
        assert sizes == [5, 2, 1]
        assert dirs.shape == (5, 3) and not dirs.flags.writeable
        rng = np.random.default_rng(4)
        draws = [rng.standard_normal((k, 3)) for k in sizes]
        kept = np.concatenate([draws[0][[0, 2, 4]], draws[1][1:], draws[2]])
        np.testing.assert_array_equal(dirs, kept / np.linalg.norm(kept, axis=1)[:, None])
        assert (np.linalg.norm(dirs, axis=1) > 0.5).all()
        # with no short draw the generator is read once, as for the cached directions
        sizes.clear()
        short.clear()
        monkeypatch.setattr(oracle.np.random, "default_rng", ShortDraws)
        dirs = oracle._random_dirs.__wrapped__(4, 5, 3)
        monkeypatch.undo()
        assert sizes == [5]
        np.testing.assert_array_equal(dirs, oracle._random_dirs(4, 5, 3))

    def test_seed_must_be_an_integer(self, clear_kept):
        for seed in ([5, 1], np.random.default_rng(5), True):
            with pytest.raises(TypeError, match="seed must be an integer"):
                ProbeConfig(seed=seed)
        # a numpy integer keys the plan cache, and the direction cache, as the equal int does
        args = (BallProjection(1.0).project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.3, 0.0]))
        plain = membership(*args, ProbeConfig(seed=5, random_directions=8))
        hits = oracle._kept_plan.cache_info().hits
        assert membership(*args, ProbeConfig(seed=np.int64(5), random_directions=8)).to_json() == plain.to_json()
        assert oracle._kept_plan.cache_info().hits == hits + 1
        clear_kept()
        hits = oracle._random_dirs.cache_info().hits
        assert membership(*args, ProbeConfig(seed=np.int64(5), random_directions=8)).to_json() == plain.to_json()
        assert oracle._random_dirs.cache_info().hits == hits + 1


class TestRowForm:
    def test_found_on_every_set(self):
        op = BallProjection(1.0)
        assert _form(op.project, "rows") == op.project_rows
        assert _form(orthant.project, "rows") is orthant.project_rows
        assert _form(l2_cone.project, "rows") is l2_cone.project_rows
        assert _form(lambda u: op.project(u), "rows") is None
        assert _form(op, "rows") is None

    @pytest.mark.parametrize("seed", [3, 4])
    @_RADII
    def test_row_path_matches_per_row_path(self, seed, radii):
        # the lambda hides the row form, so the oracle calls f once per row
        rng = np.random.default_rng(seed)
        cases = (
            suites.ball_membership_cases(rng, per_family=1)
            + suites.orthant_membership_cases(rng, per_family=1)
            + suites.l2_membership_cases(rng, per_family=1)
        )
        config = ProbeConfig(radii=radii, seed=seed)
        for case in cases:
            f = case.project
            rows = membership(f, case.xbar, case.y, case.z, config)
            per_row = membership(lambda u: f(u), case.xbar, case.y, case.z, config)
            assert rows.verdict is per_row.verdict, case.label
            assert json.dumps(rows.to_json()["witness"]) == json.dumps(per_row.to_json()["witness"])
            for (_, a), (_, b) in zip(rows.sup_estimates, per_row.sup_estimates):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), case.label


@dataclass(frozen=True)
class _RecordingBall(BallProjection):
    """A ball that keeps every array handed to its project and its row form, beside a copy of its bytes."""

    handed: list = field(default_factory=list, compare=False)

    def project(self, x):
        self.handed.append((x, np.asarray(x).tobytes()))
        return super().project(x)

    def project_rows(self, block):
        self.handed.append((block, block.tobytes()))
        return super().project_rows(block)


class TestHandedArrays:
    @pytest.mark.parametrize("n", [6, 500])
    def test_no_array_handed_to_f_is_written_to_after(self, n, clear_kept):
        # the head rows of every radius are formed in place before the row
        # form sees them, and u - xbar is a new array; the witness re-score
        # hands f its own probe.  A formless f sees every probe row
        clear_kept()
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        x *= 3.0 / norm(x)
        y, z = rng.standard_normal((2, n))
        ball = _RecordingBall(1.0)
        kept = []
        hidden = lambda u: kept.append((u, u.tobytes())) or orthant.project(u)
        for f in (ball.project, hidden):
            for z_k in (z, -z, z):
                membership(f, x, y, z_k)
        assert len(ball.handed) > 3 and len(kept) > 3 * n
        for v, data in ball.handed + kept:
            assert v.tobytes() == data


def _scaled(project):
    """A ``functools.wraps`` wrapper of project that maps u to 2 project(u)."""
    return functools.wraps(project)(lambda u: project(u) * 2.0)


def _module(name, source):
    """A module of the given source, built in memory."""
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


class TestFormRule:
    """A form is the ``project_<kind>`` of the owner of a ``project``: its object, or its module's namespace."""

    def test_set_functions_carry_no_attributes(self):
        assert orthant.project.__dict__ == {} and l2_cone.project.__dict__ == {}
        for f in (orthant.project, l2_cone.project):
            for kind in ("rows", "axes", "dirs"):
                assert _form(f, kind) is getattr(orthant, f"project_{kind}")

    @pytest.mark.parametrize("project", [orthant.project, l2_cone.project])
    def test_a_wraps_wrapper_has_no_form(self, project):
        wrapper = _scaled(project)
        assert wrapper.__name__ == "project" and wrapper.__module__ == project.__module__
        assert [_form(wrapper, kind) for kind in ("rows", "axes", "dirs")] == [None] * 3

    def test_a_sparse_wraps_wrapper_is_scored_as_its_plain_lambda(self):
        # the image set of 2P is {2y} here; P's forms answered member for z = y
        wrapper, plain = _scaled(l2_cone.project), lambda u: l2_cone.project(u) * 2.0
        xbar, y = SparseVector({1: 1.0, 2: 2.0}), SparseVector({1: 0.3, 2: -0.2})
        for z, want in ((y, Verdict.NON_MEMBER), (y * 2.0, Verdict.MEMBER)):
            assert membership(wrapper, xbar, y, z).verdict is want
            assert _verdict_json(wrapper, xbar, y, z) == _verdict_json(plain, xbar, y, z)

    def test_a_dense_wraps_wrapper_is_scored_as_its_plain_lambda(self):
        wrapper, plain = _scaled(orthant.project), lambda u: orthant.project(u) * 2.0
        args = (np.array([0.987, 1.009, 0.268]), np.array([0.842, -0.588, 0.702]), np.array([1.353, -0.713, 1.527]))
        assert membership(wrapper, *args).verdict is Verdict.NON_MEMBER
        assert _verdict_json(wrapper, *args) == _verdict_json(plain, *args)

    def test_a_module_project_has_the_forms_beside_it(self):
        with_rows = _module("with_rows", "import numpy as np\n"
                            "def project(x):\n    return np.maximum(x, 0.0)\n"
                            "def project_rows(block):\n    return np.maximum(block, 0.0)\n")
        assert _form(with_rows.project, "rows") is with_rows.project_rows
        assert _form(with_rows.project, "axes") is None
        alone = _module("alone", "def project(x):\n    return x\n")
        assert _form(alone.project, "rows") is None

    def test_a_wrapper_beside_the_forms_has_none(self):
        # the module holds the orthant's forms and its project, but the
        # wrapper, though named project, is not that project
        module = _module("beside", "import functools\nfrom varproj.orthant import *\n"
                         "scaled = functools.wraps(project)(lambda u: 2.0 * project(u))\n")
        assert module.scaled.__name__ == "project"
        assert _form(module.scaled, "rows") is None
        assert _form(module.project, "rows") is orthant.project_rows


def _one_stage(form, x0, y0, *probes):
    """A two-stage form's (<y0, df>, ||df||) over the probes, or None where either stage declines (see ``_form``)."""
    staged = form(x0, *probes)
    if staged is None:
        return None
    y_df = staged[1](y0)
    return None if y_df is None else (y_df, staged[0])


def _axis_images(form, x0, t, y0=None):
    """The axis form's terms for the 2m probes of x0 at radius t (y0 = x0 by default), the block and the full probe rows."""
    j, s = oracle._geometry(x0.size, (t,))[:2]
    block = (j, s, x0[j])
    moved = block[2] + block[1] * t
    return (_one_stage(form, x0, x0 if y0 is None else y0, block[0], moved), block,
            oracle._axis_rows(x0, block[0], moved))


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


class _RowsOnlyBall(BallProjection):
    """A ball whose project has the row form but no axis form."""

    project_axes = None


class TestAxisForm:
    def test_found_on_every_set(self):
        op = BallProjection(1.0)
        assert _form(op.project, "axes") == op.project_axes
        assert _form(orthant.project, "axes") is orthant.project_axes
        assert _form(l2_cone.project, "axes") is orthant.project_axes
        assert _form(lambda u: op.project(u), "axes") is None
        assert _form(_RowsOnlyBall(1.0).project, "axes") is None

    @pytest.mark.parametrize("t", [1e-2, 0.5, 2.0, 1e-300])
    def test_separable_forms_match_rows_bit_for_bit(self, t):
        # signed zeros, exact zeros after the move (0.5 - 0.5), and a
        # sparse query laid out over its probed axes; the terms are those
        # of df = b e_j, with b read from the full rows
        dense = np.array([-0.0, 0.0, 0.5, -0.5, -2.0, 3.0, 1e-300])
        sparse = SparseVector({1: 0.5, 3: -0.5, 4: 2.0})
        fx_sparse = oracle._embed(l2_cone.project(sparse).pairs, [1, 3, 4, 5])
        for f, x0, fx0 in ((orthant.project, dense, orthant.project(dense)),
                           (l2_cone.project, oracle._embed(sparse.pairs, [1, 3, 4, 5]), fx_sparse)):
            y0 = np.resize([1.5, -0.0, -2.0, 0.25], x0.size)
            (y_df, df_norm), block, u = _axis_images(_form(f, "axes"), x0, t, y0)
            df = _form(f, "rows")(u) - fx0
            b = df[np.arange(u.shape[0]), block[0]]
            np.testing.assert_array_equal(_bits(y_df), _bits(b * y0[block[0]]))
            np.testing.assert_array_equal(_bits(df_norm), _bits(np.abs(b)))
            df[np.arange(u.shape[0]), block[0]] = 0.0
            assert not _bits(df).any()

    @pytest.mark.parametrize("r", [1e-200, 1.0, 1e200])
    def test_ball_form_matches_rows(self, r):
        # x0 inside, on and outside the sphere, and far from it at norms whose
        # square is a normal double; probe radii small and crossing the sphere
        rng = np.random.default_rng(11)
        op = BallProjection(r)
        accepted = 0
        for n in (1, 2, 3, 7):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            y0 = rng.standard_normal(n)
            for rho in (0.5 * r, r, 2.0 * r, 1e-100, 1e100):
                x0 = rho * u
                for t in (1e-3 * rho, 0.6 * rho):
                    images, block, rows = _axis_images(op.project_axes, x0, t, y0)
                    with np.errstate(over="ignore"):
                        sq_norm = x0 @ x0
                    images_u, image_x = op.project_rows(rows), op.project(x0)
                    if images is None:
                        lengths = np.linalg.norm(rows / rho, axis=1) * rho
                        tiny = np.finfo(float).tiny
                        assert not (tiny <= sq_norm < np.inf) or (r / lengths).min() < tiny
                        continue
                    accepted += 1
                    df = images_u - image_x
                    # a term gathers the m entries of df, each within 4 ulp of the scale
                    scale = np.maximum(np.abs(images_u).max(axis=1), np.abs(image_x).max())
                    ulp = 4.0 * math.sqrt(n) * np.spacing(scale)
                    assert np.all(np.abs(images[0] - df @ y0) <= ulp * norm(y0))
                    assert np.all(np.abs(images[1] - vectors.row_norms(df)) <= ulp)
        assert accepted >= 16

    @pytest.mark.parametrize("case", ["origin", "tiny-sphere", "huge-norm", "scale-underflow"])
    def test_declined_block_takes_the_row_path(self, case):
        # the form declines every case but the origin, where c(xbar) = 1
        # exactly; either way the verdict is that of the full rows
        r, x0, config = {
            "origin": (1.0, np.zeros(3), ProbeConfig()),
            "tiny-sphere": (1e-200, np.array([6e-201, -8e-201]), ProbeConfig()),
            "huge-norm": (1e200, np.array([6e154, -8e154]), ProbeConfig(radii=(1e150, 1e149))),
            "scale-underflow": (1e-200, np.array([3e120, 4e120]), ProbeConfig(radii=(1e119, 1e118))),
        }[case]
        y, z = np.ones(x0.size), 0.5 * np.ones(x0.size)
        images = _axis_images(BallProjection(r).project_axes, x0, config.radii[0])[0]
        assert (images is None) == (case != "origin")
        got = membership(BallProjection(r).project, x0, y, z, config)
        want = membership(_RowsOnlyBall(r).project, x0, y, z, config)
        assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)

    def test_ball_forms_decline_an_overflowing_y_xbar(self):
        # <y, xbar> overflows though the terms, with df small, are finite
        op, x0, y0 = BallProjection(1.0), np.array([3e10, 4e10]), np.array([1e298, 1e298])
        # the first stages, which read no y, accept the probes; the y stages decline
        j, s = oracle._geometry(2, (1e-2,))[:2]
        dirs = oracle._random_dirs(0, 8, 2)
        for staged in (op.project_axes(x0, j, x0[j] + s * 1e-2), op.project_dirs(x0, dirs, np.array([[1e-2]]))):
            assert staged is not None and staged[1](y0) is None
            assert staged[1](np.ones(2)) is not None

    @pytest.mark.parametrize("r, xbar, y, z, want", [
        (1.0, [3e10, 4e10], [1e298, 1e298], [0.0, 0.0], "non_member"),
        (1e20, [1e10, 0.0], [1e300, 1e300], [1e300, 1e300], "member"),
    ], ids=["exterior", "interior"])
    def test_overflowing_y_xbar_gives_the_formless_verdict(self, r, xbar, y, z, want):
        # the forms decline, so the row path answers, with no inf or NaN supremum
        op = BallProjection(r)
        got = membership(op.project, xbar, y, z).to_json()
        assert got["verdict"] == want
        assert json.dumps(got, sort_keys=True) == _verdict_json(lambda u: op.project(u), xbar, y, z)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than a double here")
    def test_ball_terms_no_less_accurate_than_rows(self):
        # at exterior points, against an extended-precision evaluation of the
        # full rows: the closed form's <y, df> and ||df|| err no more than
        # the rows' do, or than 2 ulp of the term where the rows happen to be
        # closer (at the sphere both sit within an ulp or two of the scale,
        # which test_ball_form_matches_rows covers)
        wide = np.longdouble

        def exact_terms(r, rows, x0, y):
            def project(v):
                return (wide(r) / np.maximum(np.sqrt((v * v).sum(axis=-1)), wide(r)))[..., None] * v
            df = project(rows.astype(wide)) - project(x0.astype(wide))
            return df @ y.astype(wide), np.sqrt((df * df).sum(axis=1))

        cases = [(f.__self__, x0, y) for label, f, x0, y, _ in _golden_queries()
                 if label.startswith("ball/n") and "signed" not in label]
        # near an axis, where ||df||^2 = a^2 ||x0||^2 + 2ab x0_j + b^2 would cancel
        cases += [(BallProjection(1.0), np.array([1.7, 1e-9]), np.array([0.3, -1.1])),
                  (BallProjection(0.5), np.array([1.3, 0.7, 1e-6]), np.array([1.0, 0.2, -0.4]))]
        for op, x0, y in cases:
            for t in ProbeConfig().radii:
                closed, _, rows = _axis_images(op.project_axes, x0, t, y)
                df = op.project_rows(rows) - op.project(x0)
                tile = (df @ y, np.linalg.norm(df, axis=1))
                for got, rows_got, exact in zip(closed, tile, exact_terms(op.radius, rows, x0, y)):
                    bound = max(np.abs(rows_got - exact).max(), 2.0 * np.spacing(float(np.abs(exact).max())))
                    assert np.abs(got - exact).max() <= bound, (x0.size, t)


class _NoDirsBall(BallProjection):
    """A ball whose project has the row and axis forms but no direction form."""

    project_dirs = None


def _wide_ball(r):
    """The ball projection of the rows of a block, in np.longdouble."""
    wide = np.longdouble
    return lambda v: (wide(r) / np.maximum(np.sqrt((v * v).sum(axis=-1)), wide(r)))[..., None] * v


def _wide_orthant(v):
    return np.maximum(v, np.longdouble(0.0))


class TestDirectionForm:
    def test_found_on_every_set(self):
        op = BallProjection(1.0)
        assert _form(op.project, "dirs") == op.project_dirs
        assert _form(orthant.project, "dirs") is orthant.project_dirs
        assert _form(l2_cone.project, "dirs") is orthant.project_dirs
        assert _form(lambda u: op.project(u), "dirs") is None
        assert _form(_NoDirsBall(1.0).project, "dirs") is None

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than a double here")
    def test_terms_no_less_accurate_than_rows(self):
        # against an extended-precision evaluation of the full rows x0 + t d:
        # the form's <y, df> and ||df|| err no more than the row path's, or
        # than 2 ulp where the rows happen to be closer.  df is a difference
        # of points of norm up to s = max ||P(v)||, so an ulp of ||df|| is
        # one of s, and one of <y, df> one of ||y|| s: at the sphere ||x0||
        # itself rounds by about an ulp of r
        wide = np.longdouble
        rng = np.random.default_rng(16)
        cases = []
        for n in (2, 3, 6, 50):
            u = rng.standard_normal(n)
            u /= norm(u)
            y, z = rng.standard_normal((2, n))
            randoms = oracle._random_dirs(3, 64, n)
            # interior, sphere and exterior points; the head rows hold +-xbar,
            # where ||x0||^2 - <d, x0>^2 cancels
            for r, rho in ((1.0, 0.5), (1.0, 1.0), (2.0, 2.0), (0.5, 1.0), (1.0, 3.0)):
                x0 = rho * u
                dirs = np.concatenate([np.array(oracle._structured_head(x0, y, z)), randoms])
                cases.append((BallProjection(r), _wide_ball(r), x0, y, dirs))
            # a zero coordinate, and one that the largest radius moves across 0
            x0 = rng.uniform(0.2, 1.0, n) * rng.choice((-1.0, 1.0), n)
            x0[0], x0[-1] = 0.0, 3e-3
            cases.append((orthant, _wide_orthant, x0, y, np.concatenate([np.eye(n), -np.eye(n), randoms])))
        for op, exact_map, x0, y0, dirs in cases:
            for radius in ProbeConfig().radii:
                t = np.full(len(dirs), radius)
                got = [term[0] for term in _one_stage(op.project_dirs, x0, y0, dirs, np.array([[radius]]))]
                df = op.project_rows(x0 + t[:, None] * dirs) - op.project(x0)
                rows = (vectors._dot(df, y0), vectors.row_norms(df))
                u = x0.astype(wide) + t.astype(wide)[:, None] * dirs.astype(wide)
                exact_df = exact_map(u) - exact_map(x0.astype(wide)[None])
                exact = (exact_df @ y0.astype(wide), np.sqrt((exact_df * exact_df).sum(axis=1)))
                scale = max(norm(op.project(x0)), vectors.row_norms(df + op.project(x0)).max())
                for term, by_rows, want, ulp in zip(got, rows, exact, (norm(y0) * scale, scale)):
                    bound = max(np.abs(by_rows - want).max(), 2.0 * np.spacing(ulp))
                    assert np.abs(term - want).max() <= bound, (x0.size, radius)

    def test_each_radius_has_the_bits_of_its_own_call(self):
        # a column of radii gives, row by row, the bits of one call per
        # radius: the products of a direction are taken once for every
        # radius, and a call declines only when one of its radii alone does.
        # The orthant takes C, the coordinates within reach, at the largest
        # radius: where C holds a nonzero coordinate, a smaller radius sums
        # the terms of its own call in another order, within 1e-12 of t ||y0||
        rng = np.random.default_rng(21)
        radii_sets = [ProbeConfig().radii, (0.5, 3e-3, 1e-200)]
        cases = []
        for n in (1, 2, 6, 50):
            u, y = rng.standard_normal((2, n))
            u /= norm(u)
            dirs = np.concatenate([np.eye(n), -np.eye(n), oracle._random_dirs(8, 32, n), [u, -u]])
            # inside, at, crossing and outside the sphere, the origin, and the declines: ||x0||^2 no
            # normal double (at r 1e-200 and 1e200), c(u) underflows, and <y, x0> overflows
            for r, x0, y0 in ((1.0, 0.5 * u, y), (1.0, u, y), (1.0, 0.999 * u, y), (2.0, 3.0 * u, y),
                              (1.0, 0.0 * u, y), (1e-200, 1e-200 * u, y), (1e200, 1e155 * u, y),
                              (1e-200, 5e120 * u, y), (1.0, 5e10 * u, 1e298 * np.abs(u))):
                cases.append((BallProjection(r).project_dirs, x0, y0, dirs))
            # all positive, all negative, mixed, zero coordinates, and a
            # nonzero |x0_i| within reach of the larger radii only
            x = rng.uniform(0.2, 1.0, n) * rng.choice((-1.0, 1.0), n)
            near = x.copy()
            near[0] = 2e-3
            zeros = np.where(np.arange(n) % 3 == 0, 0.0, x)
            for x0 in (np.abs(x), -np.abs(x), x, zeros, near, np.where(np.arange(n) % 2 == 0, -1e-3, zeros)):
                cases.append((orthant.project_dirs, x0, y, dirs))
        declined = accepted = moved = 0
        for form, x0, y0, dirs in cases:
            for radii in radii_sets:
                column = np.array(radii)[:, None]
                got = _one_stage(form, x0, y0, dirs, column)
                alone = [_one_stage(form, x0, y0, dirs, column[k:k + 1]) for k in range(len(radii))]
                if got is None:
                    declined += 1
                    assert any(terms is None for terms in alone)
                    continue
                accepted += 1
                reach = np.abs(x0) <= radii[0] * (1.0 + 2.0**-40)
                in_reach = form is orthant.project_dirs and (reach & (x0 != 0.0)).any()
                for k, terms in enumerate(alone):
                    assert terms is not None
                    for term, want in zip(got, terms):
                        assert term.shape == (len(radii), len(dirs))
                        if not k or not in_reach:
                            np.testing.assert_array_equal(_bits(term[k]), _bits(want[0]))
                            continue
                        bound = 1e-12 * radii[k] * max(norm(y0), 1.0)
                        assert np.abs(term[k] - want[0]).max() <= bound, (x0, radii[k])
                        moved += (term[k] != want[0]).any()
        assert moved
        assert declined >= 16 and accepted >= 60

    def test_orthant_y_stage_sums_in_the_order_of_the_z_product(self):
        # the y stage takes <d, y on P> over the full rows, so for z = y on P
        # it has the bits of the z pass's t <d, z>, and every random-direction
        # quotient is exactly 0, where a product over the P columns alone
        # sums in another order
        rng = np.random.default_rng(32)
        config = ProbeConfig()
        x0 = rng.uniform(0.1, 1.0, 500) * rng.choice((-1.0, 1.0), 500)
        y = rng.standard_normal(500)
        z = np.where(x0 > 0.0, y, 0.0)
        dirs, t = oracle._random_dirs(config.seed, config.random_directions, 500), np.array(config.radii)[:, None]
        df_norm, y_terms = orthant.project_dirs(x0, dirs, t)
        y_df = y_terms(y)
        np.testing.assert_array_equal(_bits(y_df), _bits(t * vectors._dot(dirs, z)))
        got = oracle._quotients(z, dirs, t, y_df, t + df_norm)
        np.testing.assert_array_equal(_bits(got), _bits(np.zeros((3, 256))))

    def test_overflowing_z_product_scores_the_scaled_direction(self):
        # <d, z> overflows at |z| = 1e308 where t <d, z> does not: such an
        # entry is scored as <t d, z>, and every supremum is finite and the
        # formless path's
        x, y, z = np.array([1.0, -1.0, 1.5, -0.5, 1.0, 1.2]), np.ones(6), np.full(6, 1e308)
        got = membership(orthant.project, x, y, z)
        want = membership(lambda u: orthant.project(u), x, y, z)
        assert got.verdict is want.verdict is Verdict.NON_MEMBER
        for (t, s), (t_want, s_want) in zip(got.sup_estimates, want.sup_estimates, strict=True):
            assert t == t_want and math.isfinite(s)
            assert abs(s - s_want) <= 1e-12 * abs(s_want)

    @pytest.mark.parametrize("case", ["tiny-sphere", "huge-norm", "scale-underflow"])
    def test_declined_block_takes_the_row_path(self, case):
        # ||xbar||^2 is no normal double, or a scale r / ||u|| underflows:
        # the form declines the random rows, and the verdict is the row path's
        r, x0, config = {
            "tiny-sphere": (1e-200, np.array([6e-201, -8e-201]), ProbeConfig()),
            "huge-norm": (1e200, np.array([6e154, -8e154]), ProbeConfig(radii=(1e150, 1e149))),
            "scale-underflow": (1e-200, np.array([3e120, 4e120]), ProbeConfig(radii=(1e119, 1e118))),
        }[case]
        y, z = np.ones(x0.size), 0.5 * np.ones(x0.size)
        dirs = oracle._random_dirs(config.seed, config.random_directions, x0.size)
        assert _one_stage(BallProjection(r).project_dirs, x0, y, dirs, np.array(config.radii)[:, None]) is None
        got = membership(BallProjection(r).project, x0, y, z, config)
        want = membership(_NoDirsBall(r).project, x0, y, z, config)
        assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


@dataclass(frozen=True)
class _CountingBall(BallProjection):
    """A ball that records its row-form calls and both stages of its axis and direction forms, with probe counts."""

    calls: list = field(default_factory=list, compare=False)

    def project_rows(self, block):
        self.calls.append(("rows", len(block)))
        return super().project_rows(block)

    def project_axes(self, x0, j, moved):
        self.calls.append(("axes", len(moved)))
        return self._counted("axes y", super().project_axes(x0, j, moved))

    def project_dirs(self, x0, dirs, t):
        self.calls.append(("dirs", (t.size, len(dirs))))
        return self._counted("dirs y", super().project_dirs(x0, dirs, t))

    def _counted(self, kind, staged):
        """The first stage's result, with a y stage that records its calls."""
        if staged is None:
            return None
        df_norm, y_terms = staged

        def counted(y0):
            self.calls.append((kind, df_norm.shape))
            return y_terms(y0)

        return df_norm, counted


def _verdict_json(f, xbar, y, z, config=None):
    return json.dumps(membership(f, xbar, y, z, config).to_json(), sort_keys=True)


def _kept_plan_of(f, xbar, y, z, config):
    """The kept plan of a query, found by its key as ``membership`` finds it: a sparse one by the pairs and axes."""
    axes = oracle._axes(xbar, y, z) if isinstance(xbar, SparseVector) else None
    return oracle._kept_plan(*oracle._plan_key(f, xbar, y, axes, config))


class TestPackedPlan:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_small_verdict_calls_each_form_once(self, n):
        # interior, exterior and the origin: the base's axis probes go
        # through one first-stage call of the axis form and its 256 random
        # directions, at all three radii, through one of the direction form,
        # the plan runs each y stage once, then the head rows and the rows
        # of z of all three radii go through one row-form call; a verdict on
        # the kept plan makes only that row-form call
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for xbar in (0.5 * u, 2.0 * u, np.zeros(n)):
            op = _CountingBall(1.0)
            y, z, z_next = rng.standard_normal((3, n))
            membership(op.project, xbar, y, z)
            # +-xbar and +-orth(y) (none at the origin), +-y; then +-z, +-orth(z)
            head, z_rows = (6, 4) if xbar.any() else (2, 2)
            y_stages = [("axes y", (3 * 2 * n,)), ("dirs y", (3, 256))]
            assert op.calls == [("axes", 3 * 2 * n), ("dirs", (3, 256)), *y_stages, ("rows", 3 * (head + z_rows))]
            op.calls.clear()
            membership(op.project, xbar, y, z_next)
            assert op.calls == [("rows", 3 * (head + z_rows))]

    def test_wide_verdict_keeps_the_row_budget(self):
        # at n = 500 the plan is not kept: the base makes the first-stage
        # calls of the axis form and of the direction form (the random
        # directions at all three radii), the plan runs each y stage once,
        # then the z pass scores the only rows formed,
        # the head rows of xbar and y and the rows of z (+-z, +-orth(z)) of
        # all three radii, in one row-form call within the row budget
        rng = np.random.default_rng(500)
        x, y, z = rng.standard_normal((3, 500))
        op = _CountingBall(1.0)
        membership(op.project, x, y, z)
        assert op.calls == [("axes", 3 * 2 * 500), ("dirs", (3, 256)), ("axes y", (3 * 2 * 500,)), ("dirs y", (3, 256)),
                            ("rows", 3 * (6 + 4))]
        assert 3 * (6 + 4) <= oracle._block_rows(500)

    @pytest.mark.parametrize("n", [2, 6, 500])
    def test_matches_the_rows_only_ball(self, n):
        # inside the ball and at the origin the axis form gives the bits of
        # the full rows, which _RowsOnlyBall scores in row blocks
        rng = np.random.default_rng(n + 1)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for xbar in (0.5 * u, np.zeros(n)):
            y, z = rng.standard_normal((2, n))
            assert _verdict_json(_CountingBall(1.0).project, xbar, y, z) == \
                _verdict_json(_RowsOnlyBall(1.0).project, xbar, y, z)

    @pytest.mark.parametrize("n", [2, 6, 9, 50, 120])
    def test_packing_changes_no_bit(self, n, monkeypatch, clear_kept):
        # the row path scores the random rows in chunks of _block_rows(m)
        # rows, a chunk possibly spanning two radii (a formless f at n = 50
        # and 120 does at the default size); every chunk size must give the
        # verdicts the same bytes
        rng = np.random.default_rng(n + 2)
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        x = rng.uniform(-1.0, 1.0, n)
        queries = [(BallProjection(1.0).project, 2.0 * u), (BallProjection(1.0).project, (1.0 - 1e-3) * u),
                   (orthant.project, x), (lambda v: orthant.project(v), x)]
        configs = [ProbeConfig(seed=3), ProbeConfig(random_directions=5),
                   ProbeConfig(radii=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5), random_directions=130)]
        cases = [(f, xbar, *rng.standard_normal((2, n)), config) for f, xbar in queries for config in configs]
        # a sparse f with no row form, scored row by row through inner and norm
        sparse = [SparseVector({i + 1: v for i, v in enumerate(w) if v > -0.5}) for w in rng.standard_normal((3, n))]
        cases += [(_shift, *sparse, config) for config in configs]

        def built_anew(case):
            # a kept plan would carry one run's chunks into the other
            clear_kept()
            return _verdict_json(*case)

        want = [built_anew(case) for case in cases]
        for rows in (1, 7, 100):
            monkeypatch.setattr(oracle, "_block_rows", lambda m, rows=rows: rows)
            assert [built_anew(case) for case in cases] == want, rows


class TestQuotientTable:
    def test_a_cross_family_tie_keeps_the_head_probe(self):
        # +xbar (head row 0) and the axis probe +e_0 (index 8 at the last
        # radius) are one probe: the first in probe order wins, and a dense
        # head winner's witness is its table entry, so no half is stored
        out = membership(orthant.project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.0, 0.0]))
        assert out.verdict is Verdict.NON_MEMBER
        assert out.witness.quotient == 0.5
        np.testing.assert_array_equal(out.witness.direction, [1.0, 0.0])
        plan = oracle._kept_plan(*oracle._plan_key(orthant.project, np.array([1.0, 0.0]), np.zeros(2), None,
                                                   ProbeConfig()))
        assert plan.halves == {}


class TestPlanCache:
    @_RADII
    def test_hit_gives_the_bytes_of_a_cold_verdict(self, radii, clear_kept):
        # every z of an order-interval grid shares one (xbar, y): the first
        # verdict of a grid builds the plan, every other one finds it by the
        # pairs of xbar and y, each warm verdict on new SparseVectors of them
        rng = np.random.default_rng(707)
        config = ProbeConfig(radii=radii, random_directions=32, seed=7)
        for variant in (0, 1):
            xbar, _, y, grid = suites.order_interval_grid(rng, 2, 2, variant=variant)
            clear_kept()
            warm = [_verdict_json(l2_cone.project, SparseVector(xbar.pairs), SparseVector(y.pairs), z, config)
                    for z in grid]
            assert oracle._kept_plan.cache_info().hits == len(grid) - 1
            cold = []
            for z in grid:
                clear_kept()
                cold.append(_verdict_json(l2_cone.project, xbar, y, z, config))
            assert warm == cold

    def test_a_sparse_subclass_that_equals_every_vector_keys_by_its_pairs(self, clear_kept):
        # the key holds the pairs, never the vectors, so an __eq__ that
        # says yes to everything cannot make two base points of one support
        # share a plan: z is a member at the first and not at the second
        config = ProbeConfig(random_directions=32, seed=3)
        y, z = SparseVector({1: 0.4, 2: 0.7, 3: 0.2}), SparseVector({1: 0.4, 2: 0.3, 3: 0.2})
        xbars = [_EqualToAll({1: 1.0, 3: 0.5}), _EqualToAll({1: 1.0, 3: -0.5})]
        assert xbars[0] == xbars[1] and hash(xbars[0]) == hash(xbars[1])
        warm = [_verdict_json(l2_cone.project, xbar, y, z, config) for xbar in xbars]
        info = oracle._kept_plan.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        for xbar, want in zip(xbars, warm):
            clear_kept()
            assert _verdict_json(l2_cone.project, SparseVector(xbar.pairs), y, z, config) == want
        assert ['"member"' in w for w in warm] == [True, False]

    def test_a_hit_embeds_only_z(self, monkeypatch):
        # a plan build embeds xbar and f(xbar) for the base and y for the
        # plan; a hit finds the plan by the pairs and embeds z alone
        embedded, embed = [], oracle._embed

        def counting(pairs, axes):
            embedded.append(pairs)
            return embed(pairs, axes)

        monkeypatch.setattr(oracle, "_embed", counting)
        config = ProbeConfig(random_directions=32)
        xbar, y = SparseVector({1: 1.0, 3: 0.5}), SparseVector({1: 0.4, 2: 0.7})
        zs = [SparseVector({1: 0.4, 2: 0.3}), SparseVector({1: 0.4, 2: 0.9})]
        membership(l2_cone.project, xbar, y, zs[0], config)
        assert embedded == [xbar.pairs, l2_cone.project(xbar).pairs, y.pairs, zs[0].pairs]
        embedded.clear()
        membership(l2_cone.project, xbar, y, zs[1], config)
        assert embedded == [zs[1].pairs]
        assert oracle._kept_plan.cache_info().hits == 1
        # the plan holds its own read-only x0, which no caller's vector shares
        plan = _kept_plan_of(l2_cone.project, xbar, y, zs[1], config)
        assert not plan.base.x0.flags.writeable
        np.testing.assert_array_equal(plan.base.x0, [1.0, 0.0, 0.5, 0.0])

    def test_caller_mutation_reaches_no_kept_plan(self, clear_kept):
        ball = BallProjection(1.0)
        x, y, z = np.array([1.5, -0.5, 0.25]), np.array([0.3, 0.4, -0.2]), np.array([0.1, 0.2, 0.3])
        first = _verdict_json(ball.project, x, y, z)
        x[0], y[1] = 0.5, -3.0
        again = _verdict_json(ball.project, np.array([1.5, -0.5, 0.25]), np.array([0.3, 0.4, -0.2]), z)
        assert oracle._kept_plan.cache_info().hits == 1
        assert again == first
        # the mutated arrays key a plan of their own
        mutated = _verdict_json(ball.project, x, y, z)
        clear_kept()
        assert mutated == _verdict_json(ball.project, x, y, z) != first

    def test_signed_zeros_key_apart(self, clear_kept):
        # -0.0 and 0.0 compare equal but have other bytes and other verdicts
        y, z = np.array([1.0, -0.5]), np.array([0.5, 0.0])
        warm = [_verdict_json(orthant.project, np.array([zero, 1.0]), y, z) for zero in (-0.0, 0.0)]
        info = oracle._kept_plan.cache_info()
        assert (info.hits, info.currsize) == (0, 2)
        assert warm[0] != warm[1]
        for zero, want in zip((-0.0, 0.0), warm):
            clear_kept()
            assert _verdict_json(orthant.project, np.array([zero, 1.0]), y, z) == want

    def test_formless_f_and_unhashable_f_are_never_kept(self):
        # an instance of a non-frozen dataclass is unhashable, and a callable
        # has no form; radii given as a list make a hashable config, which
        # keys the plan of a tuple of the same floats
        ball = BallProjection(1.0)
        args = (np.array([1.5, 0.0]), np.ones(2), np.ones(2))
        config = ProbeConfig(radii=(1e-2, 1e-3))
        for f in (lambda u: ball.project(u), _UnhashableBall()):
            first = _verdict_json(f, *args, config)
            assert _verdict_json(f, *args, config) == first
        assert oracle._kept_plan.cache_info().misses == 0
        first = _verdict_json(ball.project, *args, ProbeConfig(radii=[1e-2, 1e-3]))
        assert _verdict_json(ball.project, *args, config) == first
        info = oracle._kept_plan.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_mutable_object_gets_no_stale_plan(self):
        # the bound project of a mutable object hashes by the object's
        # identity; its plan is not kept, so a changed radius is answered anew
        obj = _MutableBall(1.0)
        args = (np.array([1.5, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 0.5]))
        membership(obj.project, *args)
        obj.radius = 2.0
        out = membership(obj.project, *args)
        assert oracle._kept_plan.cache_info().misses == 0
        # inside the ball of radius 2, f is the identity near xbar: the sup is ||z - y|| / 2
        assert out.verdict is Verdict.NON_MEMBER
        assert [s for _, s in out.sup_estimates] == pytest.approx([0.25] * 3, abs=1e-12)
        assert json.dumps(out.to_json(), sort_keys=True) == _verdict_json(_MutableBall(2.0).project, *args)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_a_z_pass_changes_no_kept_plan_but_its_halves(self, sparse):
        # a z pass only reads its plan: the head rows of xbar and y are
        # scored in every pass, and only the witness halves are filled
        rng = np.random.default_rng(1818)
        config = ProbeConfig(random_directions=32, seed=5)
        if sparse:
            f = l2_cone.project
            xbar, _, y, zs = suites.order_interval_grid(rng, 2, 2, variant=0)
        else:
            f = BallProjection(1.0).project
            # inside the ball, z = y is the one member
            xbar, y = np.array([0.3, 0.4, 0.5]), np.array([1.0, -0.5, 0.25])
            zs = [y + 0.5 * rng.standard_normal(3) for _ in range(8)] + [y, np.zeros(3)]
        plan = _kept_plan_of(f, xbar, y, zs[0], config)

        def snapshot():
            r = plan.random
            scale = None if r.scale is None else r.scale.tobytes()
            return plan.head.tobytes(), plan.head.shape, r.rows.tobytes(), scale, r.y_df.tobytes(), r.den.tobytes()

        before = snapshot()
        assert not plan.head.flags.writeable and len(plan.head) > 0
        verdicts = [membership(f, xbar, y, z, config).verdict for z in zs]
        assert Verdict.NON_MEMBER in verdicts and Verdict.MEMBER in verdicts
        assert _kept_plan_of(f, xbar, y, zs[0], config) is plan
        assert snapshot() == before
        assert plan.halves

    def test_kept_plans_are_small_and_at_most_16(self):
        # at the default config a plan is kept up to m = 41, where all its
        # rows fit in one chunk; the n = 500 plan is not kept
        ball = BallProjection(1.0)
        assert oracle._plan_key(ball.project, np.ones(41), np.ones(41), None, ProbeConfig()) is not None
        assert oracle._plan_key(ball.project, np.ones(42), np.ones(42), None, ProbeConfig()) is None
        rng = np.random.default_rng(16)
        x, y, z = rng.standard_normal((3, 500))
        membership(ball.project, x, y, z)
        assert oracle._kept_plan.cache_info().misses == 0
        for k in range(20):
            membership(ball.project, x[:3] + k, y[:3], z[:3], ProbeConfig(random_directions=8))
        info = oracle._kept_plan.cache_info()
        assert (info.misses, info.currsize) == (20, 16)
        info = oracle._kept_base.cache_info()
        assert (info.misses, info.currsize) == (20, 16)

    def test_rounds_back_at_the_same_radius_on_a_hit(self):
        # 0.086 is below the floor ||spacing(x)|| / 2 = ||(0.125, 0.125)|| / 2,
        # about 0.088, whatever z is; a refused plan is never kept
        config = ProbeConfig(radii=(1.0, 0.086, 1e-5), random_directions=0)
        x, y = np.array([1e15, 1.1e15]), np.zeros(2)
        kept = oracle._kept_plan.cache_info().currsize
        for z in ([1.0, 1.0], [0.0, 0.0], [1.0, 1.0]):
            with pytest.raises(ValueError, match=r"a probe at radius 0\.086 rounds back"):
                membership(orthant.project, x, y, np.array(z), config)
        assert oracle._kept_plan.cache_info().currsize == kept
        assert oracle._kept_base.cache_info().currsize == 0


class _EqualToAll(SparseVector):
    """A SparseVector that equals every other and hashes alike, as a subclass may."""

    __slots__ = ()

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


@dataclass(frozen=True)
class _CountingBaseBall(_CountingBall):
    """A _CountingBall that also records each ``project`` call, with the bytes of its point."""

    def project(self, x):
        self.calls.append(("project", np.asarray(x, dtype=float).tobytes()))
        return super().project(x)


def _counting_forms(monkeypatch, module, calls):
    """Record each first-stage call of the axis and direction forms that ``module`` holds."""
    for kind in ("axes", "dirs"):
        form = getattr(module, f"project_{kind}")

        def first_stage(x0, *probes, kind=kind, form=form):
            calls.append(kind)
            return form(x0, *probes)

        monkeypatch.setattr(module, f"project_{kind}", first_stage)


# (f, xbar, z, the y that warms the base, the new ys): every y gives a plan of its own on the
# base of (f, xbar); the last ys make a y stage decline, through an overflowing <y, xbar> (the
# ball) or an overflowing <d, y> (every set), so the row path scores the probes it declines
_BASE_QUERIES = {
    "ball/interior": (BallProjection(1.0).project, np.array([0.3, -0.4, 0.2]), np.array([0.5, 0.1, -0.2]),
                      np.array([1.0, 0.5, -1.0]), [np.array([-0.2, 0.7, 0.1]), np.zeros(3), np.full(3, 1.7e308)]),
    "ball/sphere": (BallProjection(1.0).project, np.array([0.6, 0.0, 0.8]), np.zeros(3), np.array([0.6, 0.0, 0.8]),
                    [np.array([-0.6, 0.0, -0.8]), np.array([0.3, 1.0, -0.1])]),
    "ball/exterior-y-xbar-overflow": (BallProjection(1.0).project, np.array([3e10, 4e10]), np.zeros(2), np.ones(2),
                                      [np.array([1e298, 1e298]), np.array([-1.0, 2.0])]),
    "ball/interior-y-xbar-overflow": (BallProjection(1e20).project, np.array([1e10, 0.0]), np.array([1e300, 1e300]),
                                      np.ones(2), [np.array([1e300, 1e300])]),
    "ball/exterior-d-y-overflow": (BallProjection(1.0).project, np.array([0.1, -0.1, 0.15, -0.05, 0.1, 0.12]),
                                   np.zeros(6), np.ones(6), [np.full(6, 1.7e308), -np.ones(6)]),
    "orthant/mixed": (orthant.project, np.array([1.0, -1.0, 1.5, -0.5, 1.0, 1.2]),
                      np.array([0.5, -1.0, 0.5, -1.0, 1.0, 2.0]), np.ones(6),
                      [np.array([0.5, -1.0, -0.5, -1.0, -0.5, 1.0]), np.full(6, 1.7e308), np.full(6, -1.7e308)]),
    "orthant/corner": (orthant.project, np.array([0.0, 1.0, -1.0, 2e-3]), np.array([1.0, 0.5, 0.0, 0.3]),
                       np.array([1.0, 1.0, 1.0, 1.0]), [np.array([-1.0, 0.5, 0.2, 1.0]), np.full(4, 1.7e308)]),
    "l2_cone/interval": (l2_cone.project, SparseVector({1: 1.0, 3: 0.5}), SparseVector({1: 0.4, 2: 0.3, 3: -0.1}),
                         SparseVector({1: 0.4, 2: 0.7}),
                         [SparseVector({2: -1.0, 3: 0.5}), SparseVector({1: 1.7e308, 2: 1.7e308, 3: 1.7e308})]),
}


class TestKeptBase:
    @_RADII
    @pytest.mark.parametrize("label", sorted(_BASE_QUERIES))
    def test_a_new_y_at_a_warm_base_gives_the_bytes_of_a_cold_verdict(self, label, radii, clear_kept):
        f, xbar, z, y_warm, ys = _BASE_QUERIES[label]
        config = ProbeConfig(radii=radii)
        for y in ys:
            clear_kept()
            cold = _verdict_json(f, xbar, y, z, config)
            clear_kept()
            _verdict_json(f, xbar, y_warm, z, config)
            assert _verdict_json(f, xbar, y, z, config) == cold, y
            info = oracle._kept_base.cache_info()
            assert (info.hits, info.misses) == (1, 1)

    def test_a_declining_y_stage_takes_the_row_path(self, monkeypatch, clear_kept):
        # the first stages read no y and accept every probe here; where a y
        # stage declines, the verdict is that of f with no direction form,
        # which scores those probes (and, where the ball's axis y stage
        # declines too, the axis probes) as rows
        declined = []
        for label, (f, xbar, z, _, ys) in sorted(_BASE_QUERIES.items()):
            for y in ys:
                if isinstance(xbar, SparseVector):
                    axes = oracle._axes(xbar, y, z)
                    x0, y0 = oracle._embed(xbar.pairs, axes), oracle._embed(y.pairs, axes)
                else:
                    axes, x0, y0 = None, xbar, y
                base = oracle._base(f, oracle._point(axes, x0), x0, axes, ProbeConfig())
                assert base.axis_form is not None and base.dirs_form is not None
                if base.axis_form[0](y0) is None or base.dirs_form[0](y0) is None:
                    declined.append((label, f, xbar, y, z))
        assert sorted({label for label, *_ in declined}) == [
            "ball/exterior-d-y-overflow", "ball/exterior-y-xbar-overflow", "ball/interior",
            "ball/interior-y-xbar-overflow", "l2_cone/interval", "orthant/corner", "orthant/mixed"]
        got = [_verdict_json(*query[1:]) for query in declined]
        clear_kept()
        monkeypatch.setattr(orthant, "project_dirs", None)
        monkeypatch.setattr(l2_cone, "project_dirs", None)
        for (label, f, xbar, y, z), verdict in zip(declined, got):
            if label.startswith("ball"):
                f = _NoDirsBall(f.__self__.radius).project
            assert _verdict_json(f, xbar, y, z) == verdict, label

    @pytest.mark.parametrize("n", [2, 6])
    def test_a_warm_base_calls_neither_f_of_xbar_nor_a_first_stage(self, n):
        # a new y at a kept base runs the y stages of the forms and the
        # z pass's row-form call; f(xbar) and the first stages ran once,
        # when the base was built
        rng = np.random.default_rng(n)
        xbar, y, y_next, z = rng.standard_normal((4, n))
        op = _CountingBaseBall(1.0)
        membership(op.project, xbar, y, z)
        assert op.calls.count(("project", xbar.tobytes())) == 1
        assert [c for c in op.calls if c[0] in ("axes", "dirs")] == [("axes", 3 * 2 * n), ("dirs", (3, 256))]
        op.calls.clear()
        membership(op.project, xbar, y_next, z)
        assert ("project", xbar.tobytes()) not in op.calls
        assert [c[0] for c in op.calls if c[0] != "project"] == ["axes y", "dirs y", "rows"]
        assert oracle._kept_base.cache_info().hits == 1

    @pytest.mark.parametrize("label", ["orthant/corner", "l2_cone/interval"])
    def test_a_warm_base_runs_no_first_stage_of_the_orthant_forms(self, label, monkeypatch):
        f, xbar, z, y_warm, ys = _BASE_QUERIES[label]
        calls = []
        _counting_forms(monkeypatch, orthant if f is orthant.project else l2_cone, calls)
        membership(f, xbar, y_warm, z)
        assert calls == ["axes", "dirs"]
        for y in ys:
            membership(f, xbar, y, z)
        assert calls == ["axes", "dirs"]
        info = oracle._kept_base.cache_info()
        assert (info.hits, info.misses) == (len(ys), 1)

    def test_configs_f_and_axes_that_differ_never_share_a_base(self):
        # every field of the config keys the base, as does f; a sparse query's
        # probed axes follow the supports of y and z, so they key it too
        x, y, z = np.array([0.5, -0.3, 0.2]), np.array([1.0, 0.0, -1.0]), np.array([0.2, 0.4, 0.1])
        ball = BallProjection(1.0)
        queries = [(ball.project, ProbeConfig()), (ball.project, ProbeConfig(seed=1)),
                   (ball.project, ProbeConfig(random_directions=8)), (ball.project, ProbeConfig(tolerance=1e-2)),
                   (ball.project, ProbeConfig(radii=(1e-2, 1e-3))), (BallProjection(2.0).project, ProbeConfig()),
                   (orthant.project, ProbeConfig())]
        for f, config in queries:
            membership(f, x, y, z, config)
        info = oracle._kept_base.cache_info()
        assert (info.hits, info.misses) == (0, len(queries))
        xbar = SparseVector({1: 1.0, 3: 0.5})
        for y, z in ((SparseVector({1: 1.0}), SparseVector({1: 0.5})), (SparseVector({2: 1.0}), SparseVector({1: 0.5})),
                     (SparseVector({1: 1.0}), SparseVector({4: 0.5}))):
            membership(l2_cone.project, xbar, y, z)
        info = oracle._kept_base.cache_info()
        assert (info.hits, info.misses) == (0, len(queries) + 3)
        # the same axes share one: y of {2} and z of {1} probe the axes of y of {1} and z of {2}
        membership(l2_cone.project, xbar, SparseVector({1: 1.0}), SparseVector({2: 0.5}))
        assert oracle._kept_base.cache_info().hits == 1

    def test_a_kept_base_is_read_only_to_its_plans(self):
        # plans on one base share its head rows of xbar and its first-stage
        # denominators; no plan or z pass writes to them
        x = np.array([0.5, -0.3, 0.2])
        f = BallProjection(1.0).project
        membership(f, x, np.ones(3), np.zeros(3))
        base = oracle._kept_base(f, x.tobytes(), None, ProbeConfig())
        held = (*base.head, base.axis_form[1], base.dirs_form[1])
        snapshot = [a.tobytes() for a in held]
        for y in (np.array([1.0, -2.0, 0.5]), np.zeros(3)):
            for z in (np.ones(3), -x):
                membership(f, x, y, z)
        assert [a.tobytes() for a in held] == snapshot
        # the look-up above, then one per new y
        assert oracle._kept_base.cache_info().hits == 3


@dataclass
class _UnhashableBall:
    """The unit ball's projection as a callable on a dataclass that is not frozen, so unhashable.

    Its ``rows`` method is no row form: only a ``project`` has forms (see
    ``oracle._form``), so its plan is not kept.  The bound ``project`` of
    such a class, with its forms beside it, is ``_MutableBall``: it is not
    kept either, because a bound method hashes by the identity of its
    object, so the plan key also hashes the object.
    """

    ball: BallProjection = BallProjection(1.0)

    def __call__(self, x):
        return self.ball.project(x)

    def rows(self, block):
        return self.ball.project_rows(block)


@dataclass
class _MutableBall:
    """A ball whose radius may change, with a row form beside its ``project``; not frozen, so unhashable."""

    radius: float

    def project(self, x):
        return BallProjection(self.radius).project(x)

    def project_rows(self, block):
        return BallProjection(self.radius).project_rows(block)


def _witness_queries():
    """Kept-plan queries sharing one (f, xbar, y, config) per group: two order-interval grids and small dense sets."""
    rng = np.random.default_rng(909)
    groups = []
    for variant in (0, 1):
        xbar, _, y, grid = suites.order_interval_grid(rng, 2, 2, variant=variant)
        groups.append((l2_cone.project, xbar, y, grid, 32))
    for n in (2, 4, 6):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        for f, xbar in ((BallProjection(1.0).project, u), (BallProjection(1.0).project, 2.0 * u),
                        (orthant.project, np.where(rng.random(n) < 0.3, 0.0, rng.standard_normal(n)))):
            y = rng.standard_normal(n)
            groups.append((f, xbar, y, [y + 0.5 * rng.standard_normal(n) for _ in range(12)], 16))
    return groups


def _counting_halves(monkeypatch) -> list:
    """Record the probe point u of every z-free half computed, not taken from a kept plan."""
    computed = []

    def counted(*args):
        computed.append(args[4])
        return original(*args)

    original = oracle._z_free_half
    monkeypatch.setattr(oracle, "_z_free_half", counted)
    return computed


class TestWitnessHalves:
    @_RADII
    def test_stored_half_gives_the_bytes_of_a_cold_verdict(self, radii, monkeypatch, clear_kept):
        # a warm verdict that finds its winner's half in the kept plan gives
        # the bytes of a verdict that computes it, on a plan built anew
        computed = _counting_halves(monkeypatch)
        reused = {"sparse": 0, "dense": 0}
        for f, xbar, y, zs, count in _witness_queries():
            config = ProbeConfig(radii=radii, random_directions=count, seed=4)
            clear_kept()
            computed.clear()
            warm = [_verdict_json(f, xbar, y, z, config) for z in zs]
            reused["sparse" if isinstance(xbar, SparseVector) else "dense"] += len(zs) - len(computed)
            cold = []
            for z in zs:
                clear_kept()
                cold.append(_verdict_json(f, xbar, y, z, config))
            assert warm == cold
        assert reused["sparse"] > 0 and reused["dense"] > 0

    def test_witness_reevaluates_through_quotient(self, monkeypatch):
        computed = _counting_halves(monkeypatch)
        seen = {"stored": 0, "computed": 0}
        for f, xbar, y, zs, count in _witness_queries():
            config = ProbeConfig(random_directions=count)
            for z in zs + zs:
                before = len(computed)
                out = membership(f, xbar, y, z, config)
                if out.verdict is not Verdict.NON_MEMBER:
                    continue
                seen["computed" if len(computed) > before else "stored"] += 1
                w = out.witness
                again = quotient(f, xbar, y, z, xbar + w.radius * w.direction)
                assert again == w.quotient == out.sup_estimates[-1][1]
        assert seen["stored"] > 0 and seen["computed"] > 0

    def test_writing_to_a_dense_witness_direction_changes_no_later_verdict(self):
        ball = BallProjection(1.0)
        xbar, y = np.array([0.6, 0.8]), np.array([1.0, -0.5])
        zs = [np.array([0.9, 0.3]), np.array([1.2, -0.1])]
        first = [membership(ball.project, xbar, y, z) for z in zs]
        assert all(out.verdict is Verdict.NON_MEMBER for out in first)
        want = [json.dumps(out.to_json(), sort_keys=True) for out in first]
        for out in first:
            out.witness.direction[:] = 7.0
        assert [_verdict_json(ball.project, xbar, y, z) for z in zs] == want
        assert oracle._kept_plan.cache_info().hits == 3

    def test_a_kept_plan_stores_one_half_per_probe_at_most(self):
        # the keys are the smallest-radius probes but the rows of z:
        # (0, head row of xbar or y), (1, axis probe of a radius) or
        # (2, row of the direction array, which every radius probes)
        stored = 0
        for f, xbar, y, zs, count in _witness_queries():
            config = ProbeConfig(random_directions=count)
            for z in zs:
                membership(f, xbar, y, z, config)
            plan = _kept_plan_of(f, xbar, y, zs[0], config)
            rows = {0: range(len(plan.head)), 1: range(2 * plan.base.x0.size), 2: range(count)}
            assert len(plan.halves) <= sum(map(len, rows.values()))
            stored += len(plan.halves)
            for slot, i in plan.halves:
                assert i in rows[slot]
        assert stored > 0


_BALL = BallProjection(1.0)

# queries whose winner at the smallest radius is a dense head row
_DENSE_HEAD_WINNERS = {
    # +xbar, a radial head row, wins at a sphere point, with and without y
    "ball-sphere-radial": (_BALL.project, [0.6, 0.8], [0.0, 0.0], [0.6, 0.8]),
    "ball-sphere-radial-y": (_BALL.project, [0.6, 0.8, 0.0], [0.3, -0.2, 0.1], [0.9, 1.2, 0.0]),
    # +z, a row of z, wins: y and z lie on the negative coordinates, where P is flat
    "orthant-row-of-z": (orthant.project, [1.0, -1.0, -2.0], [0.0, 0.5, 0.0], [0.0, -1.0, -2.0]),
}

# queries whose winner is anything else, with the slot of the one half a
# kept plan stores for it (None: a sparse row of z, which is never stored)
_OTHER_WINNERS = {
    # z - y = e_0 at an interior point: the axis probe +e_0
    "axis": (_BALL.project, np.array([0.1, 0.2]), np.array([1.0, 1.0]), np.array([2.0, 1.0]), 1),
    "random": (orthant.project, np.array([1.0, -1.0, -2.0]), np.zeros(3), np.array([3.0, 1.0, 0.0]), 2),
    # z - y is a multiple of xbar: the head row +xbar of a sparse query
    "sparse-head": (l2_cone.project, SparseVector({1: 1.0, 3: 0.5}), SparseVector({1: 1.0}),
                    SparseVector({1: 2.0, 3: 0.5}), 0),
    "sparse-row-of-z": (l2_cone.project, SparseVector({1: 1.0, 3: 0.5}), SparseVector(),
                        SparseVector({2: -1.0, 4: -1.5}), None),
}


class TestHeadWitness:
    """A dense head winner's witness is its table entry; every other winner is scored again."""

    @pytest.mark.parametrize("formless", [False, True], ids=["form", "formless"])
    @_RADII
    @pytest.mark.parametrize("case", sorted(_DENSE_HEAD_WINNERS))
    def test_dense_head_winner_computes_no_half(self, case, radii, formless, monkeypatch, clear_kept):
        # on a new plan and on a kept one (a formless f gets a new plan each
        # time): no z-free half is computed or stored, and the witness, a head
        # row, re-evaluates through quotient to the stored supremum
        f, xbar, y, z = _DENSE_HEAD_WINNERS[case]
        if formless:
            f = functools.partial(lambda g, u: g(u), f)
        xbar, y, z = np.array(xbar), np.array(y), np.array(z)
        config = ProbeConfig(radii=radii)
        computed = _counting_halves(monkeypatch)
        clear_kept()
        outs = [membership(f, xbar, y, z, config) for _ in range(2)]
        assert computed == []
        assert outs[0].to_json() == outs[1].to_json()
        assert oracle._kept_plan.cache_info().hits == (0 if formless else 1)
        w = outs[1].witness
        assert outs[1].verdict is Verdict.NON_MEMBER
        assert any(np.array_equal(w.direction, d) for d in oracle._structured_head(xbar, y, z))
        assert quotient(f, xbar, y, z, xbar + w.radius * w.direction) == w.quotient
        assert w.quotient == outs[1].sup_estimates[-1][1]
        if not formless:
            assert oracle._kept_plan(*oracle._plan_key(f, xbar, y, None, config)).halves == {}

    @_RADII
    @pytest.mark.parametrize("case", sorted(_OTHER_WINNERS))
    def test_other_winners_compute_one_half(self, case, radii, monkeypatch, clear_kept):
        # one half on a new plan; a kept plan then reuses it, but for the rows of z
        f, xbar, y, z, slot = _OTHER_WINNERS[case]
        config = ProbeConfig(radii=radii)
        computed = _counting_halves(monkeypatch)
        clear_kept()
        out = membership(f, xbar, y, z, config)
        assert len(computed) == 1
        assert membership(f, xbar, y, z, config).to_json() == out.to_json()
        assert len(computed) == (1 if slot is not None else 2)
        halves = _kept_plan_of(f, xbar, y, z, config).halves
        assert [key[0] for key in halves] == ([] if slot is None else [slot])
        w = out.witness
        assert out.verdict is Verdict.NON_MEMBER
        assert quotient(f, xbar, y, z, xbar + w.radius * w.direction) == w.quotient
        assert w.quotient == out.sup_estimates[-1][1]

    def test_nan_at_the_winning_head_probe_still_raises(self):
        # every probe's image is NaN; the images of an f with no row form are
        # read as vectors, so the first probe scored refuses its image
        xbar = np.array([1.0, -1.0, 0.5])

        def f(u):
            return orthant.project(u) if np.array_equal(u, xbar) else np.full(u.shape, np.nan)

        with pytest.raises(ValueError, match="vector entries must be finite"):
            membership(f, xbar, np.ones(3), np.zeros(3), ProbeConfig(random_directions=8))


# a query whose y has a norm beyond the largest double (ROADMAP item 4)
_BIG_X = np.array([1.0, -1.0, 1.5, -0.5, 1.0, 1.2])
_BIG_Y = np.full(6, 1e308)


class TestOverflowingNorms:
    """A y or z whose norm exceeds the largest double gets a verdict, on the form and the row path alike."""

    @pytest.mark.parametrize("z, want", [("zero", Verdict.NON_MEMBER), ("y", Verdict.NON_MEMBER),
                                         ("Dy", Verdict.MEMBER)])
    def test_orthant(self, z, want):
        z = {"zero": np.zeros(6), "y": _BIG_Y, "Dy": orthant.frechet(_BIG_X)(_BIG_Y)}[z]
        # the exact set is {Dy}: y on the positive coordinates
        assert orthant.coderivative(_BIG_X, _BIG_Y).contains(z) is (want is Verdict.MEMBER)
        out = membership(orthant.project, _BIG_X, _BIG_Y, z)
        assert out.verdict is want
        assert json.dumps(out.to_json(), sort_keys=True) == _verdict_json(lambda u: orthant.project(u), _BIG_X,
                                                                          _BIG_Y, z)
        if out.witness is not None:
            w = out.witness
            assert quotient(orthant.project, _BIG_X, _BIG_Y, z, _BIG_X + w.radius * w.direction) == w.quotient

    @pytest.mark.parametrize("z", ["zero", "y", "y-on-M"])
    def test_l2_cone(self, z):
        # xbar positive exactly on M = {1, 3, 5, 6} and y >= 0: the order interval
        xbar = SparseVector({1: 1.0, 3: 1.5, 5: 1.0, 6: 1.2})
        y = SparseVector({i: 1e308 for i in range(1, 7)})
        z = {"zero": SparseVector(), "y": y, "y-on-M": SparseVector({i: 1e308 for i in (1, 3, 5, 6)})}[z]
        want = l2_cone.coderivative(xbar, {1, 3, 5, 6}, y).contains(z)
        for f in (l2_cone.project, lambda u: l2_cone.project(u)):
            out = membership(f, xbar, y, z)
            assert out.verdict is (Verdict.MEMBER if want else Verdict.NON_MEMBER)

    @pytest.mark.parametrize("z, want", [("zero", Verdict.NON_MEMBER), ("y", Verdict.MEMBER)])
    def test_ball_interior(self, z, want):
        # an interior point: the exact set is {y}
        xbar, z = 0.1 * _BIG_X, {"zero": np.zeros(6), "y": _BIG_Y}[z]
        assert _BALL.coderivative(xbar, _BIG_Y).contains(z) is (want is Verdict.MEMBER)
        for f in (_BALL.project, lambda u: _BALL.project(u)):
            assert membership(f, xbar, _BIG_Y, z).verdict is want

    @pytest.mark.parametrize("point", ["orthant", "ball"])
    def test_quotients_above_the_largest_double_are_inf(self, point):
        # z = -y: every quotient exceeds the largest double, and the z pass
        # divides with numpy's overflow warning off (warnings are errors here)
        f, xbar = {"orthant": (orthant.project, _BIG_X), "ball": (_BALL.project, 0.1 * _BIG_X)}[point]
        for g in (f, lambda u: f(u)):
            out = membership(g, xbar, _BIG_Y, -_BIG_Y)
            assert out.verdict is Verdict.NON_MEMBER
            assert [s for _, s in out.sup_estimates] == [math.inf] * 3

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_overflowing_witness_quotient_is_inf(self, sign):
        # on an all-positive xbar every probe moves f(u) with u, and the
        # witness quotient exceeds the largest double: its inf entry is
        # scored again, the re-score divides with numpy's overflow warning
        # off (warnings are errors here), as the z pass does, and the witness
        # re-evaluates through quotient to the same inf
        x = np.array([1.0, 1.5, 1.0, 1.2, 0.5, 2.0])
        y, z = sign * np.full(6, 1.7e308), np.array([0.5, -1.0, 0.5, -1.0, 1.0, 2.0])
        out = membership(orthant.project, x, y, z)
        assert out.verdict is Verdict.NON_MEMBER and out.witness.quotient == math.inf
        assert [s for _, s in out.sup_estimates] == [math.inf] * 3
        u = x + out.witness.radius * out.witness.direction
        assert quotient(orthant.project, x, y, z, u) == math.inf

    def test_direction_forms_decline_an_overflowing_product(self):
        # <d, y0> overflows on the first row, though t <d, y0> does not: the
        # row path scores the probes
        dirs = np.array([[0.5, 0.0, 0.5, 0.0, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        t = np.array([[1e-2]])
        for form, x0 in ((orthant.project_dirs, _BIG_X), (_BALL.project_dirs, 0.1 * _BIG_X)):
            # the first stage reads no y: only the y stage declines
            staged = form(x0, dirs, t)
            assert staged[1](_BIG_Y) is None
            assert staged[1](np.ones(6)) is not None

    def test_head_rows_of_an_overflowing_vector(self):
        # the unit rows of v are those of v / 2^e, max|v| < 2^e: no zero rows
        head = oracle._structured_head(_BIG_X, _BIG_Y)
        half = oracle._structured_head(_BIG_X, np.ldexp(_BIG_Y, -1024))
        assert [d.tobytes() for d in head] == [d.tobytes() for d in half]
        assert len(head) == 6
        np.testing.assert_allclose([norm(d) for d in head], 1.0, rtol=1e-15)


def _plain_norm(x: np.ndarray) -> float:
    """``norm`` as it was computed before the structured head took scalars: the square sum, then the rescue."""
    length = math.sqrt(float(vectors._dot(x, x)))
    if vectors._TINY_NORM <= length < np.inf or not x.any():
        return length
    return vectors._rescaled_norm(x)


def _reference_head(xbar, y, z):
    """The structured head by the formula the scalar one replaced: is_zero, norm and orth_decompose."""
    dirs = []

    def both_ways(v):
        u = v / _plain_norm(v)
        dirs.extend((u, -u))

    if not is_zero(xbar):
        both_ways(xbar)
    for v in (y, z):
        if not is_zero(v):
            both_ways(v)
            if not is_zero(xbar):
                o = orth_decompose(xbar, v).o
                if _plain_norm(o) > 1e-13 * _plain_norm(v):
                    both_ways(o)
    return dirs


def _head_bytes(head, xbar, y, z):
    """The bytes of every direction of a head, or the type and message of what it raised."""
    try:
        return [d.tobytes() for d in head(xbar, y, z)]
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _head_cases(n: int):
    """(label, xbar, y, z) at dimension n: scales 1e-300..1e300, zeros, -0.0, parallel and strided inputs."""
    rng = np.random.default_rng(n)
    for e in range(-300, 301, 50):
        x, y, z = rng.standard_normal((3, n))
        yield f"scale/1e{e}", x * 10.0**e, y * 10.0**e, z
        yield f"mixed/1e{e}", x * 10.0**e, y, z * 10.0**-e
        yield f"zeros/1e{e}", x * 10.0**e, np.zeros(n), -np.zeros(n)
        yield f"zero-xbar/1e{e}", -np.zeros(n), y * 10.0**e, z
        block = rng.standard_normal((n, 4)) * 10.0**e
        yield f"strided/1e{e}", block[:, 0], block[:, 1], block[:, 2]
        yield f"strided-reversed/1e{e}", block[::-1, 3], block[:, 0], block[::-1, 1]
    x = rng.standard_normal(n)
    yield "parallel", x, 2.5 * x, -x
    yield "signed-zeros", -np.zeros(n), -np.zeros(n), np.zeros(n)


class TestStructuredHead:
    @pytest.mark.parametrize("n", [*range(1, 10), 50, 500])
    def test_bytes_match_the_reference(self, n):
        # 1e300 scales overflow the plain square sums, which the rescue repairs
        for label, xbar, y, z in _head_cases(n):
            want = _head_bytes(_reference_head, xbar, y, z)
            assert _head_bytes(oracle._structured_head, xbar, y, z) == want, label

    @pytest.mark.parametrize("n", [2, 6, 500])
    def test_the_block_holds_the_rows_of_the_reference(self, n):
        # one C-contiguous (2k, m) block, the rows u, -u of each part in the
        # reference's order: y parallel to xbar drops its orthogonal part
        # from the middle, and z, whose norm exceeds the largest double, is
        # taken as z / 2^e with max|z| < 2^e; the rows of y and z alone, as
        # a plan and a z pass build them, are the block past +-xbar
        rng = np.random.default_rng(n)
        x, w = rng.standard_normal((2, n))
        z = np.where(w > 0.0, 1.5e308, -1.5e308)
        assert norm(z / 2.0) * 2.0 == math.inf
        head = oracle._structured_head(x, 2.5 * x, z)
        want = _reference_head(x, 2.5 * x, vectors._halved(z)[0])
        assert isinstance(head, np.ndarray) and head.flags.c_contiguous and head.shape == (8, n) == (len(want), n)
        assert [row.tobytes() for row in head] == [d.tobytes() for d in want]
        rows = oracle._structured_head(x, 2.5 * x, z, anchor=oracle._anchor(x), xbar_rows=False)
        assert rows.tobytes() == head[2:].tobytes() and rows.shape == (6, n)
        assert oracle._structured_head(x, np.zeros(n), xbar_rows=False).shape == (0, n)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_each_head_denominator_is_the_sum_of_two_norms(self, scale, monkeypatch):
        # the z pass takes ||u - xbar|| and ||f(u) - f(xbar)|| of its head
        # rows from one row_norms call on a block of both; at these radii
        # the plain squares under- or overflow, so the rows are rescued one
        # by one, and each denominator keeps the bits of norm + norm, on a
        # new plan and on the kept one
        heads, dens, quotients, rows = [], [], oracle._quotients, orthant.project_rows

        def recording_rows(u):
            heads.append(u.copy())
            return rows(u)

        def recording_quotients(z0, rows, column, y_df, den):
            if column is None:  # the head rows, scored as u - xbar
                dens.append(den)
            return quotients(z0, rows, column, y_df, den)

        monkeypatch.setattr(orthant, "project_rows", recording_rows)
        monkeypatch.setattr(oracle, "_quotients", recording_quotients)
        rng = np.random.default_rng(3)
        x, y, z = scale * np.array([1.0, -0.5, 0.25, 2.0]), *rng.standard_normal((2, 4))
        config = ProbeConfig(radii=(0.1 * scale, 0.01 * scale), random_directions=16)
        for _ in range(2):
            membership(orthant.project, x, y, z, config)
            u, den = heads[-1], dens[-1]
            plain = np.sqrt(np.einsum("ij,ij->i", u - x, u - x))
            assert not ((plain >= vectors._TINY_NORM) & (plain < np.inf)).any()
            want = [norm(row - x) + norm(orthant.project(row) - orthant.project(x)) for row in u]
            assert den.tolist() == want
        assert oracle._kept_plan.cache_info().hits == 1

    @pytest.mark.parametrize("n", [2, 6, 50])
    def test_parallel_parts_are_dropped(self, n):
        # y and z parallel to xbar: the 1e-13 rule drops both orthogonal parts
        x = np.random.default_rng(n).standard_normal(n)
        assert len(oracle._structured_head(x, 2.5 * x, -x)) == 6

    def test_strided_views_take_the_raveled_square_sums(self):
        # a strided view's own square sum differs in the last bit for many
        # columns; the head must take the sums of the contiguous copies
        rng = np.random.default_rng(17)
        differ = 0
        for n in (7, 50, 500):
            for _ in range(20):
                block = rng.standard_normal((n, 3))
                x, y, z = block[:, 0], block[:, 1], block[:, 2]
                differ += float(np.einsum("i,i->", x, x)) != float(vectors._dot(x, x))
                assert _head_bytes(oracle._structured_head, x, y, z) == _head_bytes(_reference_head, x, y, z)
        assert differ > 0

    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e170])
    def test_residual_check_kept_on_both_paths(self, scale, monkeypatch):
        # with orth_rtol = 0 the check fires, whether <xbar, xbar> is a
        # normal double or has to be rescaled
        xbar, y = np.array([0.3, -1.7, 2.9]) * scale, np.array([1.1, 0.4, -0.6]) * scale
        monkeypatch.setattr(oracle, "_split", functools.partial(vectors._split, orth_rtol=0.0))
        with pytest.raises(ArithmeticError, match="orthogonality residual"):
            oracle._structured_head(xbar, y, np.zeros(3))

    def test_overflowing_part_raises_as_before(self):
        # <y, xbar> / <xbar, xbar> is inf, so o is not finite (inf * 0.0 is nan)
        xbar, y = np.array([2e-146, 0.0]), np.array([1e300, 1.0])
        want = _head_bytes(_reference_head, xbar, y, np.zeros(2))
        assert want == "ValueError: vector entries must be finite"
        assert _head_bytes(oracle._structured_head, xbar, y, np.zeros(2)) == want

    def test_verdicts_reach_no_generic_helper_from_the_head(self, monkeypatch):
        # the head runs on its scalars: neither norm, orth_decompose nor
        # is_zero is called while it runs, in a ball and an l2-cone verdict.
        # It builds the three parts of the head: the rows of xbar in the
        # base, those of y in the plan, those of z in the z pass, which alone
        # runs on a kept plan
        calls, inside, heads, head = [], [], [], oracle._structured_head

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, bool(inside)))
                return fn(*args, **kwargs)
            return wrapper

        def watched_head(*args, **kwargs):
            heads.append(args)
            inside.append(True)
            try:
                return head(*args, **kwargs)
            finally:
                inside.pop()

        for name in ("norm", "orth_decompose", "is_zero"):
            fn = getattr(vectors, name)
            monkeypatch.setattr(vectors, name, counting(name, fn))
            monkeypatch.setattr(oracle, name, counting(name, fn), raising=False)
        monkeypatch.setattr(oracle, "_structured_head", watched_head)
        rng = np.random.default_rng(6)
        x, y, z = rng.standard_normal((3, 6))
        ball = BallProjection(1.0)
        membership(ball.project, 2.0 * x / np.linalg.norm(x), y, z)
        membership(l2_cone.project, SparseVector({1: 1.0, 3: 0.5}), SparseVector({1: 0.4, 2: 0.7}),
                   SparseVector({1: 0.4, 2: 0.3}))
        assert len(heads) == 6
        membership(ball.project, 2.0 * x / np.linalg.norm(x), y, -z)
        assert len(heads) == 7
        assert ("norm", False) in calls  # the counters are live: the witness re-score uses norm
        assert [c for c in calls if c[1]] == []


class TestDirectionalQuotient:
    def test_frozen(self):
        got = directional_quotient(orthant.project, np.array([0.0, -1.0]), np.array([1.0, 1.0]), 1e-6)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)

    def test_requires_positive_step(self):
        with pytest.raises(ValueError):
            directional_quotient(orthant.project, np.zeros(2), np.ones(2), 0.0)

    def test_sparse(self):
        got = directional_quotient(
            l2_cone.project, SparseVector({1: 1.0}), SparseVector({2: -1.0}), 1e-6
        )
        assert got == SparseVector.zero()


# each oracle entry point: the function and the number of vectors it takes after xbar
_ENTRIES = {"membership": (membership, 2), "quotient": (quotient, 3),
            "directional_quotient": (lambda f, xbar, w: directional_quotient(f, xbar, w, 1e-3), 1)}


def _entry(name, xbar, odd, k):
    """Call the entry point ``name`` at xbar with vectors of xbar's kind, ``odd`` in place of the k-th."""
    call, count = _ENTRIES[name]
    sparse = isinstance(xbar, SparseVector)
    vs = [SparseVector({1: 0.5}) if sparse else np.array([0.5, 0.0])] * count
    vs[k] = odd
    return call(l2_cone.project if sparse else orthant.project, xbar, *vs)


class TestEntryKinds:
    @pytest.mark.parametrize("name", _ENTRIES)
    @pytest.mark.parametrize("sparse_xbar", [False, True])
    def test_mixed_kinds_raise_the_inner_message(self, name, sparse_xbar):
        dense, sparse = np.array([1.0, 2.0]), SparseVector({1: 1.0, 2: 2.0})
        xbar, odd = (sparse, dense) if sparse_xbar else (dense, sparse)
        for k in range(_ENTRIES[name][1]):
            with pytest.raises(TypeError, match="^dense and sparse vectors cannot be combined in one operation$"):
                _entry(name, xbar, odd, k)

    @pytest.mark.parametrize("name", _ENTRIES)
    def test_a_wrong_length_raises_a_dimension_mismatch(self, name):
        for k in range(_ENTRIES[name][1]):
            with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
                _entry(name, np.array([1.0, 2.0]), np.array([0.5, 0.0, 1.0]), k)

    def test_a_sparse_point_of_a_dense_jacobian_raises_the_inner_message(self):
        with pytest.raises(TypeError, match="^dense and sparse vectors cannot be combined in one operation$"):
            jacobian_fd(l2_cone.project, SparseVector({1: 1.0}))

    def test_a_dense_query_may_be_given_as_lists(self):
        got = directional_quotient(orthant.project, [0.0, -1.0], [1.0, 1.0], 1e-6)
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)
        assert quotient(orthant.project, [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.5, 0.0]) == pytest.approx(0.5)


class TestJacobianFD:
    def test_identity_region(self):
        x = np.array([0.5, 0.5])
        np.testing.assert_allclose(jacobian_fd(orthant.project, x), np.eye(2), atol=1e-9)

    def test_zero_region(self):
        x = np.array([-0.5, -0.5])
        np.testing.assert_allclose(jacobian_fd(orthant.project, x), np.zeros((2, 2)), atol=1e-9)

    def test_ball_exterior_frozen(self):
        op = BallProjection(1.0)
        got = jacobian_fd(op.project, np.array([2.0, 0.0]))
        np.testing.assert_allclose(got, [[0.0, 0.0], [0.0, 0.5]], atol=1e-9)
