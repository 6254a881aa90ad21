import functools
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
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


def _reference_membership(f, xbar, y, z, config):
    """Per-probe scalar loop the batched oracle replaced; returns (verdict, sups).

    Every probe goes through the public ``quotient``, in the order the
    batched path scores them: structured directions, then seeded random
    ones drawn one vector at a time.
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
    sups = []
    for t in config.radii:
        dirs = list(structured)
        for _ in range(config.random_directions):
            values = rng.standard_normal(len(axes))
            length = float(np.linalg.norm(values))
            if length < 1e-12:
                continue
            values = values / length
            dirs.append(SparseVector(dict(zip(axes, values))) if sparse else values)
        sups.append(max(quotient(f, xbar, y, z, xbar + t * d, config.denominator) for d in dirs))
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
        again = quotient(f, xbar, y, z, xbar + w.radius * w.direction, config.denominator)
        assert again == w.quotient == out.sup_estimates[-1][1]


class TestProbeConfig:
    def test_defaults(self):
        c = ProbeConfig()
        assert c.radii == (1e-2, 1e-3, 1e-4)
        assert c.tolerance == 1e-3 and c.denominator == "sum"

    def test_radii_must_decrease(self):
        with pytest.raises(ValueError):
            ProbeConfig(radii=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            ProbeConfig(radii=(1e-3, 1e-3))
        with pytest.raises(ValueError):
            ProbeConfig(radii=())

    def test_validation(self):
        for kwargs in ({"tolerance": 0.0}, {"tolerance": math.inf}, {"tolerance": math.nan},
                       {"random_directions": -1}, {"denominator": "max"},
                       {"radii": (math.inf, 1e-2)}, {"radii": (1e-2, math.nan)}):
            with pytest.raises(ValueError):
                ProbeConfig(**kwargs)
        for count in (1.5, 256.0, True, "8", None):
            with pytest.raises(TypeError, match="random_directions must be an integer"):
                ProbeConfig(random_directions=count)
        # a numpy integer is an integer, as for the seed
        assert ProbeConfig(random_directions=np.int64(8)) == ProbeConfig(random_directions=8)

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

    def test_vanished_probe_names_the_base_norm(self):
        xbar = np.array([1e13, 0.0])
        with pytest.raises(ValueError, match=r"\|\|xbar\|\| = 1e\+13"):
            quotient(orthant.project, xbar, np.zeros(2), np.zeros(2), xbar + np.array([1e-4, 0.0]))

    def test_denominator_relation(self):
        # the two denominators agree in sign and differ by at most sqrt(2)
        op = BallProjection(1.0)
        rng = np.random.default_rng(17)
        for _ in range(100):
            xbar = rng.standard_normal(3) * 1.5
            if np.linalg.norm(xbar) < 0.2:
                continue
            y, z = rng.standard_normal(3), rng.standard_normal(3)
            u = xbar + rng.standard_normal(3) * 0.05
            if np.array_equal(u, xbar):
                continue
            qs = quotient(op.project, xbar, y, z, u, denominator="sum")
            qe = quotient(op.project, xbar, y, z, u, denominator="euclidean")
            if qe == 0.0:
                assert qs == 0.0
                continue
            assert np.sign(qs) == np.sign(qe)
            assert np.sqrt(2) / 2 - 1e-12 <= qs / qe <= 1.0 + 1e-12


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

    def test_denominator_choice_same_verdict(self):
        op = BallProjection(1.0)
        xbar = np.array([1.0, 0.0])
        z = np.array([0.0, 0.6])
        for z_probe, want in ((z, Verdict.NON_MEMBER), (np.zeros(2), Verdict.MEMBER)):
            for den in ("sum", "euclidean"):
                out = membership(
                    op.project, xbar, np.zeros(2), z_probe, ProbeConfig(denominator=den)
                )
                assert out.verdict is want


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("denominator", ["sum", "euclidean"])
    def test_membership_corpora(self, seed, denominator):
        rng = np.random.default_rng(seed)
        cases = (
            suites.ball_membership_cases(rng, per_family=1)
            + suites.orthant_membership_cases(rng, per_family=1)
            + suites.l2_membership_cases(rng, per_family=1)
        )
        config = ProbeConfig(random_directions=64, seed=seed, denominator=denominator)
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


def _golden_digest(f, xbar, y, z, denominator):
    out = membership(f, xbar, y, z, ProbeConfig(seed=5, denominator=denominator))
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
GOLDEN = {
    "ball/n2/exterior/sum": "7b57ebd40e1cfaa8",
    "ball/n2/exterior/euclidean": "40380496cfdaaf37",
    "ball/n2/exterior-off/sum": "d45b374ae5a5a5ce",
    "ball/n2/exterior-off/euclidean": "5e79f4566fd6d460",
    "orthant/n2/mixed/sum": "d5c8f74edb8d893e",
    "orthant/n2/mixed/euclidean": "c0be6341c29d5893",
    "orthant/n2/corner/sum": "0cc55c50fce7f5b3",
    "orthant/n2/corner/euclidean": "0cc55c50fce7f5b3",
    "ball/n6/exterior/sum": "4aa34def9eb3a93a",
    "ball/n6/exterior/euclidean": "70ee8c612b431717",
    "ball/n6/exterior-off/sum": "92f6700d7e564c12",
    "ball/n6/exterior-off/euclidean": "f2a13fb8e51266f5",
    "orthant/n6/mixed/sum": "a5dc8c105b53be32",
    "orthant/n6/mixed/euclidean": "39a6d797b4a05fd0",
    "orthant/n6/corner/sum": "9943513f1d8990ae",
    "orthant/n6/corner/euclidean": "695d4975fc4faeb4",
    "ball/n50/exterior/sum": "f3ce81e176121a64",
    "ball/n50/exterior/euclidean": "43077569531be36a",
    "ball/n50/exterior-off/sum": "fcae49d8393a6351",
    "ball/n50/exterior-off/euclidean": "c6b5cad7af4c8eee",
    "orthant/n50/mixed/sum": "dd188bfec23dd15d",
    "orthant/n50/mixed/euclidean": "0f01bc1d1d4231f2",
    "orthant/n50/corner/sum": "72392eb51f582a3b",
    "orthant/n50/corner/euclidean": "61c87f40593f3d7e",
    "ball/n500/exterior/sum": "38f4f6f336d12344",
    "ball/n500/exterior/euclidean": "a95c5a0e274996f6",
    "ball/n500/exterior-off/sum": "249bf64790fba451",
    "ball/n500/exterior-off/euclidean": "bbd00955bfa6f645",
    "orthant/n500/mixed/sum": "c8a55ad1e60825d9",
    "orthant/n500/mixed/euclidean": "c8a55ad1e60825d9",
    "orthant/n500/corner/sum": "c3ca208c6f17c1fc",
    "orthant/n500/corner/euclidean": "2c97039e9836625c",
    "ball/n1/signed-zeros/sum": "0cc55c50fce7f5b3",
    "ball/n1/signed-zeros/euclidean": "0cc55c50fce7f5b3",
    "l2_cone/sparse/sum": "073f99bb17b440b6",
    "l2_cone/sparse/euclidean": "792e7e17a7b91752",
}


def _golden_digests() -> dict:
    got = {}
    for label, f, xbar, y, z in _golden_queries():
        for denominator in ("sum", "euclidean"):
            got[f"{label}/{denominator}"] = _golden_digest(f, xbar, y, z, denominator)
    return got


def _openblas_picks_its_kernel_at_run_time() -> bool:
    try:
        return "DYNAMIC_ARCH" in np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return False


class TestGolden:
    def test_verdicts_are_byte_identical(self):
        assert _golden_digests() == GOLDEN

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

    def test_cold_and_warm_cache_agree(self):
        # a warm verdict reuses its kept plan (n <= 41), or else the cached directions
        for label, f, xbar, y, z in _golden_queries()[::3]:
            oracle._random_dirs.cache_clear()
            oracle._kept_plan.cache_clear()
            cold = _golden_digest(f, xbar, y, z, "sum")
            assert oracle._random_dirs.cache_info().misses == 1
            assert _golden_digest(f, xbar, y, z, "sum") == cold, label
            kept = oracle._kept_plan.cache_info().hits
            assert kept == (xbar.size <= 41), label
            assert oracle._random_dirs.cache_info().hits == 1 - kept, label

    def test_cached_directions_reject_writes(self):
        plan = oracle._random_dirs(5, 256, 500, 3)
        assert oracle._random_dirs(5, 256, 500, 3) is plan
        dirs, bounds = plan
        assert dirs.shape == (3 * 256, 500) and bounds == ((0, 256), (256, 512), (512, 768))
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0

    def test_directions_follow_the_generator_stream(self):
        # the rows of each radius, in the order of one fresh generator
        # drawing radius by radius
        count = 256
        for m in (1, 6, 41, 500):
            rng = np.random.default_rng(9)
            dirs, bounds = oracle._random_dirs(9, count, m, 3)
            assert bounds == ((0, count), (count, 2 * count), (2 * count, 3 * count))
            for start, end in bounds:
                draws = rng.standard_normal((count, m))
                np.testing.assert_array_equal(dirs[start:end], draws / np.linalg.norm(draws, axis=1)[:, None])

    def test_short_draws_are_dropped(self, monkeypatch):
        # a draw shorter than 1e-12 leaves its radius, and the later rows move up
        default_rng = np.random.default_rng

        class ShortDraws:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, out):
                self.rng.standard_normal(out=out)
                out[1] *= 1e-13
                out[3] = 0.0

        monkeypatch.setattr(oracle.np.random, "default_rng", ShortDraws)
        dirs, bounds = oracle._random_dirs.__wrapped__(4, 5, 3, 2)
        monkeypatch.undo()
        assert bounds == ((0, 3), (3, 6)) and dirs.shape == (6, 3) and not dirs.flags.writeable
        rng = np.random.default_rng(4)
        for start, end in bounds:
            draws = rng.standard_normal((5, 3))[[0, 2, 4]]
            np.testing.assert_array_equal(dirs[start:end], draws / np.linalg.norm(draws, axis=1)[:, None])

    def test_seed_must_be_an_integer(self):
        for seed in ([5, 1], np.random.default_rng(5), True):
            with pytest.raises(TypeError, match="seed must be an integer"):
                ProbeConfig(seed=seed)
        # a numpy integer keys the plan cache, and the direction cache, as the equal int does
        args = (BallProjection(1.0).project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.3, 0.0]))
        plain = membership(*args, ProbeConfig(seed=5, random_directions=8))
        hits = oracle._kept_plan.cache_info().hits
        assert membership(*args, ProbeConfig(seed=np.int64(5), random_directions=8)).to_json() == plain.to_json()
        assert oracle._kept_plan.cache_info().hits == hits + 1
        oracle._kept_plan.cache_clear()
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
    @pytest.mark.parametrize("denominator", ["sum", "euclidean"])
    def test_row_path_matches_per_row_path(self, seed, denominator):
        # the lambda hides the row form, so the oracle calls f once per row
        rng = np.random.default_rng(seed)
        cases = (
            suites.ball_membership_cases(rng, per_family=1)
            + suites.orthant_membership_cases(rng, per_family=1)
            + suites.l2_membership_cases(rng, per_family=1)
        )
        config = ProbeConfig(seed=seed, denominator=denominator)
        for case in cases:
            f = case.project
            rows = membership(f, case.xbar, case.y, case.z, config)
            per_row = membership(lambda u: f(u), case.xbar, case.y, case.z, config)
            assert rows.verdict is per_row.verdict, case.label
            assert json.dumps(rows.to_json()["witness"]) == json.dumps(per_row.to_json()["witness"])
            for (_, a), (_, b) in zip(rows.sup_estimates, per_row.sup_estimates):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), case.label


def _axis_images(form, x0, t, y0=None):
    """The axis form's (a, b) for the 2m probes of x0 at radius t, the block and the full probe rows."""
    block = oracle._axis_block(x0, x0 if y0 is None else y0, x0)
    moved = block[2] + block[1] * t
    with np.errstate(over="ignore"):
        sq_norm = float(x0 @ x0)
    return form(sq_norm, block[2], moved), block, oracle._axis_rows(x0, block[0], moved)


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
        # sparse query laid out over its probed axes
        dense = np.array([-0.0, 0.0, 0.5, -0.5, -2.0, 3.0, 1e-300])
        sparse = SparseVector({1: 0.5, 3: -0.5, 4: 2.0})
        fx_sparse = oracle._dense_over(l2_cone.project(sparse), [1, 3, 4, 5])
        for f, x0, fx0 in ((orthant.project, dense, orthant.project(dense)),
                           (l2_cone.project, oracle._dense_over(sparse, [1, 3, 4, 5]), fx_sparse)):
            (a, b), block, u = _axis_images(f.axes, x0, t)
            df = f.rows(u) - fx0
            assert a == 0.0
            np.testing.assert_array_equal(_bits(df[np.arange(u.shape[0]), block[0]]), _bits(b))
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
            for rho in (0.5 * r, r, 2.0 * r, 1e-100, 1e100):
                x0 = rho * u
                for t in (1e-3 * rho, 0.6 * rho):
                    images, block, rows = _axis_images(op.project_axes, x0, t)
                    with np.errstate(over="ignore"):
                        sq_norm = x0 @ x0
                    images_u, image_x = op.project_rows(rows), op.project(x0)
                    if images is None:
                        lengths = np.linalg.norm(rows / rho, axis=1) * rho
                        tiny = np.finfo(float).tiny
                        assert not (tiny <= sq_norm < np.inf) or (r / lengths).min() < tiny
                        continue
                    accepted += 1
                    a, b = images
                    closed = a[:, None] * x0
                    closed[np.arange(rows.shape[0]), block[0]] += b
                    scale = np.maximum(np.abs(images_u).max(axis=1), np.abs(image_x).max())
                    assert np.all(np.abs(closed - (images_u - image_x)) <= 4.0 * np.spacing(scale)[:, None])
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
                (a, b), block, rows = _axis_images(op.project_axes, x0, t, y)
                closed = oracle._axis_image_terms(a, b, block, lambda: (y @ x0, oracle._off_axis_norms(x0)))
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

    @pytest.mark.parametrize("m", [6, 41, 500])
    def test_stacked_products_are_the_bits_of_dot(self, m):
        # <d, x0>, <d, y0> and <d, z0> over the cached random directions,
        # taken together, give the bits of one vectors._dot per row and vector
        rng = np.random.default_rng(m)
        vs = rng.standard_normal((3, m)) * np.array([[1.0], [1e-3], [1e3]])
        dirs = oracle._random_dirs(7, 256, m, 3)[0]
        stacked = vectors._dots(dirs, vs)
        for got, v in zip(stacked, vs):
            want = np.array([vectors._dot(d, v) for d in dirs])
            np.testing.assert_array_equal(_bits(got), _bits(want))

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
            randoms = oracle._random_dirs(3, 64, n, 1)[0]
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
                got = op.project_dirs(x0, y0, dirs, t)
                df = op.project_rows(x0 + t[:, None] * dirs) - op.project(x0)
                rows = (vectors._dot(df, y0), vectors.row_norms(df))
                u = x0.astype(wide) + t.astype(wide)[:, None] * dirs.astype(wide)
                exact_df = exact_map(u) - exact_map(x0.astype(wide)[None])
                exact = (exact_df @ y0.astype(wide), np.sqrt((exact_df * exact_df).sum(axis=1)))
                scale = max(norm(op.project(x0)), vectors.row_norms(df + op.project(x0)).max())
                for term, by_rows, want, ulp in zip(got, rows, exact, (norm(y0) * scale, scale)):
                    bound = max(np.abs(by_rows - want).max(), 2.0 * np.spacing(ulp))
                    assert np.abs(term - want).max() <= bound, (x0.size, radius)

    @pytest.mark.parametrize("f", [BallProjection(1.0).project, orthant.project], ids=["ball", "orthant"])
    def test_rounds_back_at_the_radius_of_the_row_path(self, f):
        # from ||xbar|| near 1e12 a probe rounds back to xbar: the random rows
        # take the row path, and the verdict raises at the radius that a
        # formless f names
        rng = np.random.default_rng(13)
        for scale in (1e12, 3e12, 1e13, 3e13):
            x, y, z = scale * rng.uniform(0.5, 1.0, 4), rng.standard_normal(4), rng.standard_normal(4)
            errors = []
            for g in (f, lambda u: f(u)):
                with pytest.raises(ValueError, match="rounds back to xbar") as info:
                    membership(g, x, y, z)
                errors.append(str(info.value))
            assert errors[0] == errors[1]

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
        dirs = oracle._random_dirs(config.seed, config.random_directions, x0.size, len(config.radii))[0]
        t = np.repeat(config.radii, config.random_directions)
        assert BallProjection(r).project_dirs(x0, y, dirs, t) is None
        got = membership(BallProjection(r).project, x0, y, z, config)
        want = membership(_NoDirsBall(r).project, x0, y, z, config)
        assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(want.to_json(), sort_keys=True)


@dataclass(frozen=True)
class _CountingBall(BallProjection):
    """A ball that records its row-, axis- and direction-form calls, with their probe counts."""

    calls: list = field(default_factory=list, compare=False)

    def project_rows(self, block):
        self.calls.append(("rows", len(block)))
        return super().project_rows(block)

    def project_axes(self, sq_norm, xj, moved):
        self.calls.append(("axes", len(moved)))
        return super().project_axes(sq_norm, xj, moved)

    def project_dirs(self, x0, y0, dirs, t):
        self.calls.append(("dirs", len(t)))
        return super().project_dirs(x0, y0, dirs, t)


def _verdict_json(f, xbar, y, z, config=None):
    return json.dumps(membership(f, xbar, y, z, config).to_json(), sort_keys=True)


class TestPackedPlan:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_small_verdict_calls_each_form_once(self, n):
        # interior, exterior and the origin: the plan's axis probes go
        # through one axis-form call and its random rows of all three radii
        # through one direction-form call, then the head rows and the rows
        # of z of all three radii through one row-form call; a verdict on
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
            assert op.calls == [("axes", 3 * 2 * n), ("dirs", 3 * 256), ("rows", 3 * (head + z_rows))]
            op.calls.clear()
            membership(op.project, xbar, y, z_next)
            assert op.calls == [("rows", 3 * (head + z_rows))]

    def test_wide_verdict_keeps_the_row_budget(self):
        # at n = 500 the plan is streamed: the plan makes the axis-form
        # call, then the z pass scores the only rows formed, the head rows
        # of xbar and y and the rows of z (+-z, +-orth(z)) of all three
        # radii, in one row-form call within the row budget; then the
        # random rows of all three radii, in one direction-form call
        rng = np.random.default_rng(500)
        x, y, z = rng.standard_normal((3, 500))
        op = _CountingBall(1.0)
        membership(op.project, x, y, z)
        assert op.calls == [("axes", 3 * 2 * 500), ("rows", 3 * (6 + 4)), ("dirs", 3 * 256)]
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
    def test_packing_changes_no_bit(self, n, monkeypatch):
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
        configs = [ProbeConfig(seed=3), ProbeConfig(random_directions=5, denominator="euclidean"),
                   ProbeConfig(radii=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5), random_directions=130)]
        cases = [(f, xbar, *rng.standard_normal((2, n)), config) for f, xbar in queries for config in configs]
        # a sparse f with no row form, scored row by row through inner and norm
        sparse = [SparseVector({i + 1: v for i, v in enumerate(w) if v > -0.5}) for w in rng.standard_normal((3, n))]
        cases += [(_shift, *sparse, config) for config in configs]

        def built_anew(case):
            # a kept plan would carry one run's chunks into the other
            oracle._kept_plan.cache_clear()
            return _verdict_json(*case)

        want = [built_anew(case) for case in cases]
        for rows in (1, 7, 100):
            monkeypatch.setattr(oracle, "_block_rows", lambda m, rows=rows: rows)
            assert [built_anew(case) for case in cases] == want, rows


class TestPlanCache:
    @pytest.mark.parametrize("denominator", ["sum", "euclidean"])
    def test_hit_gives_the_bytes_of_a_cold_verdict(self, denominator):
        # every z of an order-interval grid shares one (xbar, y): the first
        # verdict of a grid builds the plan, every other one reuses it
        rng = np.random.default_rng(707)
        config = ProbeConfig(random_directions=32, seed=7, denominator=denominator)
        for variant in (0, 1):
            xbar, _, y, grid = suites.order_interval_grid(rng, 2, 2, variant=variant)
            oracle._kept_plan.cache_clear()
            warm = [_verdict_json(l2_cone.project, xbar, y, z, config) for z in grid]
            assert oracle._kept_plan.cache_info().hits == len(grid) - 1
            cold = []
            for z in grid:
                oracle._kept_plan.cache_clear()
                cold.append(_verdict_json(l2_cone.project, xbar, y, z, config))
            assert warm == cold

    def test_caller_mutation_reaches_no_kept_plan(self):
        ball = BallProjection(1.0)
        x, y, z = np.array([1.5, -0.5, 0.25]), np.array([0.3, 0.4, -0.2]), np.array([0.1, 0.2, 0.3])
        first = _verdict_json(ball.project, x, y, z)
        x[0], y[1] = 0.5, -3.0
        again = _verdict_json(ball.project, np.array([1.5, -0.5, 0.25]), np.array([0.3, 0.4, -0.2]), z)
        assert oracle._kept_plan.cache_info().hits == 1
        assert again == first
        # the mutated arrays key a plan of their own
        mutated = _verdict_json(ball.project, x, y, z)
        oracle._kept_plan.cache_clear()
        assert mutated == _verdict_json(ball.project, x, y, z) != first

    def test_signed_zeros_key_apart(self):
        # -0.0 and 0.0 compare equal but have other bytes and other verdicts
        y, z = np.array([1.0, -0.5]), np.array([0.5, 0.0])
        warm = [_verdict_json(orthant.project, np.array([zero, 1.0]), y, z) for zero in (-0.0, 0.0)]
        info = oracle._kept_plan.cache_info()
        assert (info.hits, info.currsize) == (0, 2)
        assert warm[0] != warm[1]
        for zero, want in zip((-0.0, 0.0), warm):
            oracle._kept_plan.cache_clear()
            assert _verdict_json(orthant.project, np.array([zero, 1.0]), y, z) == want

    def test_formless_f_and_unhashable_f_are_never_kept(self):
        # an instance of a non-frozen dataclass is unhashable, though it has
        # a row form; radii given as a list make a hashable config, which
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

    @pytest.mark.parametrize("sparse", [False, True])
    def test_a_z_pass_changes_no_kept_plan_but_its_halves(self, sparse):
        # a z pass only reads its plan: the head rows of xbar and y are
        # scored in every pass, and only the witness halves are filled
        rng = np.random.default_rng(1818)
        config = ProbeConfig(random_directions=32, seed=5)
        if sparse:
            f = l2_cone.project
            xbar, _, y, zs = suites.order_interval_grid(rng, 2, 2, variant=0)
            axes, x0, y0, _ = oracle._embed(xbar, y, zs[0])
        else:
            f = BallProjection(1.0).project
            # inside the ball, z = y is the one member
            xbar, y = np.array([0.3, 0.4, 0.5]), np.array([1.0, -0.5, 0.25])
            zs = [y + 0.5 * rng.standard_normal(3) for _ in range(8)] + [y, np.zeros(3)]
            axes, x0, y0 = None, xbar, y
        plan = oracle._kept_plan(*oracle._plan_key(f, x0, y0, axes, config))

        def snapshot():
            chunks = [(c.rows.tobytes(), None if c.scale is None else c.scale.tobytes(), c.y_df.tobytes(),
                       c.den.tobytes(), [(k, slot, a, b, block.tobytes(), first)
                                         for k, slot, a, b, block, first in c.segments]) for c in plan.chunks]
            return plan.head.tobytes(), plan.head.shape, chunks

        before = snapshot()
        assert not plan.head.flags.writeable and len(plan.head) > 0
        verdicts = [membership(f, xbar, y, z, config).verdict for z in zs]
        assert Verdict.NON_MEMBER in verdicts and Verdict.MEMBER in verdicts
        assert oracle._kept_plan(*oracle._plan_key(f, x0, y0, axes, config)) is plan
        assert snapshot() == before
        assert plan.halves

    def test_kept_plans_are_small_and_at_most_16(self):
        # at the default config a plan is kept up to m = 41, where all its
        # rows fit in one chunk; the n = 500 plan streams
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

    def test_rounds_back_at_the_same_radius_on_a_hit(self):
        # every probe rounds back at 1e-5; at 0.086 only the rows of z = (1, 1)
        # do (half the spacing of doubles near 1e15 is 0.0625)
        config = ProbeConfig(radii=(1.0, 0.086, 1e-5), random_directions=0)
        x, y = np.array([1e15, 1.1e15]), np.zeros(2)
        for z, radius in (([1.0, 1.0], r"0\.086"), ([0.0, 0.0], r"1e-05"), ([1.0, 1.0], r"0\.086")):
            with pytest.raises(ValueError, match=rf"a probe at radius {radius} rounds back"):
                membership(orthant.project, x, y, np.array(z), config)
        assert oracle._kept_plan.cache_info().hits == 2


@dataclass
class _UnhashableBall:
    """The unit ball's projection as a callable with a row form, on a dataclass that is not frozen, so unhashable.

    (A bound method hashes by the identity of its object, so the bound
    ``project`` of such a class would be hashable.)
    """

    ball: BallProjection = BallProjection(1.0)

    def __call__(self, x):
        return self.ball.project(x)

    def rows(self, block):
        return self.ball.project_rows(block)


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
    @pytest.mark.parametrize("denominator", ["sum", "euclidean"])
    def test_stored_half_gives_the_bytes_of_a_cold_verdict(self, denominator, monkeypatch):
        # a warm verdict that finds its winner's half in the kept plan gives
        # the bytes of a verdict that computes it, on a plan built anew
        computed = _counting_halves(monkeypatch)
        reused = {"sparse": 0, "dense": 0}
        for f, xbar, y, zs, count in _witness_queries():
            config = ProbeConfig(random_directions=count, seed=4, denominator=denominator)
            oracle._kept_plan.cache_clear()
            computed.clear()
            warm = [_verdict_json(f, xbar, y, z, config) for z in zs]
            reused["sparse" if isinstance(xbar, SparseVector) else "dense"] += len(zs) - len(computed)
            cold = []
            for z in zs:
                oracle._kept_plan.cache_clear()
                cold.append(_verdict_json(f, xbar, y, z, config))
            assert warm == cold
        assert reused["sparse"] > 0 and reused["dense"] > 0

    def test_witness_reevaluates_through_quotient(self, monkeypatch):
        computed = _counting_halves(monkeypatch)
        seen = {"stored": 0, "computed": 0}
        for f, xbar, y, zs, count in _witness_queries():
            for denominator in ("sum", "euclidean"):
                config = ProbeConfig(random_directions=count, denominator=denominator)
                for z in zs + zs:
                    before = len(computed)
                    out = membership(f, xbar, y, z, config)
                    if out.verdict is not Verdict.NON_MEMBER:
                        continue
                    seen["computed" if len(computed) > before else "stored"] += 1
                    w = out.witness
                    again = quotient(f, xbar, y, z, xbar + w.radius * w.direction, denominator)
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
        # (0, head row of xbar or y), (1, index of the axis probe) or
        # (2, row in the one direction array), where the random rows of the
        # smallest radius are a range
        stored = 0
        for f, xbar, y, zs, count in _witness_queries():
            config = ProbeConfig(random_directions=count)
            for z in zs:
                membership(f, xbar, y, z, config)
            if isinstance(xbar, SparseVector):
                axes, x0, y0, _ = oracle._embed(xbar, y, zs[0])
            else:
                axes, x0, y0 = None, xbar, y
            plan = oracle._kept_plan(*oracle._plan_key(f, x0, y0, axes, config))
            last, per = len(config.radii) - 1, 2 * x0.size
            rows = {slot: range(first, first + end - start) for scores in plan.chunks
                    for k, slot, start, end, _, first in scores.segments if k == last}
            rows[0] = range(len(plan.head))
            rows[1] = range(last * per, (last + 1) * per)
            assert len(plan.halves) <= sum(map(len, rows.values()))
            stored += len(plan.halves)
            for slot, i in plan.halves:
                assert i in rows[slot]
        assert stored > 0


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
        # It builds both parts of the head: the rows of xbar and y in the
        # plan, those of z in the z pass, which alone runs on a kept plan
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
        assert len(heads) == 4
        membership(ball.project, 2.0 * x / np.linalg.norm(x), y, -z)
        assert len(heads) == 5
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
