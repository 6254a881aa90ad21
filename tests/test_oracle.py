import hashlib
import json

import numpy as np
import pytest

from varproj import l2_cone, oracle, orthant, suites
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
        with pytest.raises(ValueError):
            ProbeConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(random_directions=-1)
        with pytest.raises(ValueError):
            ProbeConfig(denominator="max")


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
        # f shifts every index up by one, so part of its output lies outside
        # the axes the oracle probes
        def shift(x):
            return SparseVector({i + 1: v for i, v in x.positive_part().items()})

        x1 = SparseVector({1: 1.0})
        x13 = SparseVector({1: 1.0, 3: -0.5})
        for xbar, y, z in (
            (x13, SparseVector({2: 0.7, 4: -0.2}), SparseVector({1: 0.7})),
            (x13, SparseVector({2: 0.7}), SparseVector({1: 0.9, 3: 0.3})),
            # the probe +e_2 moves f(u) at index 3, which is no probe axis:
            # the limsup is 1/2, not the 1 that ignoring index 3 would give
            (x1, SparseVector({}), SparseVector({2: 1.0})),
        ):
            _assert_matches_reference(shift, xbar, y, z, ProbeConfig(random_directions=64))
        assert membership(shift, x1, SparseVector({}), SparseVector({2: 1.0})).witness.quotient == 0.5

    def test_radii_whose_squares_overflow(self):
        # probe steps of 1e198 and 1e197, whose plain norms are inf
        xbar, ones = np.array([6e199, -8e199]), np.ones(2)
        config = ProbeConfig(radii=(1e198, 1e197), random_directions=4)
        with np.errstate(over="ignore"):
            _assert_matches_reference(BallProjection(1e200).project, xbar, ones, ones, config)
            sups = membership(BallProjection(1e200).project, xbar, ones, ones, config).sup_estimates
        assert [repr(s) for _, s in sups] == ["0.0", "0.0"]


def _golden_queries():
    """Seeded ball and orthant queries at n 2, 6, 50 and 500, signed zeros at n 1, and a sparse l2-cone query."""
    rng = np.random.default_rng(2024)
    ball = BallProjection(1.0)
    out = []
    for n in (2, 6, 50, 500):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        y = rng.standard_normal(n)
        v = rng.standard_normal(n)
        x = 2.0 * u
        ay = 0.5 * (y - (y @ u) * u)
        out += [(f"ball/n{n}/exterior", ball.project, x, y, ay),
                (f"ball/n{n}/exterior-off", ball.project, x, y, ay + 0.5 * v / np.linalg.norm(v))]
        x = rng.uniform(0.1, 1.0, n) * rng.choice((-1.0, 1.0), n)
        z = np.where(x > 0.0, y, 0.0)
        out.append((f"orthant/n{n}/mixed", orthant.project, x, y, z + 0.3 * v / np.linalg.norm(v)))
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
# verdicts and witnesses kept their bytes.
GOLDEN = {
    "ball/n2/exterior/sum": "27a0572f1af2cfaf",
    "ball/n2/exterior/euclidean": "f12e61cbebdb04f4",
    "ball/n2/exterior-off/sum": "d87ecf8d89152d8c",
    "ball/n2/exterior-off/euclidean": "9db0fef65ff0a24b",
    "orthant/n2/mixed/sum": "53bec434dc2cf080",
    "orthant/n2/mixed/euclidean": "077e8aea4248b47a",
    "orthant/n2/corner/sum": "0cc55c50fce7f5b3",
    "orthant/n2/corner/euclidean": "0cc55c50fce7f5b3",
    "ball/n6/exterior/sum": "c352f464fa9a8856",
    "ball/n6/exterior/euclidean": "5256d3d4b242c8e1",
    "ball/n6/exterior-off/sum": "e0a34847b4f45a34",
    "ball/n6/exterior-off/euclidean": "975a84df026526ae",
    "orthant/n6/mixed/sum": "6dddc5040a4f3f53",
    "orthant/n6/mixed/euclidean": "e7a424050162facb",
    "orthant/n6/corner/sum": "4e2926b754c71445",
    "orthant/n6/corner/euclidean": "0cadd765adb9afe1",
    "ball/n50/exterior/sum": "ab207cb27904e99e",
    "ball/n50/exterior/euclidean": "0827d5972019a108",
    "ball/n50/exterior-off/sum": "290c6f8a912f6361",
    "ball/n50/exterior-off/euclidean": "01897fefe355bc27",
    "orthant/n50/mixed/sum": "dd188bfec23dd15d",
    "orthant/n50/mixed/euclidean": "17709945d474f107",
    "orthant/n50/corner/sum": "72392eb51f582a3b",
    "orthant/n50/corner/euclidean": "61c87f40593f3d7e",
    "ball/n500/exterior/sum": "74febe8efbb125c7",
    "ball/n500/exterior/euclidean": "c5b7516462f6963c",
    "ball/n500/exterior-off/sum": "07f28fbb94ba6444",
    "ball/n500/exterior-off/euclidean": "32528313bec5031b",
    "orthant/n500/mixed/sum": "eab878c85415e708",
    "orthant/n500/mixed/euclidean": "eab878c85415e708",
    "orthant/n500/corner/sum": "4b428e0cf0e27caa",
    "orthant/n500/corner/euclidean": "2e853f109ae6b344",
    "ball/n1/signed-zeros/sum": "0cc55c50fce7f5b3",
    "ball/n1/signed-zeros/euclidean": "0cc55c50fce7f5b3",
    "l2_cone/sparse/sum": "073f99bb17b440b6",
    "l2_cone/sparse/euclidean": "792e7e17a7b91752",
}


class TestGolden:
    def test_verdicts_are_byte_identical(self):
        got = {}
        for label, f, xbar, y, z in _golden_queries():
            for denominator in ("sum", "euclidean"):
                got[f"{label}/{denominator}"] = _golden_digest(f, xbar, y, z, denominator)
        assert got == GOLDEN

    def test_cold_and_warm_cache_agree(self):
        for label, f, xbar, y, z in _golden_queries()[::3]:
            oracle._random_blocks.cache_clear()
            cold = _golden_digest(f, xbar, y, z, "sum")
            assert oracle._random_blocks.cache_info().misses == 1
            assert _golden_digest(f, xbar, y, z, "sum") == cold, label
            assert oracle._random_blocks.cache_info().hits == 1

    def test_cached_directions_reject_writes(self):
        plan = oracle._random_blocks(5, 256, 500, 3)
        assert oracle._random_blocks(5, 256, 500, 3) is plan
        for blocks in plan:
            for block in blocks:
                assert not block.flags.writeable
                with pytest.raises(ValueError):
                    block[0, 0] = 1.0

    def test_blocks_follow_the_generator_stream(self):
        # blocks of at most _BLOCK_FLOATS // m rows, in the order of one
        # fresh generator drawing block by block
        m, count = 500, 256
        rows = oracle._BLOCK_FLOATS // m
        rng = np.random.default_rng(9)
        for blocks in oracle._random_blocks(9, count, m, 2):
            assert [len(b) for b in blocks] == [min(rows, count - s) for s in range(0, count, rows)]
            for block in blocks:
                draws = rng.standard_normal((len(block), m))
                np.testing.assert_array_equal(block, draws / np.linalg.norm(draws, axis=1)[:, None])

    def test_unhashable_seed_draws_afresh(self):
        before = oracle._random_blocks.cache_info()
        op = BallProjection(1.0)
        args = (op.project, np.array([1.0, 0.0]), np.zeros(2), np.array([1.3, 0.0]))
        a = membership(*args, ProbeConfig(seed=[5, 1], random_directions=8))
        b = membership(*args, ProbeConfig(seed=[5, 1], random_directions=8))
        assert a.to_json() == b.to_json()
        assert oracle._random_blocks.cache_info() == before


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
                    # the safe norms warn on their plain attempt's overflow
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
        with np.errstate(over="ignore"):
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
