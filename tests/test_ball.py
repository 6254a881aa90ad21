import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from varproj import vectors
from varproj.ball import BallProjection, BallRegion, DirectionClass, SpherePartial
from varproj.descriptors import EmptySet, IdentityMap, ScaledComplementMap, SingletonSet
from varproj.oracle import directional_quotient, jacobian_fd
from varproj.vectors import SparseVector, approx_equal, inner, norm

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def points(n=4):
    return st.lists(finite, min_size=n, max_size=n).map(np.array)


# magnitudes from 1e-300 to 1e300, as m * 10^e with 1 <= m < 10
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 299))


def wide_points(n=4):
    """Vectors whose entries each have their own magnitude in 1e-300..1e300 (or are zero), or share one."""
    entries = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))
    shared = st.builds(lambda v, e: v * 10.0**e, points(n), st.integers(-300, 299))
    return st.one_of(st.lists(entries, min_size=n, max_size=n).map(np.array), shared)


def _ulp(v: np.ndarray) -> float:
    """The spacing of doubles at max|v|."""
    return float(np.spacing(np.max(np.abs(v))))


class TestProjection:
    def test_frozen_exterior(self):
        op = BallProjection(1.0)
        np.testing.assert_allclose(op.project(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_interior_unchanged(self):
        op = BallProjection(2.0)
        x = np.array([0.3, -0.4])
        np.testing.assert_array_equal(op.project(x), x)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            BallProjection(0.0)
        with pytest.raises(ValueError):
            BallProjection(float("nan"))
        for radius in (True, "1.0", None, 1 + 0j):
            with pytest.raises(TypeError):
                BallProjection(radius)

    def test_radius_is_a_float(self):
        # a float32 radius kept as given scales by a float32 r / ||x||, to a
        # point below the float radius that the region test calls interior
        op = BallProjection(np.float32(0.1))
        assert type(op.radius) is float and op.radius == float(np.float32(0.1))
        p = op.project([3.0, 4.0])
        assert p.dtype == np.float64
        assert op.region(p) is BallRegion.SPHERE
        assert BallProjection(2).radius == 2.0 and type(BallProjection(2).radius) is float

    @given(points(), points())
    def test_nonexpansive(self, u, v):
        op = BallProjection(1.5)
        assert norm(op.project(u) - op.project(v)) <= norm(u - v) + 1e-12

    @given(points())
    def test_idempotent_and_feasible(self, x):
        op = BallProjection(1.5)
        p = op.project(x)
        assert norm(p) <= 1.5 + 1e-12
        assert norm(op.project(p) - p) <= 1e-12


class TestWideMagnitudeProperties:
    """The projection's laws for x and r anywhere in 1e-300..1e300."""

    @given(wide_points(), magnitudes)
    def test_feasible(self, x, r):
        assert norm(BallProjection(r).project(x)) <= r * (1.0 + 4.0 * np.finfo(float).eps)

    @given(wide_points(), magnitudes)
    def test_idempotent(self, x, r):
        op = BallProjection(r)
        p = op.project(x)
        assert np.max(np.abs(op.project(p) - p)) <= 8.0 * _ulp(p)

    @given(wide_points(), wide_points(), magnitudes)
    def test_nonexpansive(self, u, v, r):
        with np.errstate(over="ignore"):
            d = u - v
        assume(np.all(np.isfinite(d)))
        op = BallProjection(r)
        # each entry of a projection rounds by about an ulp of r
        assert norm(op.project(u) - op.project(v)) <= norm(d) * (1.0 + 4.0 * np.finfo(float).eps) + 8.0 * _ulp(r)

    @given(wide_points(), magnitudes, st.integers(-200, 200))
    def test_scaling(self, x, r, k):
        # P_{2^k r}(2^k x) = 2^k P_r(x) wherever scaling by 2^k is exact
        s = 2.0**k
        with np.errstate(over="ignore"):
            sx, sr = s * x, s * r
        tiny = np.finfo(float).tiny
        assume(np.isfinite(sr) and sr >= tiny and np.all(np.isfinite(sx)))
        assume(np.all((x == 0.0) | ((np.abs(x) >= tiny) & (np.abs(sx) >= tiny))))
        want = s * BallProjection(r).project(x)
        assert np.max(np.abs(BallProjection(sr).project(sx) - want)) <= 4.0 * _ulp(want)


class TestWideMagnitudes:
    """Norms that over- or underflow when squared give right answers, not silent zeros."""

    def test_overflowing_point(self):
        got = BallProjection(1.0).project(np.array([1e200, 1e200]))
        np.testing.assert_allclose(got, [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)

    def test_underflowing_radius(self):
        got = BallProjection(1e-200).project(np.array([3e-200, 4e-200]))
        np.testing.assert_allclose(got, [6e-201, 8e-201], rtol=1e-15)

    def test_norm_beyond_the_largest_double(self):
        got = BallProjection(1.0).project(np.array([1.5e308, -1.5e308]))
        np.testing.assert_allclose(got, [np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-15)

    def test_scale_that_underflows(self):
        got = BallProjection(1e-200).project(np.array([3e200, 4e200]))
        np.testing.assert_allclose(got, [6e-201, 8e-201], rtol=1e-15)

    def test_self_query_whose_difference_squares_overflow(self):
        # y = x (1 + 1e-13) is the self query y = x, as at r = 1
        x = np.array([6e199, -8e199])
        assert BallProjection(1e200).coderivative(x, x * (1.0 + 1e-13)).to_json() == {"variant": "empty"}

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    @pytest.mark.parametrize("y", [[0.3, 0.4], [-0.3, -0.4], [0.6, 0.8], [0.6, 0.8 + 1e-13], [1.2, 1.6],
                                   [-1.2, -1.6], [0.8, -0.6], [-0.5, 0.1]],
                             ids=["half", "minus-half", "self", "near-self", "double", "minus-double",
                                  "tangent", "mixed"])
    def test_sphere_coderivative_at_extreme_radii(self, r, y):
        # the coderivative of the positively homogeneous P is a cone in y and
        # scales with (x, y): at (r x, r y) on the ball of radius r it answers
        # as at (x, y) on the unit ball, the self query y = x included
        x, y = np.array([0.6, 0.8]), np.array(y)
        assert BallProjection(r).coderivative(r * x, r * y).to_json() == BallProjection(1.0).coderivative(x, y).to_json()

    def test_sphere_coderivative_of_a_target_beyond_the_largest_double(self):
        # ||y|| is no double: y is neither the self query nor radial
        want = {"variant": "partial", "rule": "ball-sphere", "known": {"contains_zero": False}}
        assert BallProjection(1.0).coderivative([0.6, 0.8], [1.5e308, 1.5e308]).to_json() == want
        assert BallProjection(1.0).coderivative([1.0, 0.0], [-1.5e308, 1.5e308]).to_json() == want
        inward = BallProjection(1.0).coderivative([1.0, 0.0], [-1.5e308, 1e-300]).to_json()
        assert inward["known"] == {"contains_zero": True}

    def test_sphere_coderivative_whose_split_product_overflows(self):
        # <y, xbar> = -1e310, yet y = -1e290 xbar + (0, 1e300) is not radial
        got = BallProjection(1e10).coderivative([1e10, 0.0], [-1e300, 1e300]).to_json()
        assert got == {"variant": "partial", "rule": "ball-sphere", "known": {"contains_zero": False}}

    @pytest.mark.parametrize("r, s", [(1e200, 1e-200), (1e200, 5e-324), (1e-200, 1e200)],
                             ids=["large-r", "subnormal-y", "small-r"])
    def test_radial_target_far_below_or_above_the_radius(self, r, s):
        # <y, xbar> = +-s r keeps its sign although a = +-s / r under- or overflows
        def known(y):
            return BallProjection(r).coderivative([r, 0.0], [y, 0.0]).to_json()["known"]
        assert known(s) == {"contains_zero": False}
        assert known(-s) == {"contains_zero": True}

    @pytest.mark.parametrize("r", [1e200, 1e-200])
    @pytest.mark.parametrize("w, kind", [
        ([0.8, 0.4], DirectionClass.OUTWARD),
        ([0.8, -0.6], DirectionClass.OUTWARD),     # tangent
        ([-0.6, 0.2], DirectionClass.INWARD),
        ([1.2, 1.6], DirectionClass.RADIAL),
    ], ids=["outward", "tangent", "inward", "radial"])
    def test_gateaux_at_extreme_radii(self, r, w, kind):
        # P is positively homogeneous: the limit at (r x, r w) on the ball of
        # radius r is r times the limit at (x, w) on the unit ball
        x, w = np.array([0.6, 0.8]), np.array(w)
        op = BallProjection(r)
        assert op.direction_class(r * x, r * w) is kind
        want = r * BallProjection(1.0).gateaux(x, w)
        np.testing.assert_allclose(op.gateaux(r * x, r * w), want, rtol=1e-14, atol=1e-16 * r)

    def test_gateaux_of_a_direction_beyond_the_largest_double(self):
        # <x, w> = 2.1e308 is no double, yet w - <x, w> x is; the direction
        # is read from w / 2^e
        op = BallProjection(1.0)
        w = np.array([1.5e308, 1.5e308])
        assert op.direction_class([0.6, 0.8], w) is DirectionClass.OUTWARD
        np.testing.assert_allclose(op.gateaux([0.6, 0.8], w), [2.4e307, -1.8e307], rtol=1e-14)
        assert op.direction_class([0.6, 0.8], -w) is DirectionClass.INWARD
        np.testing.assert_array_equal(op.gateaux([0.6, 0.8], -w), -w)
        assert op.direction_class([0.6, 0.8], [0.9e308, 1.2e308]) is DirectionClass.RADIAL

    @pytest.mark.parametrize("r", [1.0, 1e100, 1e200, 1e-100, 1e-200])
    def test_region_at_large_radii(self, r):
        op = BallProjection(5.0 * r)
        assert op.region(np.array([3.0 * r, 4.0 * r])) is BallRegion.SPHERE
        assert op.region(np.array([3.0 * r, 3.9 * r])) is BallRegion.INTERIOR
        assert op.region(np.array([3.0 * r, 4.1 * r])) is BallRegion.EXTERIOR


class TestProjectRows:
    """project_rows(U)[i] has the bits of project(U[i])."""

    @pytest.mark.parametrize("r", [1.0, 2.5, 1e-200, 1e200])
    def test_matches_project(self, r):
        rng = np.random.default_rng(29)
        unit = rng.standard_normal((3, 4))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        block = np.vstack([
            unit * (0.5 * r),                    # inside
            unit * r,                            # on the sphere, to rounding
            np.array([[r, 0.0, 0.0, 0.0]]),      # exactly on the sphere
            unit * (3.0 * r),                    # outside
            np.zeros((1, 4)),
            unit * 1e200,
            unit * 1e-200,
            rng.standard_normal((8, 4)),
        ])
        op = BallProjection(r)
        got = op.project_rows(block)
        want = np.array([op.project(row) for row in block])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_rows_inside_are_unchanged(self):
        block = np.array([[0.3, -0.4], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(BallProjection(1.0).project_rows(block), block)

    def test_validates_like_as_vector(self):
        op = BallProjection(1.0)
        for bad in ([1.0, 2.0], [[1.0, np.inf]], np.zeros((2, 0))):
            with pytest.raises(ValueError):
                op.project_rows(bad)


class TestRegion:
    def test_regions(self):
        op = BallProjection(1.0)
        assert op.region(np.array([0.5, 0.0])) is BallRegion.INTERIOR
        assert op.region(np.array([1.0, 0.0])) is BallRegion.SPHERE
        assert op.region(np.array([2.0, 0.0])) is BallRegion.EXTERIOR

    def test_sphere_band(self):
        op = BallProjection(1.0)
        assert op.region(np.array([1.0 + 1e-13, 0.0])) is BallRegion.SPHERE
        assert op.region(np.array([1.0 + 1e-10, 0.0])) is BallRegion.EXTERIOR


class TestDirectionClass:
    def setup_method(self):
        self.op = BallProjection(1.0)
        self.xbar = np.array([1.0, 0.0])

    def test_tangent_counts_as_outward(self):
        assert self.op.direction_class(self.xbar, np.array([0.0, 1.0])) is DirectionClass.OUTWARD

    def test_radial(self):
        assert self.op.direction_class(self.xbar, np.array([2.0, 0.0])) is DirectionClass.RADIAL

    def test_inward(self):
        assert self.op.direction_class(self.xbar, np.array([-1.0, 0.5])) is DirectionClass.INWARD

    def test_negative_radial_is_inward(self):
        assert self.op.direction_class(self.xbar, np.array([-1.0, 0.0])) is DirectionClass.INWARD

    def test_requires_sphere_point(self):
        with pytest.raises(ValueError):
            self.op.direction_class(np.array([0.5, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            self.op.direction_class(self.xbar, np.zeros(2))


class TestGateaux:
    def test_interior_identity(self):
        op = BallProjection(1.0)
        w = np.array([0.7, -0.1])
        np.testing.assert_array_equal(op.gateaux(np.array([0.2, 0.2]), w), w)

    def test_interior_rejects_other_dimensions(self):
        op = BallProjection(1.0)
        for w in (np.ones(1), np.ones(3)):
            with pytest.raises(ValueError):
                op.gateaux(np.array([0.1, 0.0]), w)

    def test_exterior_frozen(self):
        op = BallProjection(1.0)
        got = op.gateaux(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(got, [0.0, 0.5])

    def test_sphere_outward_frozen(self):
        op = BallProjection(1.0)
        got = op.gateaux(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(got, [0.0, 1.0])

    @pytest.mark.parametrize("w", [[1.0, 1.0], [0.0, 1e300], [-8e-301, 6e-301]], ids=["outward", "huge", "tangent"])
    def test_sphere_outward_halves_w_once(self, w, monkeypatch):
        # the classification hands its w / 2^e to the outward limit, whose
        # bits are those of w - <x, w> x / r^2 on w / 2^e, scaled back
        op, xbar, w = BallProjection(1.0), np.array([0.6, 0.8]), np.array(w)
        calls = []

        def counting(v):
            calls.append(v)
            return vectors._halved(v)

        monkeypatch.setattr("varproj.ball._halved", counting)
        got = op.gateaux(xbar, w)
        assert len(calls) == 1 and op.direction_class(xbar, w) is DirectionClass.OUTWARD
        half, e = vectors._halved(w)
        unit = xbar / 1.0
        np.testing.assert_array_equal(got, np.ldexp(half - float(vectors._dot(unit, half)) * unit, e))

    def test_sphere_radial_is_zero(self):
        op = BallProjection(1.0)
        got = op.gateaux(np.array([1.0, 0.0]), np.array([3.0, 0.0]))
        np.testing.assert_array_equal(got, np.zeros(2))

    def test_sphere_inward_identity(self):
        op = BallProjection(1.0)
        w = np.array([-1.0, 1.0])
        np.testing.assert_array_equal(op.gateaux(np.array([1.0, 0.0]), w), w)

    def test_matches_forward_quotient(self):
        op = BallProjection(1.0)
        rng = np.random.default_rng(11)
        xbar = np.array([1.0, 0.0, 0.0])
        for _ in range(25):
            w = rng.standard_normal(3)
            got = op.gateaux(xbar, w)
            fd = directional_quotient(op.project, xbar, w, 1e-6)
            np.testing.assert_allclose(got, fd, atol=1e-4)


class TestFrechet:
    def test_interior(self):
        assert isinstance(BallProjection(1.0).frechet(np.array([0.1, 0.0])), IdentityMap)

    def test_exterior_frozen_matrix(self):
        m = BallProjection(1.0).frechet(np.array([2.0, 0.0]))
        assert isinstance(m, ScaledComplementMap)
        np.testing.assert_allclose(m.matrix(), [[0.0, 0.0], [0.0, 0.5]])

    def test_sphere_not_differentiable(self):
        assert BallProjection(1.0).frechet(np.array([1.0, 0.0])) is None

    def test_matches_numerical_jacobian(self):
        op = BallProjection(2.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(4)
            if abs(norm(x) - 2.0) < 0.2:
                continue
            m = op.frechet(x)
            np.testing.assert_allclose(m.matrix(), jacobian_fd(op.project, x), atol=1e-5)


class TestCoderivative:
    def setup_method(self):
        self.op = BallProjection(1.0)

    def test_interior_singleton(self):
        y = np.array([0.3, -0.7])
        d = self.op.coderivative(np.array([0.5, 0.0]), y)
        assert isinstance(d, SingletonSet)
        np.testing.assert_array_equal(d.value, y)

    def test_exterior_frozen(self):
        d = self.op.coderivative(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert isinstance(d, SingletonSet)
        np.testing.assert_allclose(d.value, [0.0, 0.5])

    def test_exterior_uses_adjoint(self):
        # the derivative map is self-adjoint, so the coderivative applies it directly
        rng = np.random.default_rng(9)
        x = np.array([0.0, 3.0, 0.0])
        y = rng.standard_normal(3)
        d = self.op.coderivative(x, y)
        np.testing.assert_allclose(d.value, self.op.frechet(x)(y), atol=1e-14)

    def test_sphere_zero_target(self):
        d = self.op.coderivative(np.array([1.0, 0.0]), np.zeros(2))
        assert isinstance(d, SingletonSet)
        assert d.contains(np.zeros(2)) is True
        assert d.contains(np.array([0.1, 0.0])) is False

    def test_sphere_self_target_empty(self):
        xbar = np.array([1.0, 0.0])
        d = self.op.coderivative(xbar, xbar)
        assert isinstance(d, EmptySet)
        assert d.contains(xbar) is False

    def test_sphere_partial_contains_zero(self):
        xbar = np.array([1.0, 0.0])
        d = self.op.coderivative(xbar, np.array([-2.0, 0.0]))
        assert d.contains(np.zeros(2)) is True

    def test_sphere_partial_positive_radial_excludes_zero(self):
        xbar = np.array([1.0, 0.0])
        d = self.op.coderivative(xbar, np.array([0.5, 0.0]))
        assert d.contains(np.zeros(2)) is False

    def test_sphere_partial_orth_excludes_zero(self):
        xbar = np.array([1.0, 0.0])
        d = self.op.coderivative(xbar, np.array([0.0, 1.0]))
        assert d.contains(np.zeros(2)) is False

    def test_sphere_partial_nonzero_query_unknown(self):
        xbar = np.array([1.0, 0.0])
        d = self.op.coderivative(xbar, np.array([-2.0, 0.0]))
        assert d.contains(np.array([0.3, 0.0])) is None

    def test_sphere_partial_rejects_other_dimensions_and_kinds(self):
        d = self.op.coderivative(np.array([0.6, 0.8]), np.array([-0.6, -0.8]))
        assert isinstance(d, SpherePartial)
        for z in (np.zeros(3), np.zeros(1), np.array([0.3, 0.0, 0.0]), "abc"):
            with pytest.raises(ValueError):
                d.contains(z)
        with pytest.raises(TypeError):
            d.contains(SparseVector.zero())

    def test_sphere_partial_splits_once(self, monkeypatch):
        # the sphere rule splits y through the private core, on its checked arrays
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return vectors._split(*args, **kwargs)

        monkeypatch.setattr("varproj.ball._split", counting)
        d = self.op.coderivative(np.array([0.6, 0.8]), np.array([-1.2, -1.6]))
        assert d.to_json()["known"] == {"contains_zero": True}
        assert [d.contains(np.zeros(2)) for _ in range(3)] == [True] * 3
        assert len(calls) == 1

    def test_json_variants(self):
        xbar = np.array([1.0, 0.0])
        assert self.op.coderivative(np.zeros(2), np.ones(2)).to_json()["variant"] == "singleton"
        assert self.op.coderivative(xbar, xbar).to_json()["variant"] == "empty"
        j = self.op.coderivative(xbar, -xbar).to_json()
        assert j["variant"] == "partial" and j["rule"] == "ball-sphere"


# entries of magnitude 1e-6..5 or zero, and radii 1e-100..1e101: no product
# or square of x, y or x scaled by 2^k, |k| <= 60, is subnormal or overflows
moderate_entries = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0),
                             st.floats(min_value=-5.0, max_value=-1e-6))
moderate_points = st.lists(moderate_entries, min_size=4, max_size=4).map(np.array)
moderate_radii = st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99), st.integers(-100, 100))
# ||x|| / r: the origin, the sphere, inside and outside
spans = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=3.0))


def _at_span(v: np.ndarray, r: float, c: float) -> np.ndarray:
    """v scaled to norm c * r (up to rounding), or 0 for a zero v."""
    return v * (c * r / norm(v)) if v.any() else v


class TestDifferentiableAgreement:
    """Off the sphere, the Frechet map is the Gateaux derivative, is self-adjoint, and gives the coderivative."""

    eps = np.finfo(float).eps

    @given(moderate_points, moderate_points, moderate_radii,
           st.one_of(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=1.01, max_value=5.0)))
    def test_coderivative_contains_the_adjoint_image(self, v, y, r, c):
        op, x = BallProjection(r), _at_span(v, r, c)
        assert op.coderivative(x, y).contains(op.frechet(x)(y)) is True

    @given(moderate_points, moderate_points, moderate_radii,
           st.one_of(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=1.01, max_value=5.0)))
    def test_gateaux_is_the_frechet_map(self, v, w, r, c):
        op, x = BallProjection(r), _at_span(v, r, c)
        assert norm(op.gateaux(x, w) - op.frechet(x)(w)) <= 4.0 * self.eps * norm(w)

    @given(moderate_points, moderate_points, moderate_points, moderate_radii,
           st.one_of(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=1.01, max_value=5.0)))
    def test_frechet_map_is_self_adjoint(self, v, w, u, r, c):
        derivative = BallProjection(r).frechet(_at_span(v, r, c))
        gap = abs(inner(derivative(w), u) - inner(w, derivative(u)))
        assert gap <= 4.0 * self.eps * norm(w) * norm(u)


class TestScalingWithTheBall:
    """Scaling x and r by one power of two keeps the region and the coderivative (ROADMAP item 4)."""

    @given(moderate_points, moderate_points, moderate_radii, spans, st.sampled_from([-40, -3, 5, 60]))
    def test_region_and_coderivative(self, v, y, r, c, k):
        x, s = _at_span(v, r, c), 2.0**k
        # y near x or 2^k x is the self query of one side only
        assume(not approx_equal(y, x, rel=1e-9) and not approx_equal(y, s * x, rel=1e-9))
        small, large = BallProjection(r), BallProjection(s * r)
        assert large.region(s * x) is small.region(x)
        assert large.coderivative(s * x, y).to_json() == small.coderivative(x, y).to_json()
