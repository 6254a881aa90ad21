import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from varproj import orthant
from varproj.descriptors import CoordinateMaskMap, EmptySet, IdentityMap, SingletonSet, ZeroMap
from varproj.oracle import ProbeConfig, Verdict, _form, jacobian_fd, membership
from varproj.orthant import OrthantRegion
from varproj.vectors import SparseVector, inner, norm

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def points(n=4):
    return st.lists(finite, min_size=n, max_size=n).map(np.array)


# entries of magnitude 1e-300..1e300, as m * 10^e with 1 <= m < 10, of either sign, or zeros of either sign
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 299))
wide_entries = st.one_of(st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda v: -v))
wide_points = st.lists(wide_entries, min_size=4, max_size=4).map(np.array)

# sign patterns: exact zeros of both signs next to small and large magnitudes
signed_entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e300]), finite)
sign_patterns = st.lists(signed_entries, min_size=1, max_size=8).map(np.array)


def _region_from_partition(x):
    """Reference region: read off the index sets of the positive, negative and zero coordinates."""
    plus, minus, zero = (np.flatnonzero(test(x, 0.0)) for test in (np.greater, np.less, np.equal))
    if zero.size:
        return OrthantRegion.WITH_ZEROS
    if not minus.size:
        return OrthantRegion.POSITIVE
    if not plus.size:
        return OrthantRegion.NEGATIVE
    return OrthantRegion.MIXED


class TestProjection:
    def test_frozen(self):
        np.testing.assert_array_equal(
            orthant.project(np.array([2.0, -1.0, 0.0])), [2.0, 0.0, 0.0]
        )

    def test_rows_match_project_exactly(self):
        rng = np.random.default_rng(31)
        block = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-200, 200, (20, 1))
        block[3] = 0.0
        block[4, 1] = -0.0
        got = orthant.project_rows(block)
        np.testing.assert_array_equal(got, np.array([orthant.project(row) for row in block]))
        assert _form(orthant.project, "rows") is orthant.project_rows
        with pytest.raises(ValueError):
            orthant.project_rows([[1.0, np.nan]])

    @given(points())
    def test_feasible_idempotent(self, x):
        p = orthant.project(x)
        assert np.all(p >= 0.0)
        np.testing.assert_array_equal(orthant.project(p), p)

    @given(points())
    def test_positive_homogeneous(self, x):
        for lam in (0.0, 0.5, 2.0):
            np.testing.assert_array_equal(orthant.project(lam * x), lam * orthant.project(x))


class TestWideMagnitudeProperties:
    """The projection's laws for entries anywhere in 1e-300..1e300, and signed zeros."""

    @given(wide_points)
    def test_feasible_and_idempotent(self, x):
        p = orthant.project(x)
        assert np.all(p >= 0.0)
        assert orthant.project(p).tobytes() == p.tobytes()

    @given(wide_points, wide_points)
    def test_nonexpansive(self, u, v):
        with np.errstate(over="ignore"):
            d = u - v
        assume(np.all(np.isfinite(d)))
        assert norm(orthant.project(u) - orthant.project(v)) <= norm(d) * (1.0 + 4.0 * np.finfo(float).eps)

    @given(wide_points, st.integers(-200, 200))
    def test_scaling(self, x, k):
        # P(2^k x) = 2^k P(x) bit for bit wherever scaling by 2^k is exact
        s = 2.0**k
        with np.errstate(over="ignore"):
            sx = s * x
        tiny = np.finfo(float).tiny
        assume(np.all(np.isfinite(sx)))
        assume(np.all((x == 0.0) | ((np.abs(x) >= tiny) & (np.abs(sx) >= tiny))))
        assert orthant.project(sx).tobytes() == (s * orthant.project(x)).tobytes()


class TestSignPartition:
    def test_region_dispatch(self):
        assert orthant.region(np.array([1.0, 2.0])) is OrthantRegion.POSITIVE
        assert orthant.region(np.array([-1.0, -0.1])) is OrthantRegion.NEGATIVE
        assert orthant.region(np.array([1.0, -2.0])) is OrthantRegion.MIXED
        assert orthant.region(np.array([1.0, 0.0])) is OrthantRegion.WITH_ZEROS
        assert orthant.region(np.zeros(2)) is OrthantRegion.WITH_ZEROS

    def test_negative_zero_is_a_zero(self):
        assert orthant.region(np.array([1.0, -0.0])) is OrthantRegion.WITH_ZEROS
        assert orthant.region(np.array([-0.0])) is OrthantRegion.WITH_ZEROS
        assert _region_from_partition(np.array([1.0, -0.0])) is OrthantRegion.WITH_ZEROS

    @given(sign_patterns)
    def test_region_matches_sign_partition(self, x):
        assert orthant.region(x) is _region_from_partition(x)

    def test_region_validates_like_as_vector(self):
        with pytest.raises(ValueError):
            orthant.region([1.0, np.nan])
        with pytest.raises(ValueError):
            orthant.region([])


class TestMaskAndCorner:
    """``gateaux`` is the positive mask at mixed points and clips w on the zeros."""

    def test_positive_mask_frozen(self):
        got = orthant.gateaux(np.array([2.0, -3.0]), np.array([5.0, 7.0]))
        np.testing.assert_array_equal(got, [5.0, 0.0])

    def test_corner_frozen(self):
        got = orthant.gateaux(np.array([1.0, 0.0, -1.0]), np.array([2.0, -3.0, 4.0]))
        np.testing.assert_array_equal(got, [2.0, 0.0, 0.0])
        got = orthant.gateaux(np.array([1.0, 0.0, -1.0]), np.array([2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(got, [2.0, 3.0, 0.0])

    def test_corner_at_origin_is_projection(self):
        w = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(orthant.gateaux(np.zeros(3), w), orthant.project(w))


class TestGateaux:
    def test_dispatch(self):
        w = np.array([1.0, -1.0])
        np.testing.assert_array_equal(orthant.gateaux(np.array([1.0, 2.0]), w), w)
        np.testing.assert_array_equal(orthant.gateaux(np.array([-1.0, -2.0]), w), np.zeros(2))
        np.testing.assert_array_equal(orthant.gateaux(np.array([1.0, -2.0]), w), [1.0, 0.0])
        np.testing.assert_array_equal(orthant.gateaux(np.array([1.0, 0.0]), w), [1.0, 0.0])

    @pytest.mark.parametrize(
        "x", [[1.0, 2.0], [-1.0, -2.0], [1.0, -2.0]], ids=["positive", "negative", "mixed"]
    )
    def test_rejects_other_dimensions(self, x):
        for w in (np.ones(1), np.ones(3)):
            with pytest.raises(ValueError):
                orthant.gateaux(np.array(x), w)
        with pytest.raises(TypeError):
            orthant.gateaux(np.array(x), SparseVector({1: 1.0}))

    def test_forward_quotient_exact_at_corner(self):
        # one-sided quotients stabilize once the step is below the
        # smallest nonzero coordinate
        x = np.array([0.5, 0.0, -0.5])
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal(3)
            fd = (orthant.project(x + 1e-3 * w) - orthant.project(x)) / 1e-3
            np.testing.assert_allclose(orthant.gateaux(x, w), fd, atol=1e-12)


class TestFrechet:
    def test_kinds(self):
        assert isinstance(orthant.frechet(np.array([1.0, 2.0])), IdentityMap)
        assert isinstance(orthant.frechet(np.array([-1.0, -2.0])), ZeroMap)
        m = orthant.frechet(np.array([1.0, -2.0]))
        assert isinstance(m, CoordinateMaskMap) and m.keep == frozenset({0})
        assert orthant.frechet(np.array([1.0, 0.0])) is None

    def test_matches_numerical_jacobian(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(4)
            if np.min(np.abs(x)) < 0.05:
                continue
            np.testing.assert_allclose(
                orthant.frechet(x).matrix(), jacobian_fd(orthant.project, x), atol=1e-5
            )


class TestCoderivative:
    def test_smooth_regions(self):
        y = np.array([3.0, 4.0])
        d = orthant.coderivative(np.array([1.0, 2.0]), y)
        np.testing.assert_array_equal(d.value, y)
        d = orthant.coderivative(np.array([-1.0, -2.0]), y)
        np.testing.assert_array_equal(d.value, np.zeros(2))
        d = orthant.coderivative(np.array([1.0, -1.0]), y)
        np.testing.assert_array_equal(d.value, [3.0, 0.0])

    def test_corner_zero_target(self):
        d = orthant.coderivative(np.array([1.0, 0.0]), np.zeros(2))
        assert isinstance(d, SingletonSet)
        assert d.contains(np.zeros(2)) is True

    def test_corner_self_no_positives(self):
        d = orthant.coderivative(np.array([0.0, -1.0]), np.array([0.0, -1.0]))
        assert isinstance(d, SingletonSet)
        assert d.contains(np.zeros(2)) is True
        assert d.contains(np.array([0.0, -1.0])) is False

    def test_corner_self_with_positives_empty(self):
        xbar = np.array([1.0, 0.0])
        d = orthant.coderivative(xbar, xbar)
        assert isinstance(d, EmptySet)

    def test_scaled_exclusion(self):
        xbar = np.zeros(2)
        y = np.array([0.0, -1.0])
        d = orthant.coderivative(xbar, y)
        assert d.contains(0.5 * y) is False
        assert d.contains(np.zeros(2)) is False
        assert d.contains(-y) is False
        # scalings at or beyond the target are not covered by the rule
        assert d.contains(y) is None
        assert d.contains(1.5 * y) is None
        # non-multiples are not covered either
        assert d.contains(np.array([1.0, -1.0])) is None

    @pytest.mark.parametrize("s", [1e200, 1e-200, 1.0])
    def test_exclusion_at_wide_magnitudes(self, s):
        # <y, y> over- or underflows at 1e+-200; the rule answers as at s = 1
        y = s * np.array([-1.0, 1.0])
        d = orthant.coderivative(np.array([0.0, 1.0]), y)
        assert d.contains(0.5 * y) is False
        assert d.contains(-3.0 * y) is False
        assert d.contains(np.zeros(2)) is False
        assert d.contains(y) is None
        assert d.contains(2.0 * y) is None
        if s >= 1.0:  # below 1 the tolerance's absolute floor makes every small z a multiple
            assert d.contains(s * np.array([1.0, 1.0])) is None

    @pytest.mark.parametrize("y", [[-0.01, -0.01, -0.01], [-0.01, 0.0, -0.01]], ids=["no-zero", "zero-entry"])
    def test_overflowing_multiple_answers_none(self, y):
        # z = -2.5e308 y: lambda = <z, y> / <y, y> is not finite after the
        # 2^-e scaling, nor is z - lambda y (inf * 0 at a zero entry of y);
        # the rule answers None, with no exception and no warning
        d = orthant.coderivative(np.array([0.0, 1.0, 1.0]), np.array(y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.contains(np.full(3, 2.5e306)) is None
            assert d.contains(np.full(3, -2.5e306)) is None
            assert d.contains(0.5 * np.array(y)) is False

    def test_exclusion_needs_negative_on_zero(self):
        d = orthant.coderivative(np.array([0.0, -2.0]), np.array([1.0, 1.0]))
        assert d.contains(np.zeros(2)) is None

    @pytest.mark.parametrize("y", [[1.0, 1.0], [-1.0, 1.0]], ids=["undecided", "excluding"])
    def test_partial_rejects_other_dimensions_and_kinds(self, y):
        d = orthant.coderivative(np.array([0.0, -2.0]), np.array(y))
        assert isinstance(d, orthant.CornerPartial)
        for z in (np.zeros(3), np.zeros(1), "abc", [0.0, np.inf]):
            with pytest.raises(ValueError):
                d.contains(z)
        with pytest.raises(TypeError):
            d.contains(SparseVector.zero())

    def test_json(self):
        xbar = np.zeros(2)
        j = orthant.coderivative(xbar, np.array([0.0, -1.0])).to_json()
        assert j["variant"] == "partial" and j["rule"] == "cone-corner"


# points with no zero coordinate, where the projection is Frechet differentiable
smooth_points = st.lists(finite.filter(bool), min_size=4, max_size=4).map(np.array)


class TestDifferentiableAgreement:
    """Off the corners, the Frechet map is the Gateaux derivative, is self-adjoint, and gives the coderivative."""

    eps = np.finfo(float).eps

    @given(smooth_points, points())
    def test_coderivative_contains_the_adjoint_image(self, x, y):
        assert orthant.coderivative(x, y).contains(orthant.frechet(x)(y)) is True

    @given(smooth_points, points())
    def test_gateaux_is_the_frechet_map(self, x, w):
        assert norm(orthant.gateaux(x, w) - orthant.frechet(x)(w)) <= 4.0 * self.eps * norm(w)

    @given(smooth_points, points(), points())
    def test_frechet_map_is_self_adjoint(self, x, w, u):
        derivative = orthant.frechet(x)
        gap = abs(inner(derivative(w), u) - inner(w, derivative(u)))
        assert gap <= 4.0 * self.eps * norm(w) * norm(u)


class TestKnownBlindSpot:
    def test_positive_part_query_is_numerically_member(self):
        # The closed-form answer for the self-target query at a corner
        # point with positive coordinates is the empty set, which the
        # positive-part candidate itself escapes: its difference
        # quotient vanishes identically near xbar, so the numerical
        # check reports a member. Kept as a regression marker for the
        # boundary of the symbolic rule.
        xbar = np.array([1.0, 0.0])
        d = orthant.coderivative(xbar, xbar)
        z = orthant.project(xbar)
        assert d.contains(z) is False
        verdict = membership(orthant.project, xbar, xbar, z, ProbeConfig(seed=1))
        assert verdict.verdict is Verdict.MEMBER
