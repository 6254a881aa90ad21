import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from varproj.ball import BallProjection, BallRegion, DirectionClass, SpherePartial
from varproj.descriptors import EmptySet, IdentityMap, ScaledComplementMap, SingletonSet
from varproj.oracle import directional_quotient, jacobian_fd
from varproj.vectors import SparseVector, norm

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def points(n=4):
    return st.lists(finite, min_size=n, max_size=n).map(np.array)


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


class TestWideMagnitudes:
    """Norms that over- or underflow when squared give right answers, not silent zeros."""

    def test_overflowing_point(self):
        with np.errstate(over="ignore"):
            got = BallProjection(1.0).project(np.array([1e200, 1e200]))
        np.testing.assert_allclose(got, [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)

    def test_underflowing_radius(self):
        got = BallProjection(1e-200).project(np.array([3e-200, 4e-200]))
        np.testing.assert_allclose(got, [6e-201, 8e-201], rtol=1e-15)

    def test_norm_beyond_the_largest_double(self):
        with np.errstate(over="ignore"):
            got = BallProjection(1.0).project(np.array([1.5e308, -1.5e308]))
        np.testing.assert_allclose(got, [np.sqrt(0.5), -np.sqrt(0.5)], rtol=1e-15)

    def test_scale_that_underflows(self):
        with np.errstate(over="ignore"):
            got = BallProjection(1e-200).project(np.array([3e200, 4e200]))
        np.testing.assert_allclose(got, [6e-201, 8e-201], rtol=1e-15)

    def test_self_query_whose_difference_squares_overflow(self):
        # y = x (1 + 1e-13) is the self query y = x, as at r = 1
        x = np.array([6e199, -8e199])
        with np.errstate(over="ignore"):
            assert BallProjection(1e200).coderivative(x, x * (1.0 + 1e-13)).to_json() == {"variant": "empty"}

    @pytest.mark.parametrize("r", [1.0, 1e100, 1e200, 1e-100, 1e-200])
    def test_region_at_large_radii(self, r):
        op = BallProjection(5.0 * r)
        with np.errstate(over="ignore"):
            assert op.region(np.array([3.0 * r, 4.0 * r])) is BallRegion.SPHERE
            assert op.region(np.array([3.0 * r, 3.9 * r])) is BallRegion.INTERIOR
            assert op.region(np.array([3.0 * r, 4.1 * r])) is BallRegion.EXTERIOR


class TestProjectRows:
    """project_rows(U)[i] agrees with project(U[i]) to within 4 ulp."""

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
        with np.errstate(over="ignore"):
            got = op.project_rows(block)
            want = np.array([op.project(row) for row in block])
        np.testing.assert_array_max_ulp(got, want, maxulp=4)

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
        np.testing.assert_allclose(m.matrix(2), [[0.0, 0.0], [0.0, 0.5]])

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
            np.testing.assert_allclose(m.matrix(4), jacobian_fd(op.project, x), atol=1e-5)


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

    def test_json_variants(self):
        xbar = np.array([1.0, 0.0])
        assert self.op.coderivative(np.zeros(2), np.ones(2)).to_json()["variant"] == "singleton"
        assert self.op.coderivative(xbar, xbar).to_json()["variant"] == "empty"
        j = self.op.coderivative(xbar, -xbar).to_json()
        assert j["variant"] == "partial" and j["rule"] == "ball-sphere"
