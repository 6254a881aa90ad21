import numpy as np
import pytest

from varproj.descriptors import (
    CoordinateMaskMap,
    EmptySet,
    IdentityMap,
    ScaledComplementMap,
    SingletonSet,
    ZeroMap,
)
from varproj.vectors import SparseVector


class TestSets:
    def test_singleton_contains(self):
        s = SingletonSet(np.array([1.0, 2.0]))
        assert s.contains(np.array([1.0, 2.0])) is True
        assert s.contains(np.array([1.0, 2.0 + 1e-12])) is True
        assert s.contains(np.array([1.0, 2.1])) is False

    def test_singleton_rejects_other_dimensions_and_kinds(self):
        s = SingletonSet(np.zeros(2))
        for z in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError):
                s.contains(z)
        with pytest.raises(TypeError):
            s.contains(SparseVector.zero())

    def test_singleton_sparse(self):
        s = SingletonSet(SparseVector({1: 1.0}))
        assert s.contains(SparseVector({1: 1.0})) is True
        assert s.contains(SparseVector.zero()) is False

    def test_empty(self):
        e = EmptySet(2)
        assert e.contains(np.zeros(2)) is False
        assert e.to_json() == {"variant": "empty"}

    def test_empty_rejects_other_dimensions_and_kinds(self):
        e = EmptySet(2)
        for z in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError):
                e.contains(z)
        with pytest.raises(TypeError):
            e.contains(SparseVector.zero())

    def test_empty_from_the_sets_checks_its_query(self):
        from varproj import orthant
        from varproj.ball import BallProjection

        for empty in (BallProjection(1.0).coderivative(np.array([0.6, 0.8]), np.array([0.6, 0.8])),
                      orthant.coderivative(np.array([1.0, 0.0]), np.array([1.0, 0.0]))):
            assert empty == EmptySet(2)
            assert empty.contains([5.0, -1.0]) is False
            with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
                empty.contains(np.zeros(3))
            with pytest.raises(TypeError):
                empty.contains(SparseVector({1: 1.0}))

    def test_singleton_json(self):
        assert SingletonSet(np.array([0.5, 0.0])).to_json() == {
            "variant": "singleton",
            "value": [0.5, 0.0],
        }


class TestLinearMaps:
    def test_identity(self):
        m = IdentityMap()
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(m(v), v)
        np.testing.assert_array_equal(m.matrix(2), np.eye(2))

    def test_zero(self):
        m = ZeroMap()
        np.testing.assert_array_equal(m(np.array([3.0, 4.0])), np.zeros(2))

    def test_scaled_complement_frozen(self):
        # projection derivative outside the unit ball at (2, 0)
        m = ScaledComplementMap.from_point(0.5, np.array([2.0, 0.0]))
        np.testing.assert_allclose(m(np.array([1.0, 1.0])), [0.0, 0.5])
        np.testing.assert_allclose(m.matrix(2), [[0.0, 0.0], [0.0, 0.5]])

    def test_scaled_complement_self_adjoint(self):
        rng = np.random.default_rng(3)
        axis = rng.standard_normal(4)
        m = ScaledComplementMap.from_point(0.8, axis)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        assert abs(np.dot(m(u), v) - np.dot(u, m(v))) < 1e-12

    def test_scaled_complement_kills_axis(self):
        axis = np.array([1.0, 2.0, -1.0])
        m = ScaledComplementMap.from_point(1.3, axis)
        assert np.linalg.norm(m(axis)) < 1e-12

    def test_coordinate_mask(self):
        m = CoordinateMaskMap(keep=frozenset({0, 2}), dim=3)
        np.testing.assert_array_equal(m(np.array([1.0, 2.0, 3.0])), [1.0, 0.0, 3.0])
        np.testing.assert_array_equal(m.matrix(3), np.diag([1.0, 0.0, 1.0]))

    def test_json_kinds(self):
        assert IdentityMap().to_json()["kind"] == "identity"
        assert ZeroMap().to_json()["kind"] == "zero"
        assert CoordinateMaskMap(frozenset({1}), 2).to_json()["kind"] == "coordinate_mask"
        j = ScaledComplementMap.from_point(0.5, np.array([2.0, 0.0])).to_json()
        assert j["kind"] == "scaled_complement" and j["scale"] == 0.5
