import json
import re

import numpy as np
import pytest

from varproj import orthant
from varproj.ball import BallProjection
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

    def test_singleton_does_not_contain_a_query_beyond_the_largest_double(self):
        huge = np.array([1.5e308, 1.5e308])
        assert SingletonSet(np.zeros(2)).contains(huge) is False
        assert orthant.coderivative([1.0, 2.0], [0.0, 0.0]).contains(huge) is False
        assert SingletonSet(huge).contains(huge) is True

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
        m = IdentityMap(2)
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(m(v), v)
        np.testing.assert_array_equal(m.matrix(), np.eye(2))

    def test_zero(self):
        m = ZeroMap(2)
        np.testing.assert_array_equal(m(np.array([3.0, 4.0])), np.zeros(2))

    def test_scaled_complement_frozen(self):
        # projection derivative outside the unit ball at (2, 0)
        m = ScaledComplementMap.from_point(0.5, np.array([2.0, 0.0]))
        np.testing.assert_allclose(m(np.array([1.0, 1.0])), [0.0, 0.5])
        np.testing.assert_allclose(m.matrix(), [[0.0, 0.0], [0.0, 0.5]])

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
        np.testing.assert_array_equal(m.matrix(), np.diag([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("n", [2, 6, 50, 500])
    def test_mask_map_matches_the_fancy_index_form(self, n):
        # the map of orthant.frechet holds the mask x > 0; its image of v is
        # the zeros + fancy-index image of the keep set, bit for bit
        rng = np.random.default_rng(n)
        x = rng.uniform(0.1, 2.0, n) * rng.choice((-1.0, 1.0), n)
        x[0], x[-1] = 1.0, -1.0
        keep = frozenset(int(i) for i in np.flatnonzero(x > 0.0))
        v = rng.standard_normal(n)
        v[rng.choice(n, size=max(1, n // 4), replace=False)] = -0.0
        held, public = orthant.frechet(x), CoordinateMaskMap(keep=keep, dim=n)
        x[:] = -x  # the map keeps a copy of its mask
        want = np.zeros(n)
        want[sorted(keep)] = v[sorted(keep)]
        for m in (held, public):
            assert m._on(v).tobytes() == want.tobytes() and m(v).tobytes() == want.tobytes()
            assert not m._mask.flags.writeable
            assert m.keep == keep and m.dim == n
            assert m.to_json() == {"kind": "coordinate_mask", "keep": sorted(keep), "dim": n}
        assert held == public and hash(held) == hash(public) == hash((keep, n))
        assert held != CoordinateMaskMap(keep=keep - {min(keep)}, dim=n)

    @pytest.mark.parametrize("keep, dim, error", [
        (frozenset({-1}), 3, ValueError), ({5}, 3, ValueError), ({3}, 3, ValueError), ({True}, 3, TypeError),
        ({np.True_}, 3, TypeError), ({1.0}, 3, TypeError), ({0}, 3.0, TypeError), ({0}, True, TypeError),
    ], ids=["negative", "beyond", "dim", "bool", "numpy-bool", "float", "float-dim", "bool-dim"])
    def test_mask_map_rejects_a_coordinate_it_cannot_keep(self, keep, dim, error):
        # numpy would wrap -1 to the last coordinate, and raise IndexError for 5 only at the first call
        with pytest.raises(error):
            CoordinateMaskMap(keep=keep, dim=dim)

    @pytest.mark.parametrize("dim", [-2, 0, np.int64(-1)])
    def test_mask_map_rejects_a_dimension_below_one(self, dim):
        # numpy would raise "negative dimensions are not allowed" only at matrix()
        with pytest.raises(ValueError, match=r"dim must be at least 1, got "):
            CoordinateMaskMap(keep=frozenset(), dim=dim)

    @pytest.mark.parametrize("scale, error, message", [
        (float("nan"), ValueError, "scale must be finite, got nan"),
        (float("inf"), ValueError, "scale must be finite, got inf"),
        (-np.inf, ValueError, "scale must be finite, got -inf"),
        (True, TypeError, "scale must be a real number, got True"),
        (np.True_, TypeError, "scale must be a real number, got "),
        ("0.5", TypeError, "scale must be a real number, got '0.5'"),
    ], ids=["nan", "inf", "-inf", "bool", "numpy-bool", "str"])
    def test_scaled_complement_rejects_a_scale_that_is_no_finite_real(self, scale, error, message):
        # a NaN scale mapped [1, 1] to [nan, nan] and printed "scale": NaN
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            ScaledComplementMap(scale=scale, axis=[0.6, 0.8])
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            ScaledComplementMap.from_point(scale, np.array([3.0, 4.0]))

    def test_scaled_complement_holds_a_float_scale(self):
        for scale in (2, np.float32(0.5), np.int64(3)):
            m = ScaledComplementMap(scale=scale, axis=[0.6, 0.8])
            assert type(m.scale) is float and m.scale == scale
            assert type(ScaledComplementMap.from_point(scale, np.array([3.0, 4.0])).scale) is float

    def test_mask_map_holds_plain_ints(self):
        m = CoordinateMaskMap(keep={np.int64(2), 0}, dim=np.int64(3))
        assert m.keep == frozenset({0, 2}) and hash(m) == hash((frozenset({0, 2}), 3))
        assert json.dumps(m.to_json()) == '{"kind": "coordinate_mask", "keep": [0, 2], "dim": 3}'
        np.testing.assert_array_equal(m([1.0, 2.0, 3.0]), [1.0, 0.0, 3.0])

    @pytest.mark.parametrize("axis", [[2.0, 0.0], [0.6, 0.8 + 1e-9], [0.0, 0.0], [np.nan, 1.0], [[0.6, 0.8]], []],
                             ids=["long", "off-by-1e-9", "zero", "nan", "2d", "empty"])
    def test_scaled_complement_rejects_an_axis_that_is_no_unit_vector(self, axis):
        with pytest.raises(ValueError):
            ScaledComplementMap(scale=1.0, axis=np.array(axis))

    def test_scaled_complement_holds_a_read_only_copy_of_its_axis(self):
        axis = np.array([0.6, 0.8])
        m = ScaledComplementMap(scale=0.5, axis=axis)
        axis[:] = [1.0, 0.0]
        assert not m.axis.flags.writeable
        np.testing.assert_array_equal(m.axis, [0.6, 0.8])
        np.testing.assert_allclose(m(np.array([1.0, 1.0])), 0.5 * (np.ones(2) - 1.4 * np.array([0.6, 0.8])))
        assert ScaledComplementMap(scale=2.0, axis=[0.6, 0.8 + 1e-13]).dim == 2

    def test_json_kinds(self):
        assert IdentityMap(2).to_json()["kind"] == "identity"
        assert ZeroMap(2).to_json()["kind"] == "zero"
        assert CoordinateMaskMap(frozenset({1}), 2).to_json()["kind"] == "coordinate_mask"
        j = ScaledComplementMap.from_point(0.5, np.array([2.0, 0.0])).to_json()
        assert j["kind"] == "scaled_complement" and j["scale"] == 0.5


# (set, xbar, y, queries) for every dense regime of the two sets
_REGIMES = {
    "ball-interior": (BallProjection(1.0), [0.3, -0.2], [0.5, 1.5], [[0.5, 1.5], [0.0, 0.0]]),
    "ball-exterior": (BallProjection(1.0), [2.0, 0.0], [1.0, 1.0], [[0.0, 0.5], [1.0, 1.0]]),
    "ball-sphere": (BallProjection(1.0), [0.6, 0.8], [-1.2, -1.6], [[0.0, 0.0], [0.3, 0.1]]),
    "orthant-positive": (orthant, [1.0, 2.0], [0.5, -1.5], [[0.5, -1.5], [0.0, 0.0]]),
    "orthant-negative": (orthant, [-1.0, -2.0], [0.5, -1.5], [[0.0, 0.0], [0.5, -1.5]]),
    "orthant-mixed": (orthant, [1.0, -2.0], [0.5, -1.5], [[0.5, 0.0], [0.5, -1.5]]),
    "orthant-corner": (orthant, [0.0, 1.0], [-1.0, 2.0], [[-0.5, 1.0], [0.0, 0.0], [-1.0, 2.0]]),
}


class TestNoSharedArrays:
    """A descriptor keeps no array of its caller: changing xbar or y afterwards changes no answer."""

    @pytest.mark.parametrize("regime", sorted(_REGIMES))
    def test_answers_survive_writes_to_the_inputs(self, regime):
        ops, xbar, y, queries = _REGIMES[regime]
        xbar, y = np.array(xbar), np.array(y)
        d = ops.coderivative(xbar, y)
        before = (d.to_json(), [d.contains(np.array(z)) for z in queries])
        xbar[:] = 99.0
        y[:] = 99.0
        assert (d.to_json(), [d.contains(np.array(z)) for z in queries]) == before

    def test_corner_target_is_read_only(self):
        d = orthant.coderivative(np.array([0.0, 1.0]), np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            d.target[0] = 5.0

    def test_scaled_complement_axis_is_read_only(self):
        m = BallProjection(1.0).frechet(np.array([2.0, 0.0]))
        assert isinstance(m, ScaledComplementMap)
        with pytest.raises(ValueError):
            m.axis[0] = 5.0
