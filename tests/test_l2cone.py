import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from varproj import l2_cone
from varproj.descriptors import SingletonSet
from varproj.l2_cone import OrderIntervalSet, SelfExclusionPartial
from varproj.oracle import _dense_over
from varproj.vectors import SparseVector, norm

nonzero = st.floats(min_value=0.1, max_value=3.0).flatmap(
    lambda v: st.sampled_from([v, -v])
)
sparse = st.dictionaries(st.integers(1, 8), nonzero, min_size=0, max_size=5).map(SparseVector)
# few distinct values, so that coordinates of two vectors often tie
coarse = st.dictionaries(
    st.integers(1, 8), st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0]), min_size=0, max_size=6
).map(SparseVector)
supports = st.frozensets(st.integers(1, 12), min_size=1, max_size=6)
# values of magnitude 1e-300..1e300, as m * 10^e with 1 <= m < 10, of either sign, or zeros of either sign
magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 299))
wide_values = st.one_of(st.sampled_from([0.0, -0.0]), magnitudes, magnitudes.map(lambda v: -v))
wide = st.dictionaries(st.integers(1, 8), wide_values, max_size=6).map(SparseVector)


def _scan_get(v, index):
    """SparseVector.get as a linear scan of the pairs."""
    return next((val for i, val in v.pairs if i == index), 0.0)


def _order_leq_scan(z, y, M):
    """Reference order: every index of the sorted union of supports and M, one scan lookup each."""
    for i in sorted(z.support | y.support | M):
        if i in M:
            if _scan_get(z, i) != _scan_get(y, i):
                return False
        elif _scan_get(z, i) > _scan_get(y, i):
            return False
    return True


class TestProjection:
    def test_frozen(self):
        assert l2_cone.project(SparseVector({1: 2.0, 3: -1.0})) == SparseVector({1: 2.0})
        assert l2_cone.project(SparseVector({2: -5.0})).is_zero()

    def test_rows_match_project_exactly(self):
        rng = np.random.default_rng(37)
        axes = [1, 2, 5, 9]
        block = rng.standard_normal((20, len(axes)))
        block[2] = 0.0
        block[5, 1:] = 0.0
        got = l2_cone.project_rows(block)
        for row, image in zip(block, got):
            want = _dense_over(l2_cone.project(SparseVector(zip(axes, row.tolist()))), axes)
            np.testing.assert_array_equal(image, want)
        assert l2_cone.project.rows is l2_cone.project_rows
        with pytest.raises(ValueError):
            l2_cone.project_rows([[1.0, np.inf]])

    @given(sparse)
    def test_idempotent_feasible(self, x):
        p = l2_cone.project(x)
        assert all(v > 0.0 for _, v in p.items())
        assert l2_cone.project(p) == p

    @given(sparse, sparse)
    def test_nonexpansive(self, u, v):
        from varproj.vectors import norm

        assert norm(l2_cone.project(u) - l2_cone.project(v)) <= norm(u - v) + 1e-12


class TestWideMagnitudeProperties:
    """The projection's laws for values anywhere in 1e-300..1e300, and signed zeros."""

    @given(wide)
    def test_feasible_and_idempotent(self, x):
        p = l2_cone.project(x)
        assert all(v > 0.0 for _, v in p.items())
        assert l2_cone.project(p).pairs == p.pairs

    @given(wide, wide)
    def test_nonexpansive(self, u, v):
        # u - v is taken over the union of the supports, where it may overflow
        indices = sorted(u.support | v.support)
        with np.errstate(over="ignore"):
            d = np.array([u.get(i) for i in indices]) - np.array([v.get(i) for i in indices])
        assume(np.all(np.isfinite(d)))
        got = norm(l2_cone.project(u) - l2_cone.project(v))
        assert got <= norm(u - v) * (1.0 + 4.0 * np.finfo(float).eps)

    @given(wide, st.integers(-200, 200))
    def test_scaling(self, x, k):
        # P(2^k x) = 2^k P(x) bit for bit wherever scaling by 2^k is exact
        s = 2.0**k
        tiny = np.finfo(float).tiny
        assume(all(tiny <= abs(v * s) < np.inf and abs(v) >= tiny for _, v in x.items()))
        assert l2_cone.project(x * s).pairs == (l2_cone.project(x) * s).pairs


class _Index(int):
    """A support index that counts the comparisons made to validate it."""

    checks = 0

    def __lt__(self, other):
        _Index.checks += 1
        return int(self) < other


class TestSupportPredicates:
    def test_as_support(self):
        assert l2_cone.as_support([3, 1]) == frozenset({1, 3})
        with pytest.raises(ValueError):
            l2_cone.as_support([])
        with pytest.raises(ValueError):
            l2_cone.as_support([0, 1])

    def test_support_is_validated_once(self):
        # once per coderivative call and once per OrderIntervalSet; contains
        # and the predicates called on a validated support check nothing again
        M = [_Index(1), _Index(3)]
        y = SparseVector({1: 0.5, 2: 0.7})
        _Index.checks = 0
        d = l2_cone.coderivative(SparseVector({1: 1.0, 3: 2.0}), M, y)
        assert isinstance(d, OrderIntervalSet) and _Index.checks == 2
        assert d.contains(y) and not d.contains(SparseVector({1: 0.5, 2: 0.9}))
        assert _Index.checks == 2
        direct = OrderIntervalSet(bound=y, support=frozenset(M))
        assert direct == d and _Index.checks == 4
        assert direct.contains(y) and l2_cone.order_leq(y, y, direct.support)
        assert _Index.checks == 4

    @pytest.mark.parametrize("M, message", [
        ([], "support set must be nonempty"),
        ([0, 1], "support indices must be positive integers, got 0"),
        ([True], "support indices must be positive integers, got True"),
        ([2, "3"], "support indices must be positive integers, got '3'"),
    ])
    def test_bad_supports_raise_as_before(self, M, message):
        x, y = SparseVector({1: 1.0}), SparseVector({1: 0.5, 2: 0.7})
        calls = [lambda: l2_cone.as_support(M), lambda: l2_cone.coderivative(x, M, y),
                 lambda: OrderIntervalSet(bound=y, support=M), lambda: l2_cone.nonnegative_off(y, M),
                 lambda: l2_cone.order_leq(y, y, M), lambda: l2_cone.has_positive_support(x, M)]
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        with pytest.raises(TypeError, match="^y must be a SparseVector$"):
            OrderIntervalSet(bound={1: 0.5}, support=M)

    def test_has_positive_support(self):
        M = frozenset({1, 3})
        assert l2_cone.has_positive_support(SparseVector({1: 0.5, 3: 2.0}), M)
        assert not l2_cone.has_positive_support(SparseVector({1: 0.5, 3: -2.0}), M)
        assert not l2_cone.has_positive_support(SparseVector({1: 0.5}), M)
        assert not l2_cone.has_positive_support(SparseVector({1: 0.5, 2: 1.0, 3: 2.0}), M)

    def test_nonnegative_off(self):
        M = frozenset({1})
        assert l2_cone.nonnegative_off(SparseVector({1: -4.0, 2: 0.5}), M)
        assert not l2_cone.nonnegative_off(SparseVector({1: 4.0, 2: -0.5}), M)
        assert l2_cone.nonnegative_off(SparseVector.zero(), M)


class TestOrder:
    def test_examples(self):
        M = frozenset({1})
        y = SparseVector({1: 1.0, 2: 0.5})
        assert l2_cone.order_leq(SparseVector({1: 1.0, 2: 0.25}), y, M)
        assert l2_cone.order_leq(SparseVector({1: 1.0}), y, M)
        assert not l2_cone.order_leq(SparseVector({1: 0.9, 2: 0.25}), y, M)
        assert not l2_cone.order_leq(SparseVector({1: 1.0, 2: 0.6}), y, M)
        # off-support coordinates may drop below zero without breaking
        # the componentwise comparison
        assert l2_cone.order_leq(SparseVector({1: 1.0, 2: -1.0}), y, M)

    @given(st.one_of(sparse, coarse), st.one_of(sparse, coarse), supports)
    def test_matches_the_sorted_union_scan(self, z, y, M):
        # M may hold indices in neither support (up to 12, supports reach 8)
        assert l2_cone.order_leq(z, y, M) == _order_leq_scan(z, y, M)

    def test_interval_with_2000_nonzeros_matches_the_scan(self):
        rng = np.random.default_rng(41)
        idx = [int(i) for i in rng.choice(np.arange(1, 6001), size=2000, replace=False)]
        M = frozenset(idx[:500]) | {6001, 6002}
        y = SparseVector({i: float(rng.uniform(0.5, 2.0)) * (1.0 if i not in M else rng.choice([-1.0, 1.0]))
                          for i in idx})
        d = OrderIntervalSet(bound=y, support=M)
        off = sorted(set(idx) - M)
        shrink = y + SparseVector({i: -0.5 * y.get(i) for i in off[::3]})
        queries = {
            "bound": (y, True),
            "shrunk off M": (shrink, True),
            "above off M": (shrink + SparseVector({off[-1]: 1.0}), False),
            "new index off M": (y + SparseVector({6003: 0.1}), False),
            "moved on M": (y + SparseVector({idx[250]: 1e-9}), False),
            "missing on M": (y - SparseVector({idx[499]: y.get(idx[499])}), False),
            "negative off M": (y - SparseVector({off[100]: 2.0 * y.get(off[100])}), False),
        }
        for name, (z, want) in queries.items():
            reference = l2_cone.nonnegative_off(z, M) and _order_leq_scan(z, y, M)
            assert reference is want, name
            assert d.contains(z) is want, name

    @given(sparse)
    def test_reflexive(self, z):
        assert l2_cone.order_leq(z, z, frozenset({1, 2}))

    @given(sparse, sparse)
    def test_antisymmetric(self, a, b):
        M = frozenset({1})
        if l2_cone.order_leq(a, b, M) and l2_cone.order_leq(b, a, M):
            assert a == b

    @given(sparse, sparse, sparse)
    def test_transitive(self, a, b, c):
        M = frozenset({2})
        if l2_cone.order_leq(a, b, M) and l2_cone.order_leq(b, c, M):
            assert l2_cone.order_leq(a, c, M)


class TestCoderivative:
    def setup_method(self):
        self.M = frozenset({1})
        self.xbar = SparseVector({1: 1.0})

    def test_zero_target_any_point(self):
        # the zero target never constrains the base point
        bad = SparseVector({2: -3.0})
        d = l2_cone.coderivative(bad, self.M, SparseVector.zero())
        assert isinstance(d, SingletonSet)
        assert d.contains(SparseVector.zero()) is True
        assert d.contains(SparseVector({1: 0.1})) is False

    def test_base_point_validation(self):
        with pytest.raises(ValueError):
            l2_cone.coderivative(SparseVector({1: -1.0}), self.M, SparseVector({1: 1.0}))
        with pytest.raises(ValueError):
            l2_cone.coderivative(SparseVector({1: 1.0, 2: 1.0}), self.M, SparseVector({1: 1.0}))

    def test_order_interval_frozen(self):
        y = SparseVector({1: 1.0, 2: 0.5})
        d = l2_cone.coderivative(self.xbar, self.M, y)
        assert isinstance(d, OrderIntervalSet)
        assert d.contains(y) is True
        assert d.contains(SparseVector({1: 1.0, 2: 0.25})) is True
        assert d.contains(SparseVector({1: 1.0})) is True
        assert d.contains(SparseVector({1: 1.0, 2: 0.6})) is False
        assert d.contains(SparseVector({1: 0.9, 2: 0.25})) is False
        assert d.contains(SparseVector({1: 1.0, 2: -0.1})) is False
        assert d.is_singleton is False

    def test_order_interval_members_are_distinct(self):
        y = SparseVector({1: -0.5, 2: 0.5, 4: 1.0})
        d = l2_cone.coderivative(self.xbar, self.M, y)
        members = d.example_members(limit=4)
        assert len(members) >= 2
        assert len(set(members)) == len(members)
        for z in members:
            assert d.contains(z) is True

    def test_collapse_to_singleton(self):
        y = SparseVector({1: -2.0})
        d = l2_cone.coderivative(self.xbar, self.M, y)
        assert isinstance(d, OrderIntervalSet) and d.is_singleton
        assert d.contains(y) is True
        assert d.contains(y + SparseVector({2: 0.5})) is False
        assert d.example_members() == [y]

    def test_self_exclusion(self):
        y = SparseVector({1: 0.4, 2: -0.7})
        d = l2_cone.coderivative(self.xbar, self.M, y)
        assert isinstance(d, SelfExclusionPartial)
        assert d.contains(y) is False
        assert d.contains(SparseVector.zero()) is None
        assert d.contains(SparseVector({1: 0.4})) is None

    def test_json_variants(self):
        y_in = SparseVector({1: 1.0, 2: 0.5})
        j = l2_cone.coderivative(self.xbar, self.M, y_in).to_json()
        assert j["variant"] == "order_interval"
        assert j["y"] == [[1, 1.0], [2, 0.5]] and j["support"] == [1]
        y_out = SparseVector({2: -0.7})
        j = l2_cone.coderivative(self.xbar, self.M, y_out).to_json()
        assert j["variant"] == "partial" and j["rule"] == "l2-self-exclusion"

    def test_repr_shows_a_frozenset(self):
        d = l2_cone.coderivative(self.xbar, [1], SparseVector({1: 2.0, 3: 1.0}))
        assert repr(d) == "OrderIntervalSet(bound=SparseVector({1: 2.0, 3: 1.0}), support=frozenset({1}))"

    def test_interval_validates_bound(self):
        with pytest.raises(ValueError):
            OrderIntervalSet(bound=SparseVector({2: -1.0}), support=frozenset({1}))
