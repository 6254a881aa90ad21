import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from varproj.vectors import (
    SparseVector,
    approx_equal,
    as_rows,
    as_vector,
    as_vector_of,
    dense_from_wire,
    encode_vector,
    inner,
    is_zero,
    norm,
    orth_decompose,
    row_norms,
    sparse_from_wire,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def dense(min_dim=2, max_dim=8):
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: st.lists(finite, min_size=n, max_size=n).map(np.array)
    )


sparse = st.dictionaries(
    st.integers(1, 10),
    st.floats(min_value=0.1, max_value=5.0).map(lambda v: v * (-1) ** int(v * 10)),
    min_size=0,
    max_size=6,
).map(SparseVector)


class TestAsVector:
    def test_accepts_list(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64 and v.shape == (3,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_vector([])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])


class TestAsVectorOf:
    def test_accepts_the_dimension(self):
        np.testing.assert_array_equal(as_vector_of([1, 2], 2), [1.0, 2.0])

    def test_rejects_other_dimensions_and_sparse(self):
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            as_vector_of([0.0, 0.0, 0.0], 2)
        with pytest.raises(ValueError):
            as_vector_of("abc", 2)
        with pytest.raises(TypeError):
            as_vector_of(SparseVector.zero(), 2)


class TestSparseVector:
    def test_drops_zeros(self):
        assert SparseVector({1: 0.0, 2: 3.0}).support == frozenset({2})

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            SparseVector({0: 1.0})
        with pytest.raises(TypeError):
            SparseVector({1.5: 1.0})

    def test_rejects_nonfinite(self):
        for bad in (float("inf"), float("-inf"), float("nan"), np.float64("inf")):
            with pytest.raises(ValueError):
                SparseVector({1: bad})

    def test_get_below_between_and_above_the_support(self):
        v = SparseVector({3: 1.5, 7: -2.0, 10: 0.25})
        want = [0.0, 0.0, 1.5, 0.0, 0.0, 0.0, -2.0, 0.0, 0.0, 0.25, 0.0, 0.0]
        assert [v.get(i) for i in range(1, 13)] == want
        assert v.get(10**12) == 0.0
        assert v.get(np.int64(7)) == -2.0
        assert SparseVector.zero().get(1) == 0.0

    @given(sparse, st.integers(1, 12))
    def test_get_matches_a_scan_of_the_pairs(self, v, index):
        assert v.get(index) == next((val for i, val in v.pairs if i == index), 0.0)

    def test_arithmetic(self):
        u = SparseVector({1: 2.0, 5: 3.0})
        v = SparseVector({5: 4.0})
        assert (u + v).to_mapping() == {1: 2.0, 5: 7.0}
        assert (u - u).is_zero()
        assert (2.0 * v).get(5) == 8.0
        assert (-v).get(5) == -4.0

    def test_cancellation_drops_support(self):
        u = SparseVector({3: 1.5})
        assert (u + (-u)).support == frozenset()

    def test_positive_part(self):
        v = SparseVector({1: 2.0, 3: -1.0})
        assert v.positive_part().to_mapping() == {1: 2.0}

    def test_hash_eq(self):
        assert SparseVector({1: 1.0}) == SparseVector({1: 1.0})
        assert hash(SparseVector({2: 0.5})) == hash(SparseVector({2: 0.5}))

    def test_basis(self):
        e = SparseVector.basis(4)
        assert e.get(4) == 1.0 and e.support == frozenset({4})


class TestInnerNorm:
    def test_sparse_example(self):
        assert inner(SparseVector({1: 2.0, 5: 3.0}), SparseVector({5: 4.0})) == 12.0

    def test_disjoint_supports(self):
        assert inner(SparseVector({1: 1.0}), SparseVector({2: 1.0})) == 0.0

    def test_dense(self):
        assert inner(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            inner(np.array([1.0]), SparseVector({1: 1.0}))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.array([1.0, 2.0]), np.array([1.0]))

    def test_norm(self):
        assert norm(np.array([3.0, 4.0])) == 5.0
        assert norm(SparseVector({2: 3.0, 7: 4.0})) == 5.0

    def test_is_zero(self):
        assert is_zero(np.zeros(3))
        assert is_zero(SparseVector.zero())
        assert not is_zero(np.array([0.0, 1e-12]))


class TestWideMagnitudeNorms:
    """Norms whose plain sum of squares over- or underflows are rescaled."""

    @pytest.mark.parametrize(
        "values, want",
        [
            ([1e200, 1e200], 1e200 * np.sqrt(2.0)),
            ([3e200, -4e200], 5e200),
            ([3e-200, 4e-200], 5e-200),
            ([1e-170, 0.0], 1e-170),
            ([1e-320, 0.0], 1e-320),
            ([1.5e308, 1.5e308], np.inf),
        ],
    )
    def test_dense_and_sparse(self, values, want):
        with np.errstate(over="ignore"):
            got_dense = norm(np.array(values))
            got_sparse = norm(SparseVector({2 * i + 1: v for i, v in enumerate(values)}))
        assert got_dense == pytest.approx(want, rel=1e-15)
        assert got_sparse == pytest.approx(want, rel=1e-15)

    def test_zero(self):
        assert norm(np.zeros(3)) == 0.0
        assert norm(SparseVector.zero()) == 0.0

    def test_ordinary_inputs_keep_the_plain_norm(self):
        rng = np.random.default_rng(11)
        for exponent in range(-140, 141, 20):
            x = rng.standard_normal(int(rng.integers(1, 9))) * 10.0**exponent
            assert norm(x) == float(np.linalg.norm(x))
            sx = SparseVector({i + 1: v for i, v in enumerate(x)})
            assert norm(sx) == float(np.sqrt(sum(v * v for _, v in sx.pairs)))

    def test_row_norms_match_norm(self):
        block = np.array([[3.0, 4.0], [0.0, 0.0], [1e200, -1e200], [3e-200, 4e-200], [1e-170, 0.0]])
        with np.errstate(over="ignore"):
            got = row_norms(block)
            want = np.array([norm(row) for row in block])
        np.testing.assert_array_max_ulp(got, want, maxulp=4)

    def test_as_rows(self):
        assert as_rows([[1, 2], [3, 4]]).dtype == np.float64
        assert as_rows(np.zeros((0, 3))).shape == (0, 3)
        for bad in ([1.0, 2.0], np.zeros((2, 0)), [[1.0, np.inf]], [[np.nan, 0.0]]):
            with pytest.raises(ValueError):
                as_rows(bad)


class TestOrthDecompose:
    def test_frozen_example(self):
        d = orth_decompose(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
        assert d.a == 3.0
        np.testing.assert_allclose(d.o, [0.0, 4.0])

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            orth_decompose(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            orth_decompose(SparseVector.zero(), SparseVector({1: 1.0}))

    @pytest.mark.parametrize("scale", [1e-170, 1e170, 1e-300, 1e300])
    def test_anchor_whose_square_under_or_overflows(self, scale):
        anchor = np.array([scale, 0.0])
        with np.errstate(over="ignore"):
            d = orth_decompose(anchor, np.array([2.0 * scale, scale]))
            s = orth_decompose(SparseVector({1: scale}), SparseVector({1: 2.0 * scale, 4: scale}))
        assert d.a == 2.0 and s.a == 2.0
        np.testing.assert_array_equal(d.o, [0.0, scale])
        assert s.o == SparseVector({4: scale})
        assert d.anchor is anchor
        np.testing.assert_array_equal(d.reconstruct(), [2.0 * scale, scale])

    def test_wide_anchor_coefficient_is_relative_to_the_original(self):
        rng = np.random.default_rng(5)
        anchor, x = rng.standard_normal(4), rng.standard_normal(4)
        ref = orth_decompose(anchor, x)
        with np.errstate(over="ignore"):
            for scale in (1e-170, 1e170):
                d = orth_decompose(anchor * scale, x)
                assert d.a == pytest.approx(ref.a / scale, rel=1e-14)
                np.testing.assert_allclose(d.o, ref.o, rtol=1e-13, atol=1e-15)

    def test_residual_check_kept_on_both_paths(self):
        anchor = np.array([0.3, -1.7, 2.9])
        x = np.array([1.1, 0.4, -0.6])
        with np.errstate(over="ignore"):
            for scale in (1.0, 1e-170, 1e170):
                with pytest.raises(ArithmeticError):
                    orth_decompose(anchor * scale, x * scale, orth_rtol=0.0)

    def test_ordinary_anchor_keeps_the_plain_split(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            anchor, x = rng.standard_normal(5), rng.standard_normal(5)
            d = orth_decompose(anchor, x)
            a = float(x @ anchor) / float(anchor @ anchor)
            assert d.a == a
            np.testing.assert_array_equal(d.o, x - a * anchor)

    def test_reconstruct(self):
        anchor = np.array([2.0, -1.0, 0.5])
        x = np.array([1.0, 3.0, -2.0])
        d = orth_decompose(anchor, x)
        np.testing.assert_allclose(d.reconstruct(), x, atol=1e-12)

    def test_radial_component(self):
        anchor = np.array([1.0, 1.0])
        d = orth_decompose(anchor, 2.5 * anchor)
        np.testing.assert_allclose(d.radial, 2.5 * anchor)
        assert norm(d.o) <= 1e-12
        d = orth_decompose(anchor, np.array([1.0, -1.0]))
        np.testing.assert_allclose(d.radial, np.zeros(2), atol=1e-15)

    def test_sparse(self):
        anchor = SparseVector({1: 1.0})
        d = orth_decompose(anchor, SparseVector({1: 3.0, 2: 4.0}))
        assert d.a == 3.0
        assert d.o == SparseVector({2: 4.0})

    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                st.lists(finite, min_size=n, max_size=n).map(np.array),
                st.lists(finite, min_size=n, max_size=n).map(np.array),
            )
        )
    )
    def test_inner_splits(self, pair):
        u, v = pair
        anchor = u + np.ones(u.shape[0])
        assume(norm(anchor) > 0.1)
        du = orth_decompose(anchor, u)
        dv = orth_decompose(anchor, v)
        lhs = inner(u, v)
        rhs = du.a * dv.a * inner(anchor, anchor) + inner(du.o, dv.o)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    @given(dense())
    def test_pythagoras(self, u):
        anchor = np.ones(u.shape[0])
        d = orth_decompose(anchor, u)
        lhs = norm(u) ** 2
        rhs = d.a**2 * inner(anchor, anchor) + norm(d.o) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs, rhs)

    @given(dense(), finite, finite)
    def test_linearity(self, u, alpha, beta):
        anchor = np.ones(u.shape[0]) * 0.7
        v = u[::-1].copy()
        du, dv = orth_decompose(anchor, u), orth_decompose(anchor, v)
        combo = orth_decompose(anchor, alpha * u + beta * v)
        assert abs(combo.a - (alpha * du.a + beta * dv.a)) <= 1e-8 * max(1.0, abs(combo.a))
        assert norm(combo.o - (alpha * du.o + beta * dv.o)) <= 1e-8 * max(1.0, norm(combo.o))

    def test_convergence_parametrization(self):
        # u -> anchor exactly when the radial part tends to 1 and the
        # orthogonal part tends to zero
        anchor = np.array([1.0, -2.0, 0.5])
        w = np.array([0.3, 0.1, -0.7])
        gaps = []
        for k in range(1, 9):
            d = orth_decompose(anchor, anchor + w / k)
            gaps.append((abs(d.a - 1.0), norm(d.o)))
        assert all(b <= a + 1e-15 for (a, _), (b, _) in zip(gaps, gaps[1:]))
        assert all(b <= a + 1e-15 for (_, a), (_, b) in zip(gaps, gaps[1:]))
        assert gaps[-1][0] < 0.1 and gaps[-1][1] < 0.2


class TestApproxEqual:
    def test_relative_scale(self):
        assert approx_equal(np.array([1e9, 0.0]), np.array([1e9 + 1e-3, 0.0]), rel=1e-9)
        assert not approx_equal(np.array([1.0, 0.0]), np.array([1.0 + 1e-6, 0.0]), rel=1e-9)

    def test_sparse(self):
        assert approx_equal(SparseVector({1: 1.0}), SparseVector({1: 1.0 + 1e-12}))

    def test_difference_with_overflowing_squares(self):
        # ||u - v|| is about 1e188 although its plain sum of squares is inf
        u = np.array([7.68e199, -5.76e199])
        with np.errstate(over="ignore"):
            assert approx_equal(u, u * (1.0 + 1e-12))
            assert not approx_equal(u, u * (1.0 + 1e-6))

    def test_overflowing_difference_is_not_equal(self):
        # u - v itself is inf: unequal for both kinds, not an error
        with np.errstate(over="ignore"):
            assert not approx_equal(np.array([1.5e308, 0.0]), np.array([-1.5e308, 1.0]))
            assert not approx_equal(SparseVector({1: 1.5e308}), SparseVector({1: -1.5e308}))

    def test_dimension_mismatch_is_not_broadcast(self):
        # a length-1 vector would broadcast against any other length
        with pytest.raises(ValueError):
            approx_equal(np.zeros(1), np.zeros(2))
        with pytest.raises(ValueError):
            approx_equal(np.zeros(3), np.zeros(2))


class TestWire:
    def test_dense_round_trip(self):
        v = np.array([1.5, -2.0])
        assert encode_vector(v) == [1.5, -2.0]
        np.testing.assert_array_equal(dense_from_wire([1.5, -2.0]), v)

    def test_sparse_round_trip(self):
        v = SparseVector({2: 0.5, 7: -1.0})
        assert encode_vector(v) == [[2, 0.5], [7, -1.0]]
        assert sparse_from_wire([[2, 0.5], [7, -1.0]]) == v

    def test_sparse_empty_is_zero(self):
        assert sparse_from_wire([]).is_zero()

    def test_sparse_rejects_unsorted(self):
        with pytest.raises(ValueError):
            sparse_from_wire([[3, 1.0], [2, 1.0]])

    def test_sparse_rejects_duplicate(self):
        with pytest.raises(ValueError):
            sparse_from_wire([[2, 1.0], [2, 3.0]])

    def test_sparse_rejects_zero_value(self):
        with pytest.raises(ValueError):
            sparse_from_wire([[2, 0.0]])

    def test_dense_rejects_nested(self):
        with pytest.raises((ValueError, TypeError)):
            dense_from_wire([[1, 2.0]])
