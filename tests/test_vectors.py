import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, assume
from hypothesis import strategies as st

from test_oracle import _head_cases
from varproj import vectors

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


def _public(values: dict):
    """SparseVector(values), or the (type, message) of the error it raises."""
    try:
        return SparseVector(values)
    except ValueError as error:
        return ValueError, str(error)


def _library(op):
    try:
        return op()
    except ValueError as error:
        return ValueError, str(error)


# every double: zeros of both signs, subnormals, and values whose sums and products overflow
any_double = st.floats(allow_nan=False, allow_infinity=False)
wide_sparse = st.dictionaries(st.integers(1, 12), any_double, max_size=6).map(SparseVector)


def _reference_of(items):
    """``SparseVector._of`` before the sorted merge: drop zeros, name the first non-finite value, sort."""
    kept = [(i, v) for i, v in items if v != 0.0]
    if not all(math.isfinite(v) for _, v in kept):
        index = next(i for i, v in kept if not math.isfinite(v))
        return ValueError, f"sparse value at index {index} must be finite"
    return tuple(sorted(kept))


def _reference_add(u, v):
    out = dict(u.pairs)
    for i, x in v.pairs:
        out[i] = out.get(i, 0.0) + x
    return _reference_of(out.items())


def _reference_sub(u, v):
    out = dict(u.pairs)
    for i, x in v.pairs:
        out[i] = out.get(i, 0.0) - x
    return _reference_of(out.items())


near_max = st.floats(min_value=1e307, max_value=1.7976931348623157e308).flatmap(lambda x: st.sampled_from([x, -x]))
tiny = st.floats(min_value=5e-324, max_value=1e-150).flatmap(lambda x: st.sampled_from([x, -x]))
pair_values = st.one_of(any_double, near_max, tiny)


@st.composite
def sparse_pair(draw):
    """Two SparseVectors whose supports are disjoint, identical, interleaved or free, with entries that may cancel."""
    keys = draw(st.lists(st.integers(1, 20), unique=True, max_size=8))
    u = {k: draw(pair_values) for k in keys}
    layout = draw(st.sampled_from(("disjoint", "identical", "interleaved", "cancelling", "free")))
    if layout == "disjoint":
        v = {k + 20: draw(pair_values) for k in draw(st.lists(st.integers(1, 20), unique=True, max_size=8))}
    elif layout == "identical":
        v = {k: draw(pair_values) for k in keys}
    elif layout == "interleaved":
        u = {2 * k: x for k, x in u.items()}
        v = {2 * k + draw(st.sampled_from((-1, 0, 1))): draw(pair_values) for k in keys}
    elif layout == "cancelling":
        v = {k: draw(st.sampled_from((1.0, -1.0))) * x for k, x in u.items() if draw(st.booleans())}
    else:
        v = draw(st.dictionaries(st.integers(1, 20), pair_values, max_size=8))
    return SparseVector(u), SparseVector(v)


class TestSortedMergeArithmetic:
    """``+``, ``-``, unary ``-``, ``*`` and ``positive_part`` give the pairs, or the error, of the dict-and-sort code."""

    @given(sparse_pair())
    def test_sum_and_difference(self, pair):
        u, v = pair
        for got, want in ((lambda: u + v, _reference_add(u, v)), (lambda: u - v, _reference_sub(u, v)),
                          (lambda: v - u, _reference_sub(v, u)), (lambda: u - u, ())):
            got = _library(got)
            assert (got if isinstance(got, tuple) else got.pairs) == want

    @given(sparse_pair(), st.one_of(pair_values, st.sampled_from([0.0, -0.0, 1e-300, 1e300, 5e-324])))
    def test_negation_scaling_and_positive_part(self, pair, s):
        u = pair[0]
        assert (-u).pairs == _reference_of((i, -x) for i, x in u.pairs)
        assert u.positive_part().pairs == _reference_of((i, x) for i, x in u.pairs if x > 0.0)
        want = _reference_of((i, x * s) for i, x in u.pairs)
        for got in (_library(lambda: u * s), _library(lambda: s * u)):
            assert (got if isinstance(got, tuple) else got.pairs) == want

    def test_an_overflowing_sum_names_the_first_shared_index(self):
        u = SparseVector({2: 1.0, 5: 1e308, 7: -1e308, 9: 1e308})
        v = SparseVector({1: 3.0, 5: 1e308, 6: 1.0, 7: -1e308, 9: 1e308})
        for op in (lambda: u + v, lambda: v + u, lambda: u - (-v)):
            with pytest.raises(ValueError, match="^sparse value at index 5 must be finite$"):
                op()
        assert _reference_add(u, v) == _reference_add(v, u) == (ValueError, "sparse value at index 5 must be finite")


class TestLibraryBuiltSparseVectors:
    """Results the library builds skip the index checks but match the public constructor."""

    @given(wide_sparse, wide_sparse, any_double)
    def test_same_pairs_eq_hash_and_errors_as_the_public_constructor(self, u, v, s):
        def combined(sign):
            out = dict(u.pairs)
            for i, x in v.pairs:
                out[i] = out.get(i, 0.0) + sign * x
            return out

        cases = [
            (lambda: u + v, combined(1.0)),
            (lambda: u - v, combined(-1.0)),
            (lambda: u * s, {i: x * s for i, x in u.pairs}),
            (lambda: s * u, {i: x * s for i, x in u.pairs}),
            (lambda: -u, {i: -x for i, x in u.pairs}),
            (lambda: u.positive_part(), {i: x for i, x in u.pairs if x > 0.0}),
        ]
        for op, values in cases:
            got, want = _library(op), _public(values)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert got.pairs == want.pairs and got == want and hash(got) == hash(want)
            assert all(type(i) is int and type(x) is float for i, x in got.pairs)

    def test_overflow_raises_the_constructors_error(self):
        u = SparseVector({3: 1.0, 4: 1e308, 6: 1e308})
        for op in (lambda: u + u, lambda: u - (-u), lambda: u * 1e10):
            with pytest.raises(ValueError, match="^sparse value at index 4 must be finite$"):
                op()


def _left_to_right(terms) -> float:
    """0.0 + t1 + t2 + ..., one rounding per term in order (not the builtin ``sum``, compensated since Python 3.12)."""
    return reduce(add, terms, 0.0)


class TestInnerNorm:
    def test_sparse_sums_run_left_to_right(self):
        # the bits of 0.0 + t1 + ... + t10 on every Python; a compensated
        # sum gives 0.10000000000000002, 0.31622776601683794 and 0.3
        tenth = SparseVector({i: 0.1 for i in range(1, 11)})
        assert repr(inner(tenth, tenth)) == "0.10000000000000003"
        assert repr(norm(tenth)) == "0.316227766016838"
        assert repr(inner(tenth, SparseVector({i: 0.3 for i in range(1, 11)}))) == "0.30000000000000004"

    @given(sparse_pair())
    def test_sparse_inner_and_norm_add_in_index_order(self, pair):
        u, v = pair
        shared = sorted(u.support & v.support)
        assert repr(inner(u, v)) == repr(_left_to_right(u.get(i) * v.get(i) for i in shared))
        assert repr(inner(v, u)) == repr(inner(u, v))
        sq = _left_to_right(x * x for _, x in u.pairs)
        if 1e-146 <= math.sqrt(sq) < math.inf:
            assert repr(norm(u)) == repr(math.sqrt(sq))

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


class TestFixedOrderDot:
    """``vectors._dot`` sums in one order: a row's bits do not depend on where it lies."""

    def test_a_row_keeps_its_bits_at_every_offset(self):
        # with a BLAS product (@) on OpenBLAS, most seven-row windows of this
        # block round some row differently from the whole block
        rng = np.random.default_rng(21)
        block, z = rng.standard_normal((300, 50)), rng.standard_normal(50)
        whole = vectors._dot(block, z).view(np.int64)
        for offset in range(len(block) - 6):
            window = vectors._dot(block[offset:offset + 7], z).view(np.int64)
            np.testing.assert_array_equal(window, whole[offset:offset + 7])

    @pytest.mark.parametrize("m", [*range(1, 20), 31, 50, 64, 127, 500])
    def test_a_row_has_the_bits_of_the_row_alone(self, m):
        rng = np.random.default_rng(m)
        for k in (1, 2, 7, 64):
            block, z = rng.standard_normal((k, m)), rng.standard_normal(m)
            want = np.array([vectors._dot(row, z) for row in block])
            np.testing.assert_array_equal(vectors._dot(block, z).view(np.int64), want.view(np.int64))

    def test_a_stacked_product_has_the_bits_of_one_product_per_vector(self):
        # the rows of a direction block against the stack of xbar, y and z
        # in one einsum call give the bits of three calls of _dot
        rng = np.random.default_rng(23)
        dirs, stack = rng.standard_normal((256, 500)), rng.standard_normal((3, 500))
        got = vectors._einsum("ij,kj->ik", dirs, stack)
        want = np.stack([vectors._dot(dirs, v) for v in stack], axis=1)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_strided_view_has_the_bits_of_its_contiguous_copy(self):
        rng = np.random.default_rng(22)
        for n in (7, 50, 500):
            block = rng.standard_normal((n, 4))
            for x, y in ((block[:, 0], block[:, 1]), (block[::-1, 2], block[:, 3])):
                assert vectors._dot(x, y) == vectors._dot(x.copy(), y.copy())
            rows = rng.standard_normal((5, 2 * n))[:, ::2]
            want = vectors._dot(rows.copy(), block[:, 0].copy())
            np.testing.assert_array_equal(vectors._dot(rows, block[:, 0]).view(np.int64), want.view(np.int64))


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
            assert norm(x) == math.sqrt(vectors._dot(x, x))
            sx = SparseVector({i + 1: v for i, v in enumerate(x)})
            assert norm(sx) == math.sqrt(_left_to_right(v * v for _, v in sx.pairs))

    def test_dense_norm_takes_the_fixed_order_square_sum(self):
        # the square sum is the helper's on the contiguous copy; a strided
        # view's own sum differs in the last bit often
        rng = np.random.default_rng(13)
        for n in (1, 3, 7, 16, 50, 600):
            for _ in range(5):
                block = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-140, 140)
                for x in (block[:, 1], block[::-1, 2], np.ascontiguousarray(block[:, 3]), block[0]):
                    c = x.copy()
                    assert repr(norm(x)) == repr(math.sqrt(vectors._dot(c, c)))

    @pytest.mark.parametrize(
        "values, want",
        [
            ([3e200, -4e200], "4.9999999999999995e+200"),
            ([1e200, 1e200, 1e200], "1.7320508075688773e+200"),
            ([3e-200, 4e-200], "5e-200"),
            ([1e300, -1e300], "1.4142135623730952e+300"),
            ([1e-300, 2e-300, 2e-300], "3e-300"),
        ],
    )
    def test_rescued_dense_norms_keep_their_bits(self, values, want):
        block = np.zeros((len(values), 3))
        block[:, 1] = values
        assert repr(norm(np.array(values))) == want
        assert repr(norm(block[:, 1])) == want

    def test_row_norms_match_norm(self):
        # row i has the bits of norm(block[i]), at every width and magnitude,
        # for zero and -0.0 rows and for a strided block
        rng = np.random.default_rng(14)
        blocks = [np.array([[3.0, 4.0], [0.0, 0.0], [1e200, -1e200], [3e-200, 4e-200], [1e-170, 0.0]])]
        for m in (1, 2, 3, 7, 16, 50, 500):
            block = rng.standard_normal((61, m)) * 10.0 ** np.arange(-300, 301, 10)[:, None]
            block[0], block[1] = 0.0, -0.0
            blocks += [block, np.asfortranarray(block)[:, ::-1]]
        for block in blocks:
            want = np.array([norm(row) for row in block])
            np.testing.assert_array_equal(row_norms(block).view(np.int64), want.view(np.int64))

    def test_row_norms_rescue_only_nonzero_rows(self, monkeypatch):
        # zero rows keep their plain +0.0 without the one-row-at-a-time rescue
        rescued, rescale = [], vectors._rescaled_norm

        def counting(x):
            rescued.append(x.copy())
            return rescale(x)

        monkeypatch.setattr(vectors, "_rescaled_norm", counting)
        block = np.random.default_rng(12).standard_normal((64, 5))
        block[3], block[7], block[10] = 0.0, -0.0, 1e-200
        got = row_norms(block)
        assert got[3] == got[7] == 0.0 and not np.signbit(got[[3, 7]]).any()
        assert got[10] == 1e-200 * np.sqrt(5.0)
        assert len(rescued) == 1 and np.array_equal(rescued[0], block[10])
        ordinary = np.setdiff1d(np.arange(64), [3, 7, 10])
        want = np.array([norm(row) for row in block[ordinary]])
        np.testing.assert_array_equal(got[ordinary].view(np.int64), want.view(np.int64))

    def test_as_rows(self):
        assert as_rows([[1, 2], [3, 4]]).dtype == np.float64
        assert as_rows(np.zeros((0, 3))).shape == (0, 3)
        for bad in ([1.0, 2.0], np.zeros((2, 0)), [[1.0, np.inf]], [[np.nan, 0.0]]):
            with pytest.raises(ValueError):
                as_rows(bad)


def _former_split(anchor, x, orth_rtol=1e-12):
    """(a, o) by the formula orth_decompose had before ``vectors._split``: ``inner`` and ``norm``, rescaling recursively."""
    anchor_sq = inner(anchor, anchor)
    if not vectors._TINY_NORM**2 <= anchor_sq < np.inf:
        sparse = isinstance(anchor, SparseVector)
        s = float(np.max(np.abs([v for _, v in anchor.pairs] if sparse else anchor), initial=0.0))
        if s == 0.0:
            raise ValueError("anchor must be nonzero")
        unit = SparseVector({i: v / s for i, v in anchor.pairs}) if sparse else anchor / s
        a, o = _former_split(unit, x, orth_rtol)
        return a / s, o
    a = inner(x, anchor) / anchor_sq
    o = x - a * anchor
    residual, o_norm, a_norm = abs(inner(o, anchor)), norm(o), norm(anchor)
    if residual > orth_rtol * max(o_norm * a_norm, 1e-300) and residual > orth_rtol * max(1.0, norm(x) * a_norm):
        raise ArithmeticError("orthogonality residual exceeds tolerance; anchor is ill-conditioned")
    return a, o


def _split_or_error(split, anchor, x):
    try:
        return split(anchor, x)
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestOrthDecompose:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 500])
    def test_split_keeps_the_former_formula(self, n):
        # on the structured head's inputs (scales 1e-300..1e300, zeros, -0.0,
        # strided views): the dense split keeps every byte; the sparse one sums
        # in einsum order, not in the order of its pairs, and moves by at most
        # 1.1e-15 * ||x|| at n = 500
        def split(anchor, x):
            d = orth_decompose(anchor, x)
            return d.a, d.o

        def sparse(v):
            return SparseVector({i + 1: float(e) for i, e in enumerate(v)})

        for label, xbar, y, z in _head_cases(n):
            for v in (y, z):
                want, got = _split_or_error(_former_split, xbar, v), _split_or_error(split, xbar, v)
                if isinstance(want, str):
                    assert got == want, label
                else:
                    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), label
                    assert got[1].tobytes() == want[1].tobytes(), label
                anchor, x = sparse(xbar), sparse(v)
                want, got = _split_or_error(_former_split, anchor, x), _split_or_error(split, anchor, x)
                if isinstance(want, str):
                    assert got == want, label
                else:
                    assert got[0] == want[0] or abs(got[0] - want[0]) * norm(anchor) <= 2e-15 * norm(x), label
                    assert norm(got[1] - want[1]) <= 2e-15 * norm(x), label

    def test_frozen_example(self):
        d = orth_decompose(np.array([1.0, 0.0]), np.array([3.0, 4.0]))
        assert d.a == 3.0
        np.testing.assert_allclose(d.o, [0.0, 4.0])

    def test_split_whose_product_overflows(self):
        # <x, anchor> = 1e310 overflows, yet x = 1e290 * anchor + (0, 1e300)
        for anchor, x in ((np.array([1e10, 0.0]), np.array([1e300, 1e300])),
                          (SparseVector({1: 1e10}), SparseVector({1: 1e300, 2: 1e300}))):
            d = orth_decompose(anchor, x)
            assert d.a == pytest.approx(1e290, rel=1e-15)
            o = d.o if isinstance(d.o, np.ndarray) else np.array([d.o.get(1), d.o.get(2)])
            assert abs(o[0]) <= 1e-15 * 1e300 and o[1] == 1e300

    def test_split_beyond_the_largest_double_raises(self):
        # a = 2.1e308 is no double, though o is
        with pytest.raises(ValueError, match="vector entries must be finite"):
            orth_decompose(np.array([0.6, 0.8]), np.array([1.5e308, 1.5e308]))

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            orth_decompose(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            orth_decompose(SparseVector.zero(), SparseVector({1: 1.0}))

    @pytest.mark.parametrize("scale", [1e-170, 1e170, 1e-300, 1e300])
    def test_anchor_whose_square_under_or_overflows(self, scale):
        anchor = np.array([scale, 0.0])
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
        for scale in (1e-170, 1e170):
            d = orth_decompose(anchor * scale, x)
            assert d.a == pytest.approx(ref.a / scale, rel=1e-14)
            np.testing.assert_allclose(d.o, ref.o, rtol=1e-13, atol=1e-15)

    def test_residual_check_kept_on_both_paths(self):
        anchor = np.array([0.3, -1.7, 2.9])
        x = np.array([1.1, 0.4, -0.6])
        for scale in (1.0, 1e-170, 1e170):
            with pytest.raises(ArithmeticError):
                orth_decompose(anchor * scale, x * scale, orth_rtol=0.0)

    def test_ordinary_anchor_keeps_the_plain_split(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            anchor, x = rng.standard_normal(5), rng.standard_normal(5)
            d = orth_decompose(anchor, x)
            a = float(vectors._dot(x, anchor)) / float(vectors._dot(anchor, anchor))
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
        assert approx_equal(u, u * (1.0 + 1e-12))
        assert not approx_equal(u, u * (1.0 + 1e-6))

    def test_overflowing_difference_is_not_equal(self):
        # u - v itself is inf: unequal for both kinds, not an error
        assert not approx_equal(np.array([1.5e308, 0.0]), np.array([-1.5e308, 1.0]))
        assert not approx_equal(SparseVector({1: 1.5e308}), SparseVector({1: -1.5e308}))

    def test_norms_beyond_the_largest_double(self):
        # the bound rel * max(1, ||u||, ||v||) is inf; u and v are compared scaled by 2^-1024
        huge = np.array([1.5e308, 1.5e308])
        assert not approx_equal(huge, np.zeros(2))
        assert not approx_equal(np.zeros(2), huge)
        assert not approx_equal(huge, np.array([1.5e308, 1.4e308]))
        assert approx_equal(huge, huge)
        assert approx_equal(huge, huge * (1.0 + 1e-12))
        assert not approx_equal(SparseVector({1: 1.5e308, 2: 1.5e308}), SparseVector.zero())
        assert approx_equal(SparseVector({1: 1.5e308, 2: 1.5e308}), SparseVector({1: 1.5e308, 2: 1.5e308}))

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
