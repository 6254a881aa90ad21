"""Each public closed form checks its arguments once, at entry, and raises what it always raised.

The public names of ``vectors``, ``ball``, ``orthant``, ``descriptors``
and ``l2_cone`` validate their arguments; the private cores they call
run on the checked arrays.  ``TestValidatedOnce`` counts the calls of
``as_vector`` (which ``as_vector_of`` makes) with a profiler hook, and
``TestErrorParity`` pins the exception type and message of every bad
argument, recorded before the checks were moved to the entry points.
``TestNoNumpyWrappers`` checks, with the same hook, that a valid call
enters none of numpy's Python-level reduction wrappers.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from test_oracle import _one_stage

from varproj import l2_cone, oracle, orthant, vectors
from varproj.ball import BallProjection
from varproj.descriptors import EmptySet, ScaledComplementMap, SingletonSet
from varproj.vectors import SparseVector

NAN, INF = float("nan"), float("inf")
OP = BallProjection(1.0)
X_IN, X_SPHERE, X_EX = np.array([0.3, 0.4]), np.array([0.6, 0.8]), np.array([3.0, 4.0])
W = np.array([1.0, -0.5])
POINTS = {"interior": X_IN, "sphere": X_SPHERE, "exterior": X_EX}
# one bad argument of each kind; "dim3" is a valid vector of another dimension than the points
BAD = {
    "nan": [1.0, NAN],
    "inf": [INF, 0.0],
    "2d": [[1.0, 0.0]],
    "empty": [],
    "sparse": SparseVector({1: 1.0}),
    "dim3": [1.0, 0.0, 0.0],
}


def _cases():
    """(id, thunk) for every bad argument of every public closed form."""
    cases = []
    for kind, bad in BAD.items():
        for name, fn in (("ball.project", OP.project), ("ball.region", OP.region), ("ball.frechet", OP.frechet),
                         ("orthant.project", orthant.project), ("orthant.region", orthant.region),
                         ("orthant.frechet", orthant.frechet), ("vectors.norm", vectors.norm),
                         ("vectors.is_zero", vectors.is_zero), ("vectors.encode_vector", vectors.encode_vector)):
            cases.append((f"{name}/{kind}", lambda fn=fn, bad=bad: fn(bad)))
        for region, x in POINTS.items():
            for name, fn in (("ball.direction_class", OP.direction_class), ("ball.gateaux", OP.gateaux),
                             ("ball.coderivative", OP.coderivative)):
                cases.append((f"{name}/{region}/xbar-{kind}", lambda fn=fn, bad=bad: fn(bad, W)))
                cases.append((f"{name}/{region}/w-{kind}", lambda fn=fn, x=x, bad=bad: fn(x, bad)))
        for name, fn in (("orthant.gateaux", orthant.gateaux), ("orthant.coderivative", orthant.coderivative),
                         ("vectors.inner", vectors.inner), ("vectors.approx_equal", vectors.approx_equal),
                         ("vectors.orth_decompose", vectors.orth_decompose)):
            cases.append((f"{name}/first-{kind}", lambda fn=fn, bad=bad: fn(bad, W)))
            cases.append((f"{name}/second-{kind}", lambda fn=fn, bad=bad: fn(W, bad)))
        for name, desc in _descriptors().items():
            cases.append((f"{name}.contains/{kind}", lambda desc=desc, bad=bad: desc.contains(bad)))
        for name, linear in (("ScaledComplementMap", OP.frechet(X_EX)),
                             ("CoordinateMaskMap", orthant.frechet(np.array([1.0, -1.0]))),
                             ("IdentityMap", OP.frechet(X_IN)), ("ZeroMap", orthant.frechet(np.array([-1.0, -2.0])))):
            cases.append((f"{name}/{kind}", lambda linear=linear, bad=bad: linear(bad)))
        cases.append((f"ScaledComplementMap.from_point/{kind}",
                      lambda bad=bad: ScaledComplementMap.from_point(0.5, bad)))
    zero2, zero3 = np.zeros(2), np.zeros(3)
    cases += [
        ("ball.direction_class/sphere/zero", lambda: OP.direction_class(X_SPHERE, zero2)),
        ("ball.direction_class/sphere/zero-dim3", lambda: OP.direction_class(X_SPHERE, zero3)),
        ("ball.direction_class/interior/zero-dim3", lambda: OP.direction_class(X_IN, zero3)),
        ("ball.direction_class/interior", lambda: OP.direction_class(X_IN, W)),
        ("ball.direction_class/exterior/nan", lambda: OP.direction_class(X_EX, BAD["nan"])),
        ("ball.gateaux/sphere/zero", lambda: OP.gateaux(X_SPHERE, zero2)),
        ("ball.gateaux/sphere/zero-dim3", lambda: OP.gateaux(X_SPHERE, zero3)),
        ("ball.gateaux/outward-overflow", lambda: OP.gateaux(np.ones(3) / np.sqrt(3.0),
                                                             1.7e308 * np.array([1.0, 1.0, -1.0]))),
        ("ball.coderivative/sphere/zero-dim3", lambda: OP.coderivative(X_SPHERE, zero3)),
        ("orthant.coderivative/corner/zero-dim3", lambda: orthant.coderivative(np.array([0.0, 1.0]), zero3)),
        ("vectors.orth_decompose/zero-anchor", lambda: vectors.orth_decompose(zero2, W)),
        ("ScaledComplementMap.from_point/zero", lambda: ScaledComplementMap.from_point(0.5, zero2)),
        ("ZeroMap/list", lambda: orthant.frechet([-1.0, -2.0])([1.0, 2.0])),
        ("l2_cone.coderivative/dense-xbar", lambda: l2_cone.coderivative(W, {1}, SparseVector({1: 1.0}))),
        ("l2_cone.coderivative/dense-y", lambda: l2_cone.coderivative(SparseVector({1: 1.0}), {1}, W)),
        ("l2_cone.coderivative/empty-support", lambda: l2_cone.coderivative(SparseVector({1: 1.0}), set(),
                                                                            SparseVector({1: 1.0}))),
        ("l2_cone.coderivative/off-support", lambda: l2_cone.coderivative(SparseVector({1: 1.0}), {2},
                                                                          SparseVector({1: 1.0}))),
        ("l2_cone.nonnegative_off/dense", lambda: l2_cone.nonnegative_off(W, {1})),
        ("l2_cone.order_leq/dense", lambda: l2_cone.order_leq(SparseVector({1: 1.0}), W, {1})),
        ("l2_cone.has_positive_support/bad-index", lambda: l2_cone.has_positive_support(SparseVector({1: 1.0}),
                                                                                         {0})),
        ("l2_cone.OrderIntervalSet/negative-off", lambda: l2_cone.OrderIntervalSet(SparseVector({2: -1.0}),
                                                                                    frozenset({1}))),
    ]
    return cases


def _descriptors() -> dict:
    """One descriptor of every kind that takes a dense query, at points of dimension 2."""
    interval = l2_cone.coderivative(SparseVector({1: 1.0}), {1}, SparseVector({1: 1.0, 2: 1.0}))
    exclusion = l2_cone.coderivative(SparseVector({1: 1.0}), {1}, SparseVector({2: -1.0}))
    return {
        "SingletonSet": SingletonSet(np.array([1.0, 2.0])),
        "EmptySet": EmptySet(2),
        "SpherePartial": OP.coderivative(X_SPHERE, np.array([0.8, -0.6])),
        "CornerPartial": orthant.coderivative(np.array([0.0, 1.0]), np.array([-1.0, 1.0])),
        "CornerPartial-none": orthant.coderivative(np.array([0.0, 1.0]), np.array([1.0, -1.0])),
        "OrderIntervalSet": interval,
        "SelfExclusionPartial": exclusion,
    }


def _outcome(thunk) -> str:
    try:
        thunk()
    except Exception as e:  # the parity record holds every exception, whatever its type
        return f"{type(e).__name__}: {e}"
    return "ok"


CASES = dict(_cases())


def _calls(match, fn, *args) -> list:
    """The code objects of the Python calls that ``match`` accepts while fn(*args) runs, from a profiler hook."""
    calls = []

    def hook(frame, event, arg):
        if event == "call" and match(frame.f_code):
            calls.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def _as_vector_calls(fn, *args) -> int:
    """The number of ``as_vector`` calls (``as_vector_of`` makes one) while fn(*args) runs."""
    code = vectors.as_vector.__code__
    return len(_calls(lambda c: c is code, fn, *args))


def _numpy_wrapper(code) -> bool:
    """A frame of numpy's Python ``_methods.py``, ``fromnumeric.py`` or ``numeric.py``.

    ``numeric.py`` holds ``count_nonzero``, ``array_equal``, ``zeros_like``
    and ``flatnonzero``.  The files sit under ``numpy/_core/``, or
    ``numpy/core/`` before numpy 2.
    """
    folder, _, name = code.co_filename.replace("\\", "/").rpartition("/")
    return folder.endswith(("/numpy/_core", "/numpy/core")) and name in ("_methods.py", "fromnumeric.py", "numeric.py")


X6 = np.array([0.6, 0.8, 0.0, 0.0, 0.0, 0.0])
TANGENT6 = np.array([0.0, 0.0, 0.3, -0.1, 0.2, 0.5])
CORNER = np.array([0.0, 1.0, 2.0])
# (fn, array arguments) of every call that must check each argument once
ONCE = {
    "ball.project/interior": (OP.project, X_IN),
    "ball.project/exterior": (OP.project, X_EX),
    "ball.project/sphere": (OP.project, X_SPHERE),
    **{f"ball.region/{r}": (OP.region, x) for r, x in POINTS.items()},
    **{f"ball.frechet/{r}": (OP.frechet, x) for r, x in POINTS.items()},
    "ball.direction_class/radial": (OP.direction_class, X6, 2.0 * X6),
    "ball.direction_class/outward": (OP.direction_class, X6, TANGENT6 + 0.5 * X6),
    "ball.direction_class/inward": (OP.direction_class, X6, TANGENT6 - 0.5 * X6),
    "ball.gateaux/interior": (OP.gateaux, X_IN, W),
    "ball.gateaux/exterior": (OP.gateaux, X_EX, W),
    "ball.gateaux/sphere-radial": (OP.gateaux, X6, 2.0 * X6),
    "ball.gateaux/sphere-outward": (OP.gateaux, X6, TANGENT6 + 0.5 * X6),
    "ball.gateaux/sphere-inward": (OP.gateaux, X6, TANGENT6 - 0.5 * X6),
    "ball.coderivative/interior": (OP.coderivative, X_IN, W),
    "ball.coderivative/exterior": (OP.coderivative, X_EX, W),
    "ball.coderivative/sphere-zero": (OP.coderivative, X_SPHERE, np.zeros(2)),
    "ball.coderivative/sphere-self": (OP.coderivative, X_SPHERE, X_SPHERE.copy()),
    "ball.coderivative/sphere-partial": (OP.coderivative, X6, TANGENT6 - 0.5 * X6),
    "orthant.frechet/positive": (orthant.frechet, np.array([1.0, 2.0])),
    "orthant.frechet/negative": (orthant.frechet, np.array([-1.0, -2.0])),
    "orthant.frechet/mixed": (orthant.frechet, np.array([1.0, -2.0])),
    "orthant.frechet/with_zeros": (orthant.frechet, CORNER),
    "orthant.coderivative/positive": (orthant.coderivative, np.array([1.0, 2.0]), W),
    "orthant.coderivative/negative": (orthant.coderivative, np.array([-1.0, -2.0]), W),
    "orthant.coderivative/mixed": (orthant.coderivative, np.array([1.0, -2.0]), W),
    "orthant.coderivative/corner-zero": (orthant.coderivative, CORNER, np.zeros(3)),
    "orthant.coderivative/corner-self": (orthant.coderivative, CORNER, CORNER.copy()),
    "orthant.coderivative/corner-partial": (orthant.coderivative, CORNER, np.array([-1.0, 2.0, 1.0])),
}


# one valid call of every public closed form at n = 6, and of every descriptor's contains
SPHERE6, INSIDE6, OUTSIDE6 = X6, 0.5 * X6 + 0.1 * TANGENT6, 3.0 * X6 + TANGENT6
MIXED6, CORNER6 = np.array([1.0, -2.0, 0.5, -0.1, 3.0, -4.0]), np.array([0.0, 1.0, 2.0, -1.0, 0.0, 0.5])
BLOCK6 = np.stack([TANGENT6, 3.0 * X6, np.zeros(6), 1e-200 * X6])
DIRS6 = np.stack([X6, -X6, TANGENT6 / vectors.norm(TANGENT6)])
T6 = np.array([[1e-2], [1e-4]])  # a column of radii
AXES6 = (np.arange(6), 1.0 + np.arange(6))
SPARSE_X, SPARSE_Y = SparseVector({1: 1.0, 3: 1.5}), SparseVector({1: 1.0, 2: -1.0, 4: 0.5})


def _contains6() -> dict:
    """(descriptor, query) for every descriptor of the library at n = 6, one per answer it can give."""
    corner = orthant.coderivative(CORNER6, np.array([1.0, 0.0, 1.0, 0.0, -1.0, 0.0]))
    sphere = OP.coderivative(SPHERE6, TANGENT6 - 0.5 * X6)
    interval = l2_cone.coderivative(SPARSE_X, {1, 3}, SPARSE_Y)
    return {
        "SingletonSet/dense": (OP.coderivative(OUTSIDE6, TANGENT6), TANGENT6),
        "SingletonSet/sparse": (SingletonSet(SPARSE_Y), SPARSE_Y),
        "EmptySet": (EmptySet(6), TANGENT6),
        "SpherePartial/zero": (sphere, np.zeros(6)),
        "SpherePartial/other": (sphere, TANGENT6),
        "CornerPartial/multiple": (corner, np.array([0.5, 0.0, 0.5, 0.0, -0.5, 0.0])),
        "CornerPartial/other": (corner, TANGENT6),
        "CornerPartial/overflow": (corner, 1.7e308 * np.ones(6)),
        "CornerPartial/none": (orthant.coderivative(CORNER6, MIXED6), TANGENT6),
        "OrderIntervalSet": (interval, SparseVector({1: 0.5, 2: -1.0, 4: 0.5})),
        "SelfExclusionPartial": (l2_cone.coderivative(SPARSE_X, {1, 3}, SparseVector({2: -1.0})), SPARSE_Y),
    }


CLOSED_FORMS6 = {
    "vectors.as_vector": (vectors.as_vector, TANGENT6),
    "vectors.as_vector_of": (vectors.as_vector_of, TANGENT6, 6),
    "vectors.as_rows": (vectors.as_rows, BLOCK6),
    "vectors.inner": (vectors.inner, X6, TANGENT6),
    "vectors.norm": (vectors.norm, TANGENT6),
    "vectors.norm/tiny": (vectors.norm, 1e-200 * TANGENT6),
    "vectors.norm/sparse": (vectors.norm, SPARSE_Y),
    "vectors.row_norms": (vectors.row_norms, BLOCK6),
    "vectors.is_zero": (vectors.is_zero, TANGENT6),
    "vectors.is_zero/zero": (vectors.is_zero, np.zeros(6)),
    "vectors.approx_equal": (vectors.approx_equal, TANGENT6, TANGENT6 + 1e-12),
    "vectors.approx_equal/huge": (vectors.approx_equal, 1e308 * np.ones(6), 1e308 * np.ones(6)),
    "vectors.orth_decompose": (vectors.orth_decompose, X6, TANGENT6),
    "vectors.orth_decompose/overflow": (vectors.orth_decompose, X6 + 1.0, 1.7e308 * np.ones(6)),
    "vectors.orth_decompose/sparse": (vectors.orth_decompose, SPARSE_X, SPARSE_Y),
    "vectors.encode_vector": (vectors.encode_vector, TANGENT6),
    "vectors.dense_from_wire": (vectors.dense_from_wire, TANGENT6.tolist()),
    "ball.project/interior": (OP.project, INSIDE6),
    "ball.project/exterior": (OP.project, OUTSIDE6),
    "ball.project/huge": (OP.project, 1e308 * np.ones(6)),
    "ball.project_rows": (OP.project_rows, BLOCK6),
    "ball.project_axes": (_one_stage, OP.project_axes, OUTSIDE6, TANGENT6, *AXES6),
    "ball.project_dirs": (_one_stage, OP.project_dirs, SPHERE6, TANGENT6, DIRS6, T6),
    **{f"ball.region/{r}": (OP.region, x) for r, x in (("interior", INSIDE6), ("sphere", SPHERE6),
                                                       ("exterior", OUTSIDE6))},
    **{f"ball.frechet/{r}": (OP.frechet, x) for r, x in (("interior", INSIDE6), ("sphere", SPHERE6),
                                                         ("exterior", OUTSIDE6))},
    "ball.direction_class/radial": (OP.direction_class, X6, 2.0 * X6),
    "ball.direction_class/outward": (OP.direction_class, X6, TANGENT6 + 0.5 * X6),
    "ball.direction_class/inward": (OP.direction_class, X6, TANGENT6 - 0.5 * X6),
    "ball.gateaux/interior": (OP.gateaux, INSIDE6, TANGENT6),
    "ball.gateaux/exterior": (OP.gateaux, OUTSIDE6, TANGENT6),
    "ball.gateaux/sphere-radial": (OP.gateaux, X6, 2.0 * X6),
    "ball.gateaux/sphere-outward": (OP.gateaux, X6, TANGENT6 + 0.5 * X6),
    "ball.gateaux/sphere-inward": (OP.gateaux, X6, TANGENT6 - 0.5 * X6),
    "ball.coderivative/interior": (OP.coderivative, INSIDE6, TANGENT6),
    "ball.coderivative/exterior": (OP.coderivative, OUTSIDE6, TANGENT6),
    "ball.coderivative/sphere-zero": (OP.coderivative, X6, np.zeros(6)),
    "ball.coderivative/sphere-self": (OP.coderivative, X6, X6.copy()),
    "ball.coderivative/sphere-partial": (OP.coderivative, X6, TANGENT6 - 0.5 * X6),
    "orthant.project": (orthant.project, MIXED6),
    "orthant.project_rows": (orthant.project_rows, BLOCK6),
    "orthant.project_axes": (_one_stage, orthant.project_axes, CORNER6, TANGENT6, *AXES6),
    "orthant.project_dirs": (_one_stage, orthant.project_dirs, MIXED6, TANGENT6, DIRS6, T6),
    "orthant.project_dirs/in-reach": (_one_stage, orthant.project_dirs, MIXED6 * 1e-3, TANGENT6, DIRS6, T6),
    "orthant.region": (orthant.region, CORNER6),
    "orthant.gateaux": (orthant.gateaux, CORNER6, TANGENT6),
    **{f"orthant.frechet/{r}": (orthant.frechet, x) for r, x in (
        ("positive", np.abs(MIXED6)), ("negative", -np.abs(MIXED6)), ("mixed", MIXED6), ("with_zeros", CORNER6))},
    **{f"orthant.coderivative/{r}": (orthant.coderivative, x, TANGENT6) for r, x in (
        ("positive", np.abs(MIXED6)), ("negative", -np.abs(MIXED6)), ("mixed", MIXED6))},
    "orthant.coderivative/corner-zero": (orthant.coderivative, CORNER6, np.zeros(6)),
    "orthant.coderivative/corner-self": (orthant.coderivative, CORNER6, CORNER6.copy()),
    "orthant.coderivative/corner-self-nonpositive": (orthant.coderivative, -np.abs(CORNER6), -np.abs(CORNER6)),
    "orthant.coderivative/corner-partial": (orthant.coderivative, CORNER6, MIXED6),
    "l2_cone.project": (l2_cone.project, SPARSE_Y),
    "l2_cone.coderivative": (l2_cone.coderivative, SPARSE_X, {1, 3}, SPARSE_Y),
    "IdentityMap": (OP.frechet(INSIDE6), TANGENT6),
    "ZeroMap": (orthant.frechet(-np.abs(MIXED6)), TANGENT6),
    "ScaledComplementMap": (OP.frechet(OUTSIDE6), TANGENT6),
    "CoordinateMaskMap": (orthant.frechet(MIXED6), TANGENT6),
    **{f"{name}.contains": (desc.contains, z) for name, (desc, z) in _contains6().items()},
}


@pytest.mark.parametrize("radius", [1.0, 3.0, 1e200, 1e-200])
@pytest.mark.parametrize("w", [[1.0, 1.0], [0.0, 1e300], [-8e-301, 6e-301]], ids=["outward", "huge", "tangent"])
def test_outward_sphere_gateaux_takes_six_products(w, radius):
    # the region's square sum is the split's <xbar, xbar>, and the outward
    # test's xbar / r and <xbar / r, w / 2^e> are the limit's, with their bits
    op, xbar, w = BallProjection(radius), radius * X_SPHERE, np.array(w)
    code = vectors._dot.__code__
    assert op.direction_class(xbar, w).value == "outward"
    # at r = 1e200 (1e-200) the square sum over- (under-) flows: the norm and the split share one
    # rescaling of xbar, whose square sum is the one product more
    assert len(_calls(lambda c: c is code, op.gateaux, xbar, w)) == (6 if 1e-150 < radius < 1e150 else 7)
    half, e = vectors._halved(w)
    unit = xbar / radius
    want = np.ldexp(half - float(vectors._dot(unit, half)) * unit, e)
    assert op.gateaux(xbar, w).tobytes() == want.tobytes()


@pytest.mark.parametrize("radius, products, rescales", [(1.0, 6, 0), (1e200, 8, 2), (1e-200, 7, 1)])
def test_sphere_coderivative_rescales_xbar_once(radius, products, rescales):
    # when ||xbar||^2 over- (under-) flows, the region's norm, the self
    # query's bound and the split share one rescaling of xbar; at r = 1e200
    # ||y - xbar|| overflows too and takes a rescaling of its own
    op, xbar, y = BallProjection(radius), radius * X_SPHERE, np.array([0.3, -1.0])
    dots, scaled = vectors._dot.__code__, vectors._rescaled.__code__
    assert len(_calls(lambda c: c is dots, op.coderivative, xbar, y)) == products
    assert len(_calls(lambda c: c is scaled, op.coderivative, xbar, y)) == rescales
    assert op.coderivative(xbar, y).to_json()["known"] == {"contains_zero": False}
    assert op.coderivative(xbar, -2.0 * xbar).to_json()["known"] == {"contains_zero": True}
    assert isinstance(op.coderivative(xbar, xbar * (1.0 + 1e-12)), EmptySet)


@pytest.mark.parametrize("fn, args, products", [
    (OP.frechet, (OUTSIDE6,), 1), (OP.coderivative, (OUTSIDE6, TANGENT6), 2),
    (OP.coderivative, (INSIDE6, TANGENT6), 1), (OP.coderivative, (X6, TANGENT6 - 0.5 * X6), 6),
], ids=["frechet/exterior", "coderivative/exterior", "coderivative/interior", "coderivative/sphere-partial"])
def test_the_ball_takes_the_square_sum_of_xbar_once(fn, args, products):
    # ||xbar||^2 gives the region, the exterior scale and axis, the self query's bound and the split
    code = vectors._dot.__code__
    assert len(_calls(lambda c: c is code, fn, *args)) == products


@pytest.mark.parametrize("n", [1, 2, 6, 50])
@pytest.mark.parametrize("radius", [1.0, 1e-200, 1e200])
def test_exterior_ball_maps_keep_the_bits_of_the_point_map(radius, n):
    # the square sum is taken once, but the map is the one from_point builds, bit for bit
    rng = np.random.default_rng(n)
    op = BallProjection(radius)
    for _ in range(5):
        x = rng.standard_normal(n)
        x *= rng.uniform(1.5, 10.0) * radius / vectors.norm(x)
        v = radius * rng.standard_normal(n)
        want = ScaledComplementMap.from_point(radius / vectors.norm(x), x)(v).tobytes()
        assert op.frechet(x)(v).tobytes() == want
        assert op.coderivative(x, v).value.tobytes() == want


@pytest.mark.parametrize("radius", [0.7, 3.0])
def test_outward_sphere_gateaux_keeps_the_bits_of_its_own_products(radius):
    rng = np.random.default_rng(17)
    op, xbar = BallProjection(radius), rng.standard_normal(6)
    xbar *= radius / vectors.norm(xbar)
    for _ in range(50):
        w = rng.standard_normal(6)
        w *= 1.0 if np.dot(w, xbar) >= 0.0 else -1.0
        half, e = vectors._halved(w)
        unit = xbar / radius
        want = np.ldexp(half - float(vectors._dot(unit, half)) * unit, e)
        assert op.gateaux(xbar, w).tobytes() == want.tobytes()


class TestValidatedOnce:
    @pytest.mark.parametrize("name", sorted(ONCE))
    def test_each_array_argument_is_checked_once(self, name):
        fn, *args = ONCE[name]
        assert _as_vector_calls(fn, *args) <= len(args)

    def test_a_singleton_checks_its_query_and_its_value_once(self):
        # the value is checked, and its norm taken, on the first call; from then on only z
        singleton = SingletonSet(np.array([1.0, 2.0]))
        assert _as_vector_calls(singleton.contains, np.array([1.0, 2.0])) == 2
        assert _as_vector_calls(singleton.contains, np.array([1.0, 2.0])) == 1
        assert _as_vector_calls(singleton.contains, np.array([3.0, 2.0])) == 1

    def test_the_hook_counts(self):
        assert _as_vector_calls(vectors.as_vector_of, W, 2) == 1
        assert _as_vector_calls(vectors.approx_equal, W, W) >= 2


class TestNoNumpyWrappers:
    """A closed form reduces through numpy's C entry points, never its Python wrappers (see ``vectors``)."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS6))
    def test_no_python_wrapper_on_the_call(self, name):
        fn, *args = CLOSED_FORMS6[name]
        assert [f"{c.co_filename.rpartition('/')[2]}:{c.co_name}" for c in _calls(_numpy_wrapper, fn, *args)] == []

    def test_no_python_wrapper_on_a_verdict(self, clear_kept):
        # a dense and a sparse verdict, each first on a new plan, then on the kept one; the warm-up
        # verdict at the same m fills _geometry, whose np.repeat runs once per (m, radii)
        z6, z_sparse = np.array([0.5, 0.0, 0.5, 0.0, -0.5, 0.0]), SparseVector({1: 0.5, 2: -1.0, 4: 0.5})
        clear_kept()
        for f, warm, xbar, y, zs in ((OP.project, OUTSIDE6, INSIDE6, TANGENT6, (X6, z6)),
                                     (l2_cone.project, SPARSE_X, SparseVector({1: 2.0, 3: 1.0}), SPARSE_Y,
                                      (z_sparse, 0.5 * z_sparse))):
            oracle.membership(f, warm, y, zs[0])
            hits = oracle._kept_plan.cache_info().hits
            for z in zs:
                assert _calls(_numpy_wrapper, oracle.membership, f, xbar, y, z) == []
            assert oracle._kept_plan.cache_info().hits == hits + 1

    def test_the_hook_sees_each_wrapper(self):
        wrappers = [lambda: X6.any(), lambda: np.max(X6), lambda: np.all(X6), lambda: np.array_equal(X6, X6),
                    lambda: np.zeros_like(X6), lambda: np.flatnonzero(X6), lambda: np.count_nonzero(X6)]
        for wrapper in wrappers:
            assert _calls(_numpy_wrapper, wrapper)
        assert not _calls(_numpy_wrapper, lambda: (vectors._count_nonzero(X6), np.maximum.reduce(X6), np.zeros(6)))


class TestErrorParity:
    def test_every_case_is_recorded(self):
        assert sorted(case for cases in EXPECTED.values() for case in cases) == sorted(CASES)

    def test_each_bad_argument_raises_as_before(self):
        want = {case: outcome for outcome, cases in EXPECTED.items() for case in cases}
        got = {case: _outcome(thunk) for case, thunk in CASES.items()}
        assert {c: got[c] for c in CASES if got[c] != want[c]} == {}


# outcome -> the cases that end in it, recorded before the checks moved to the entry points; the
# SparseVector and wrong-length outcomes recorded again when ``vectors`` took over their messages, and
# the IdentityMap and ZeroMap cases added when those maps took the kind and length rules
EXPECTED = {
    'ValueError: vector entries must be finite': """
        ball.project/nan ball.region/nan ball.frechet/nan orthant.project/nan orthant.region/nan
        orthant.frechet/nan vectors.norm/nan vectors.is_zero/nan vectors.encode_vector/nan
        ball.direction_class/interior/xbar-nan ball.direction_class/interior/w-nan
        ball.gateaux/interior/xbar-nan ball.gateaux/interior/w-nan
        ball.coderivative/interior/xbar-nan ball.coderivative/interior/w-nan
        ball.direction_class/sphere/xbar-nan ball.direction_class/sphere/w-nan
        ball.gateaux/sphere/xbar-nan ball.gateaux/sphere/w-nan ball.coderivative/sphere/xbar-nan
        ball.coderivative/sphere/w-nan ball.direction_class/exterior/xbar-nan
        ball.direction_class/exterior/w-nan ball.gateaux/exterior/xbar-nan
        ball.gateaux/exterior/w-nan ball.coderivative/exterior/xbar-nan
        ball.coderivative/exterior/w-nan orthant.gateaux/first-nan orthant.gateaux/second-nan
        orthant.coderivative/first-nan orthant.coderivative/second-nan vectors.inner/first-nan
        vectors.inner/second-nan vectors.approx_equal/first-nan vectors.approx_equal/second-nan
        vectors.orth_decompose/first-nan vectors.orth_decompose/second-nan SingletonSet.contains/nan
        EmptySet.contains/nan SpherePartial.contains/nan CornerPartial.contains/nan
        CornerPartial-none.contains/nan ScaledComplementMap/nan CoordinateMaskMap/nan
        ScaledComplementMap.from_point/nan ball.project/inf ball.region/inf ball.frechet/inf
        orthant.project/inf orthant.region/inf orthant.frechet/inf vectors.norm/inf
        vectors.is_zero/inf vectors.encode_vector/inf ball.direction_class/interior/xbar-inf
        ball.direction_class/interior/w-inf ball.gateaux/interior/xbar-inf
        ball.gateaux/interior/w-inf ball.coderivative/interior/xbar-inf
        ball.coderivative/interior/w-inf ball.direction_class/sphere/xbar-inf
        ball.direction_class/sphere/w-inf ball.gateaux/sphere/xbar-inf ball.gateaux/sphere/w-inf
        ball.coderivative/sphere/xbar-inf ball.coderivative/sphere/w-inf
        ball.direction_class/exterior/xbar-inf ball.direction_class/exterior/w-inf
        ball.gateaux/exterior/xbar-inf ball.gateaux/exterior/w-inf
        ball.coderivative/exterior/xbar-inf ball.coderivative/exterior/w-inf
        orthant.gateaux/first-inf orthant.gateaux/second-inf orthant.coderivative/first-inf
        orthant.coderivative/second-inf vectors.inner/first-inf vectors.inner/second-inf
        vectors.approx_equal/first-inf vectors.approx_equal/second-inf
        vectors.orth_decompose/first-inf vectors.orth_decompose/second-inf SingletonSet.contains/inf
        EmptySet.contains/inf SpherePartial.contains/inf CornerPartial.contains/inf
        CornerPartial-none.contains/inf ScaledComplementMap/inf CoordinateMaskMap/inf
        ScaledComplementMap.from_point/inf ball.direction_class/exterior/nan
        IdentityMap/nan IdentityMap/inf ZeroMap/nan ZeroMap/inf
    """.split(),
    'TypeError: z must be a SparseVector': """
        OrderIntervalSet.contains/nan SelfExclusionPartial.contains/nan
        OrderIntervalSet.contains/inf SelfExclusionPartial.contains/inf OrderIntervalSet.contains/2d
        SelfExclusionPartial.contains/2d OrderIntervalSet.contains/empty
        SelfExclusionPartial.contains/empty OrderIntervalSet.contains/dim3
        SelfExclusionPartial.contains/dim3
    """.split(),
    'ValueError: expected a one-dimensional vector with at least one entry': """
        ball.project/2d ball.region/2d ball.frechet/2d orthant.project/2d orthant.region/2d
        orthant.frechet/2d vectors.norm/2d vectors.is_zero/2d vectors.encode_vector/2d
        ball.direction_class/interior/xbar-2d ball.direction_class/interior/w-2d
        ball.gateaux/interior/xbar-2d ball.gateaux/interior/w-2d ball.coderivative/interior/xbar-2d
        ball.coderivative/interior/w-2d ball.direction_class/sphere/xbar-2d
        ball.direction_class/sphere/w-2d ball.gateaux/sphere/xbar-2d ball.gateaux/sphere/w-2d
        ball.coderivative/sphere/xbar-2d ball.coderivative/sphere/w-2d
        ball.direction_class/exterior/xbar-2d ball.direction_class/exterior/w-2d
        ball.gateaux/exterior/xbar-2d ball.gateaux/exterior/w-2d ball.coderivative/exterior/xbar-2d
        ball.coderivative/exterior/w-2d orthant.gateaux/first-2d orthant.gateaux/second-2d
        orthant.coderivative/first-2d orthant.coderivative/second-2d vectors.inner/first-2d
        vectors.inner/second-2d vectors.approx_equal/first-2d vectors.approx_equal/second-2d
        vectors.orth_decompose/first-2d vectors.orth_decompose/second-2d SingletonSet.contains/2d
        EmptySet.contains/2d SpherePartial.contains/2d CornerPartial.contains/2d
        CornerPartial-none.contains/2d ScaledComplementMap/2d CoordinateMaskMap/2d
        ScaledComplementMap.from_point/2d ball.project/empty ball.region/empty ball.frechet/empty
        orthant.project/empty orthant.region/empty orthant.frechet/empty vectors.norm/empty
        vectors.is_zero/empty vectors.encode_vector/empty ball.direction_class/interior/xbar-empty
        ball.direction_class/interior/w-empty ball.gateaux/interior/xbar-empty
        ball.gateaux/interior/w-empty ball.coderivative/interior/xbar-empty
        ball.coderivative/interior/w-empty ball.direction_class/sphere/xbar-empty
        ball.direction_class/sphere/w-empty ball.gateaux/sphere/xbar-empty
        ball.gateaux/sphere/w-empty ball.coderivative/sphere/xbar-empty
        ball.coderivative/sphere/w-empty ball.direction_class/exterior/xbar-empty
        ball.direction_class/exterior/w-empty ball.gateaux/exterior/xbar-empty
        ball.gateaux/exterior/w-empty ball.coderivative/exterior/xbar-empty
        ball.coderivative/exterior/w-empty orthant.gateaux/first-empty orthant.gateaux/second-empty
        orthant.coderivative/first-empty orthant.coderivative/second-empty vectors.inner/first-empty
        vectors.inner/second-empty vectors.approx_equal/first-empty
        vectors.approx_equal/second-empty vectors.orth_decompose/first-empty
        vectors.orth_decompose/second-empty SingletonSet.contains/empty EmptySet.contains/empty
        SpherePartial.contains/empty CornerPartial.contains/empty CornerPartial-none.contains/empty
        ScaledComplementMap/empty CoordinateMaskMap/empty ScaledComplementMap.from_point/empty
        IdentityMap/2d IdentityMap/empty ZeroMap/2d ZeroMap/empty
    """.split(),
    'ok': """
        vectors.norm/sparse vectors.is_zero/sparse vectors.encode_vector/sparse
        OrderIntervalSet.contains/sparse SelfExclusionPartial.contains/sparse ball.project/dim3
        ball.region/dim3 ball.frechet/dim3 orthant.project/dim3 orthant.region/dim3
        orthant.frechet/dim3 vectors.norm/dim3 vectors.is_zero/dim3 vectors.encode_vector/dim3
        ScaledComplementMap.from_point/dim3
        ZeroMap/list
    """.split(),
    'TypeError: dense and sparse vectors cannot be combined in one operation': """
        ball.gateaux/interior/w-sparse ball.gateaux/sphere/w-sparse ball.gateaux/exterior/w-sparse
        orthant.gateaux/second-sparse vectors.inner/first-sparse vectors.inner/second-sparse
        vectors.approx_equal/first-sparse vectors.approx_equal/second-sparse
        vectors.orth_decompose/first-sparse vectors.orth_decompose/second-sparse
        SingletonSet.contains/sparse EmptySet.contains/sparse SpherePartial.contains/sparse
        CornerPartial.contains/sparse CornerPartial-none.contains/sparse ball.project/sparse
        ball.region/sparse ball.frechet/sparse orthant.project/sparse orthant.region/sparse
        orthant.frechet/sparse ball.direction_class/interior/xbar-sparse
        ball.direction_class/interior/w-sparse ball.gateaux/interior/xbar-sparse
        ball.coderivative/interior/xbar-sparse ball.coderivative/interior/w-sparse
        ball.direction_class/sphere/xbar-sparse ball.direction_class/sphere/w-sparse
        ball.gateaux/sphere/xbar-sparse ball.coderivative/sphere/xbar-sparse
        ball.coderivative/sphere/w-sparse ball.direction_class/exterior/xbar-sparse
        ball.direction_class/exterior/w-sparse ball.gateaux/exterior/xbar-sparse
        ball.coderivative/exterior/xbar-sparse ball.coderivative/exterior/w-sparse
        orthant.gateaux/first-sparse orthant.coderivative/first-sparse
        orthant.coderivative/second-sparse ScaledComplementMap/sparse CoordinateMaskMap/sparse
        ScaledComplementMap.from_point/sparse
        IdentityMap/sparse ZeroMap/sparse
    """.split(),
    'ValueError: dimension mismatch: 2 vs 3': """
        ball.direction_class/interior/xbar-dim3 ball.gateaux/interior/xbar-dim3
        ball.direction_class/sphere/xbar-dim3 ball.gateaux/sphere/xbar-dim3
        ball.direction_class/exterior/xbar-dim3 ball.gateaux/exterior/xbar-dim3
        orthant.gateaux/first-dim3 vectors.inner/second-dim3 vectors.approx_equal/second-dim3
        vectors.orth_decompose/first-dim3 ball.coderivative/interior/xbar-dim3
        ball.coderivative/sphere/xbar-dim3 ball.coderivative/exterior/xbar-dim3
        orthant.coderivative/first-dim3
    """.split(),
    'ValueError: direction classification is defined at sphere points only': """
        ball.direction_class/interior
    """.split(),
    'ValueError: dimension mismatch: 3 vs 2': """
        ball.gateaux/interior/w-dim3 ball.direction_class/sphere/w-dim3 ball.gateaux/sphere/w-dim3
        ball.gateaux/exterior/w-dim3 orthant.gateaux/second-dim3 vectors.inner/first-dim3
        vectors.approx_equal/first-dim3 vectors.orth_decompose/second-dim3
        SingletonSet.contains/dim3 EmptySet.contains/dim3 SpherePartial.contains/dim3
        CornerPartial.contains/dim3 CornerPartial-none.contains/dim3 ball.gateaux/sphere/zero-dim3
        ball.direction_class/interior/w-dim3 ball.coderivative/interior/w-dim3
        ball.coderivative/sphere/w-dim3 ball.direction_class/exterior/w-dim3
        ball.coderivative/exterior/w-dim3 orthant.coderivative/second-dim3 ScaledComplementMap/dim3
        CoordinateMaskMap/dim3 ball.direction_class/sphere/zero-dim3
        ball.direction_class/interior/zero-dim3 ball.coderivative/sphere/zero-dim3
        orthant.coderivative/corner/zero-dim3
        IdentityMap/dim3 ZeroMap/dim3
    """.split(),
    'ValueError: direction must be nonzero': """
        ball.direction_class/sphere/zero ball.gateaux/sphere/zero
    """.split(),
    'ValueError: the directional derivative exceeds the largest double': """
        ball.gateaux/outward-overflow
    """.split(),
    'ValueError: anchor must be nonzero': """
        vectors.orth_decompose/zero-anchor
    """.split(),
    'ValueError: axis must be nonzero': """
        ScaledComplementMap.from_point/zero
    """.split(),
    'TypeError: xbar must be a SparseVector': """
        l2_cone.coderivative/dense-xbar
    """.split(),
    'TypeError: y must be a SparseVector': """
        l2_cone.coderivative/dense-y l2_cone.nonnegative_off/dense l2_cone.order_leq/dense
    """.split(),
    'ValueError: xbar must be strictly positive exactly on M': """
        l2_cone.coderivative/empty-support l2_cone.coderivative/off-support
    """.split(),
    'ValueError: support indices must be positive integers, got 0': """
        l2_cone.has_positive_support/bad-index
    """.split(),
    'ValueError: order interval bound must be nonnegative off the support set': """
        l2_cone.OrderIntervalSet/negative-off
    """.split(),
}
