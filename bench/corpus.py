"""Seeded inputs and expected answers for every workload.

Nothing here asks the library what an answer should be.  Expected
memberships follow from how each query is built (the regimes mirror
``varproj.suites``), and projections, derivatives and vector arithmetic
are checked against the scaled-norm references at the top of this file.
A library refactor therefore cannot move the inputs or the answers; the
corpus digest printed by ``run.py`` shows that both sides of a pair ran
the same inputs.

Every workload function returns blocks: lists of ``Op`` whose mix is fixed, so a
run that completes whole blocks always measures the same mix whatever
the seed.  Only the values depend on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from typing import Callable, Optional

import numpy as np

from harness import Op, run_cli
from varproj import ball as ball_mod
from varproj import l2_cone, oracle, orthant, vectors
from varproj.ball import BallProjection
from varproj.oracle import ProbeConfig
from varproj.vectors import SparseVector

SIZES = (2, 6, 50, 500)
SUITES = ("decomp", "ball-deriv", "ball-coderiv", "cone-rn", "cone-l2", "oracle-consistency")
DEFAULT = ProbeConfig()
GRID = ProbeConfig(random_directions=32)


# --- references -----------------------------------------------------------

def ref_norm(x) -> float:
    """Euclidean norm scaled by the largest entry, so it neither overflows nor underflows."""
    x = np.abs(np.asarray(x, dtype=float))
    s = float(x.max()) if x.size else 0.0
    if s == 0.0:
        return 0.0
    return s * math.sqrt(math.fsum((x / s) ** 2))


def close(got, want, rtol: float = 1e-10) -> bool:
    """Same shape, finite, and ||got - want|| <= rtol * max(||got||, ||want||), scaled."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(float(np.max(np.abs(got), initial=0.0)), float(np.max(np.abs(want), initial=0.0)))
    if scale == 0.0:
        return True
    g, w = got / scale, want / scale
    return ref_norm(g - w) <= rtol * max(ref_norm(g), ref_norm(w))


def ref_inner(a, b) -> float:
    return math.fsum(np.asarray(a, dtype=float) * np.asarray(b, dtype=float))


def ref_ball_project(x: np.ndarray, r: float) -> np.ndarray:
    length = ref_norm(x)
    return x.copy() if length <= r else (r / length) * x


def ref_complement(x: np.ndarray, w: np.ndarray, scale: float) -> np.ndarray:
    """scale * (w - <w, xhat> xhat) with xhat = x / ||x||."""
    xhat = x / ref_norm(x)
    return scale * (w - ref_inner(w, xhat) * xhat)


def ref_orth(anchor: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Coefficient a and residual o of x = a * anchor + o, computed on the scaled anchor."""
    s = float(np.max(np.abs(anchor)))
    unit = anchor / s
    a = ref_inner(x, unit) / ref_inner(unit, unit) / s
    return a, x - (a * s) * unit


def ref_corner(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, w, np.where(x < 0.0, 0.0, np.maximum(w, 0.0)))


def in_interval(z: SparseVector, y: SparseVector, M: frozenset[int]) -> bool:
    """z = y on M and 0 <= z <= y off M."""
    for i in z.support | y.support | M:
        zi, yi = z.get(i), y.get(i)
        if (i in M and zi != yi) or (i not in M and not 0.0 <= zi <= yi):
            return False
    return True


# --- random pieces (same regimes as varproj.suites, own code) -------------

def signed(rng, n, lo=0.1, hi=1.0) -> np.ndarray:
    return rng.uniform(lo, hi, n) * rng.choice((-1.0, 1.0), n)


def unit(rng, n) -> np.ndarray:
    while True:
        v = rng.standard_normal(n)
        length = ref_norm(v)
        if length > 1e-6:
            return v / length


def pert(rng, n, lo=0.3, hi=1.0) -> np.ndarray:
    return unit(rng, n) * rng.uniform(lo, hi)


def orth_unit(rng, anchor: np.ndarray) -> np.ndarray:
    while True:
        o = ref_orth(anchor, unit(rng, anchor.shape[0]))[1]
        length = ref_norm(o)
        if length > 0.1:
            return o / length


def mixed(rng, n, lo=0.1, hi=2.0) -> np.ndarray:
    """Signed coordinates with at least one positive and one negative entry."""
    x = signed(rng, n, lo, hi)
    x[0], x[1] = abs(x[0]), -abs(x[1])
    return x


def sparse(rng, indices, lo=0.1, hi=2.0, signs=True) -> SparseVector:
    values = {}
    for i in indices:
        v = float(rng.uniform(lo, hi))
        values[int(i)] = v * float(rng.choice((-1.0, 1.0))) if signs else v
    return SparseVector(values)


# --- checks ----------------------------------------------------------------

def expect_vector(want) -> Callable:
    want = np.asarray(want, dtype=float)
    return lambda got: None if close(got, want) else "vector differs from the reference"


def expect_sparse(want: dict) -> Callable:
    return lambda got: None if dict(got.pairs) == want else f"got {dict(got.pairs)}"


def expect_equal(want) -> Callable:
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


def expect_scalar(want: float, rtol=1e-12, scale: float = 0.0) -> Callable:
    def check(got):
        return None if abs(got - want) <= rtol * max(abs(want), scale) else f"got {got!r}, want {want!r}"
    return check


def expect_json(want: dict, vector_keys=("value",)) -> Callable:
    """Compare a descriptor or map ``to_json()`` with ``want``; vector entries by ``close``."""

    def check(got):
        if got is None:
            return "got None"
        doc = got.to_json()
        for key in want.keys() | doc.keys():
            a, b = doc.get(key), want.get(key)
            ok = close(a, b) if key in vector_keys and a is not None and b is not None else a == b
            if not ok:
                return f"{key}: got {a!r}, want {b!r}"
        return None

    return check


def expect_verdict(f, xbar, y, z, member: bool) -> Callable:
    """The verdict must match the construction; a NonMember witness must re-evaluate exactly."""

    def check(v):
        want = "member" if member else "non_member"
        if v.verdict.value != want:
            return f"verdict {v.verdict.value}, want {want}"
        if not member:
            w = v.witness
            again = oracle.quotient(f, xbar, y, z, xbar + w.radius * w.direction)
            if again != w.quotient:
                return f"witness re-evaluates to {again!r}, stored {w.quotient!r}"
        return None

    return check


# --- oracle queries --------------------------------------------------------

class Query:
    """One membership query (xbar, y, z) with its expected answer."""

    def __init__(self, label, set_name, f, xbar, y, z, member, config=DEFAULT):
        self.label, self.set_name, self.f = label, set_name, f
        self.xbar, self.y, self.z, self.member, self.config = xbar, y, z, member, config

    def op(self, op_id: str) -> Op:
        return Op(
            id=op_id,
            layer="oracle.membership",
            call=lambda f: oracle.membership(f, self.xbar, self.y, self.z, self.config),
            check=expect_verdict(self.f, self.xbar, self.y, self.z, self.member),
            f=self.f,
            f_layer=f"{self.set_name}.project",
            inputs=(self.xbar, self.y, self.z, self.config.random_directions),
        )


def ball_queries(rng, n: int) -> list[Query]:
    """Every coderivative regime of the ball projection at dimension n."""
    r = float(rng.choice((0.5, 1.0, 2.0)))
    f = BallProjection(r).project
    theta = np.zeros(n)
    out = []

    def q(label, x, y, z, member):
        out.append(Query(f"ball/{label}", "ball", f, x, y, z, member))

    x_in = unit(rng, n) * (r * rng.uniform(0.2, 0.8))
    y_in = signed(rng, n)
    q("interior-member", x_in, y_in, y_in.copy(), True)
    q("interior-off", x_in, y_in, y_in + pert(rng, n), False)
    x_ex = unit(rng, n) * (r * rng.uniform(1.5, 2.5))
    y_ex = signed(rng, n)
    v_ex = ref_complement(x_ex, y_ex, r / ref_norm(x_ex))
    q("exterior-member", x_ex, y_ex, v_ex, True)
    q("exterior-off", x_ex, y_ex, v_ex + pert(rng, n), False)
    x_s = r * unit(rng, n)
    o_hat = orth_unit(rng, x_s)
    q("sphere-zero-member", x_s, theta, theta.copy(), True)
    c = float(rng.uniform(0.3, 1.5) * rng.choice((-1.0, 1.0)))
    q("sphere-zero-radial", x_s, theta, c * x_s, False)
    q("sphere-zero-orth", x_s, theta, rng.uniform(-0.5, 0.5) * x_s + o_hat * rng.uniform(0.3, 1.5), False)
    q("sphere-partial-member", x_s, -rng.uniform(0.1, 1.5) * x_s, theta.copy(), True)
    a_pos = rng.uniform(0.1, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 1.5)
    q("sphere-partial-radial", x_s, a_pos * x_s, theta.copy(), False)
    y_orth = rng.uniform(-0.5, 0.5) * x_s + o_hat * rng.uniform(0.3, 1.0)
    q("sphere-partial-orth", x_s, y_orth, theta.copy(), False)
    for tag, z in (("theta", theta.copy()), ("xbar", x_s.copy()), ("neg-xbar", -x_s),
                   ("random", signed(rng, n, 0.3, 1.0))):
        q(f"sphere-self-{tag}", x_s, x_s.copy(), z, False)
    return out


def orthant_queries(rng, n: int) -> list[Query]:
    """Every coderivative regime of the orthant projection at dimension n."""
    f = orthant.project
    theta = np.zeros(n)
    out = []

    def q(label, x, y, z, member):
        out.append(Query(f"orthant/{label}", "orthant", f, x, y, z, member))

    x_pos = rng.uniform(0.1, 2.0, n)
    y1 = signed(rng, n)
    q("positive-member", x_pos, y1, y1.copy(), True)
    q("positive-off", x_pos, y1, y1 + pert(rng, n), False)
    x_neg = -rng.uniform(0.1, 2.0, n)
    q("negative-member", x_neg, signed(rng, n), theta.copy(), True)
    q("negative-off", x_neg, signed(rng, n), pert(rng, n), False)
    x_mix = mixed(rng, n)
    y3 = signed(rng, n)
    v3 = np.where(x_mix > 0.0, y3, 0.0)
    q("mixed-member", x_mix, y3, v3, True)
    q("mixed-off", x_mix, y3, v3 + pert(rng, n), False)
    x_c = signed(rng, n, 0.1, 2.0)
    x_c[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
    q("corner-zero-member", x_c, theta, theta.copy(), True)
    q("corner-zero-off", x_c, theta, signed(rng, n, 0.3, 1.0), False)
    x_l = signed(rng, n, 0.1, 2.0)
    j = int(rng.integers(n))
    x_l[j] = 0.0
    y_l = signed(rng, n, 0.1, 1.0)
    y_l[j] = -rng.uniform(0.5, 2.0)
    for lam in (0.0, 0.5, 0.9, -1.0):
        q(f"corner-scale-{lam}", x_l, y_l, lam * y_l, False)
    x7 = -rng.uniform(0.1, 2.0, n)
    x7[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
    q("corner-self-nopos-member", x7, x7.copy(), theta.copy(), True)
    q("corner-self-nopos-off", x7, x7.copy(), signed(rng, n, 0.3, 1.0), False)
    x8 = signed(rng, n, 0.1, 2.0)
    x8[0] = abs(x8[0])
    x8[int(rng.integers(1, n))] = 0.0
    q("corner-self-pos-theta", x8, x8.copy(), theta.copy(), False)
    q("corner-self-pos-random", x8, x8.copy(), signed(rng, n, 0.3, 1.0), False)
    return out


def wide_query(rng, n: int, kind: int) -> Query:
    """Ball exterior or orthant mixed point at large n, member or perturbed non-member."""
    y = signed(rng, n)
    if kind // 2 == 0:
        r = float(rng.choice((0.5, 1.0, 2.0)))
        x = unit(rng, n) * (r * rng.uniform(1.5, 2.5))
        z = ref_complement(x, y, r / ref_norm(x))
        set_name, f, label = "ball", BallProjection(r).project, "ball/exterior"
    else:
        x = mixed(rng, n)
        z = np.where(x > 0.0, y, 0.0)
        set_name, f, label = "orthant", orthant.project, "orthant/mixed"
    member = kind % 2 == 0
    if not member:
        z = z + pert(rng, n)
    return Query(f"{label}-{'member' if member else 'off'}", set_name, f, x, y, z, member)


def l2_queries(rng) -> list[Query]:
    """Every sparse-cone coderivative rule (the families of ``l2_membership_cases``)."""
    f = l2_cone.project
    zero = SparseVector.zero()
    out = []

    def q(label, x, y, z, member):
        out.append(Query(f"l2/{label}", "l2_cone", f, x, y, z, member))

    any_support = [int(i) for i in rng.choice(np.arange(1, 9), size=int(rng.integers(1, 5)), replace=False)]
    x_any = sparse(rng, any_support)
    q("zero-query-member", x_any, zero, zero, True)
    q("zero-query-off", x_any, zero, sparse(rng, any_support, 0.3, 1.0), False)
    xbar, M, y, off = interval_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), lo=0.1)
    i0, j0 = off[0], min(M)
    q("interval-bound", xbar, y, y, True)
    q("interval-interior", xbar, y, y + SparseVector({i0: -0.5 * y.get(i0)}), True)
    q("interval-above", xbar, y, y + SparseVector({i0: 0.5}), False)
    q("interval-negative", xbar, y, y + SparseVector({i0: -y.get(i0) - rng.uniform(0.3, 1.0)}), False)
    q("interval-on-support", xbar, y, y + SparseVector({j0: 0.5 * float(rng.choice((-1.0, 1.0)))}), False)
    y_col = sparse(rng, sorted(M))
    fresh = max(M | set(off)) + 1
    q("collapse-member", xbar, y_col, y_col, True)
    q("collapse-off", xbar, y_col, y_col + SparseVector({fresh: 0.5}), False)
    y_sx = y + SparseVector({i0: -y.get(i0) - rng.uniform(0.3, 1.0)})
    q("self-exclusion", xbar, y_sx, y_sx, False)
    return out


def interval_instance(rng, m_size: int, off_size: int, lo: float = 0.4):
    """xbar strictly positive exactly on M, y signed on M and positive off M."""
    idx = [int(i) for i in rng.choice(np.arange(1, 9), size=m_size + off_size, replace=False)]
    M = frozenset(idx[:m_size])
    off = idx[m_size:]
    xbar = sparse(rng, sorted(M), 0.5, 2.0, signs=False)
    y = SparseVector(
        {i: float(rng.uniform(lo, 2.0) * rng.choice((-1.0, 1.0))) for i in idx[:m_size]}
        | {i: float(rng.uniform(0.4, 2.0)) for i in off}
    )
    return xbar, M, y, off


def grid_queries(rng, m_size: int, off_size: int, variant: int) -> list[Query]:
    """Order-interval grid in the style of ``order_interval_grid``: 3^(m+off) candidates."""
    xbar, M, y, off = interval_instance(rng, m_size, off_size)
    active = sorted(M | set(off))
    templates = []
    for i in active:
        yi = y.get(i)
        if i in M:
            templates.append((yi - 0.5, yi, yi + 0.5))
        elif variant % 2 == 0:
            templates.append((0.0, yi, yi + 0.25))
        else:
            templates.append((-0.5, 0.5 * yi, yi + 0.5))
    out = []
    for k, combo in enumerate(itertools.product(*templates)):
        z = SparseVector(dict(zip(active, combo)))
        out.append(Query(f"grid/{m_size}x{off_size}v{variant % 2}/{k:03d}", "l2_cone", l2_cone.project,
                         xbar, y, z, in_interval(z, y, M), GRID))
    return out


# --- workloads -------------------------------------------------------------

def oracle_dense(seed: int, rounds: int = 16) -> list[list[Op]]:
    """Blocks of 15 small queries (n 2..6, every regime) and 5 wide ones.

    The wide ones are a ball exterior and an orthant mixed query at n=50,
    and one ball and two orthant queries at n=500, members and perturbed
    non-members alike.  The n=500 share (15%) puts latency_p90_ms inside
    the n=500 cluster, away from its edges, so the percentile is steady.
    """
    rng = np.random.default_rng([seed, 1])
    small = []
    for k in range(rounds):
        small += ball_queries(rng, 2 + k % 5) + orthant_queries(rng, 2 + (k + 2) % 5)
    blocks = []
    for b in range(len(small) // 15):
        qs = small[15 * b:15 * b + 15]
        qs += [wide_query(rng, 50, b % 2), wide_query(rng, 50, 2 + (b + 1) % 2),
               wide_query(rng, 500, (b + 1) % 2), wide_query(rng, 500, 2), wide_query(rng, 500, 3)]
        blocks.append([q.op(f"oracle-dense/{b:03d}.{i:02d}/{q.label}/n{len(q.xbar)}") for i, q in enumerate(qs)])
    return blocks


GRID_SHAPES = ((1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (3, 1), (2, 4), (3, 2))


def oracle_sparse(seed: int, blocks: int = 256) -> list[list[Op]]:
    """Blocks of one point from each of eight order-interval grids + 2 l2-cone queries.

    The eight grids (27 to 729 points, one (xbar, y) each) are walked in
    step, so every block has the same mix of grid sizes, and a query's
    (xbar, y) comes back every eight grid queries.
    """
    rng = np.random.default_rng([seed, 2])
    grids = [grid_queries(rng, m, off, v) for v, (m, off) in enumerate(GRID_SHAPES)]
    cases = []
    while len(cases) < 2 * blocks:
        cases += l2_queries(rng)
    out = []
    for b in range(blocks):
        qs = [g[b % len(g)] for g in grids] + cases[2 * b:2 * b + 2]
        out.append([q.op(f"oracle-sparse/{b:03d}.{i}/{q.label}") for i, q in enumerate(qs)])
    return out


def _call(layer: str, fn, *args, check, op_id: str = "", inputs=None) -> Op:
    return Op(id=op_id, layer=layer, call=lambda: fn(*args), check=check,
              inputs=args if inputs is None else inputs)


def _ball_ops(rng, n: int) -> list[tuple[str, Op]]:
    r = float(rng.choice((0.5, 1.0, 2.0)))
    op = BallProjection(r)
    x_in = unit(rng, n) * (r * rng.uniform(0.2, 0.8))
    x_s = r * unit(rng, n)
    x_ex = unit(rng, n) * (r * rng.uniform(1.5, 2.5))
    points = {"interior": x_in, "sphere": x_s, "exterior": x_ex}
    o_hat = orth_unit(rng, x_s)
    w = signed(rng, n)
    y = signed(rng, n)
    out = []
    for region, x in points.items():
        out.append((f"ball.project/{region}", _call("ball.project", op.project, x,
                                                    check=expect_vector(ref_ball_project(x, r)))))
        out.append((f"ball.region/{region}", _call("ball.region", op.region, x,
                                                   check=lambda g, want=region: expect_equal(want)(g.value))))
    gateaux = {
        "interior": (x_in, w, w),
        "exterior": (x_ex, w, ref_complement(x_ex, w, r / ref_norm(x_ex))),
        "sphere-radial": (x_s, rng.uniform(0.1, 2.0) * x_s, np.zeros(n)),
    }
    w_out = o_hat + rng.uniform(0.0, 1.0) * x_s / r
    gateaux["sphere-outward"] = (x_s, w_out, w_out - (ref_inner(x_s, w_out) / r**2) * x_s)
    w_in = o_hat - rng.uniform(0.1, 1.0) * x_s / r
    gateaux["sphere-inward"] = (x_s, w_in, w_in)
    for tag, (x, d, want) in gateaux.items():
        out.append((f"ball.gateaux/{tag}", _call("ball.gateaux", op.gateaux, x, d,
                                                 check=expect_vector(want))))
    frechet = {
        "interior": (x_in, {"kind": "identity"}),
        "exterior": (x_ex, {"kind": "scaled_complement"}),
        "sphere": (x_s, None),
    }
    for tag, (x, want) in frechet.items():
        out.append((f"ball.frechet/{tag}", _call("ball.frechet", op.frechet, x,
                                                 check=_map_check(want, x, w, r))))
    partial_y = rng.uniform(-0.5, 0.5) * x_s + o_hat * rng.uniform(0.3, 1.0)
    coderiv = {
        "interior": (x_in, y, {"variant": "singleton", "value": list(y)}),
        "exterior": (x_ex, y, {"variant": "singleton",
                               "value": list(ref_complement(x_ex, y, r / ref_norm(x_ex)))}),
        "sphere-zero": (x_s, np.zeros(n), {"variant": "singleton", "value": [0.0] * n}),
        "sphere-self": (x_s, x_s.copy(), {"variant": "empty"}),
        "sphere-partial": (x_s, partial_y, {"variant": "partial", "rule": "ball-sphere",
                                            "known": {"contains_zero": False}}),
    }
    for tag, (x, yy, want) in coderiv.items():
        out.append((f"ball.coderivative/{tag}", _call("ball.coderivative", op.coderivative, x, yy,
                                                      check=expect_json(want))))
    return out


def _map_check(want: Optional[dict], x, w, r) -> Callable:
    """Check a Frechet map: kind, and for the ball exterior its action on w."""

    def check(got):
        if want is None:
            return None if got is None else f"got {got!r}, want None"
        if got is None:
            return "got None"
        doc = got.to_json()
        if doc.get("kind") != want["kind"]:
            return f"kind {doc.get('kind')!r}, want {want['kind']!r}"
        if want["kind"] == "scaled_complement":
            return expect_vector(ref_complement(x, w, r / ref_norm(x)))(got(w))
        if want["kind"] == "coordinate_mask" and doc.get("keep") != want["keep"]:
            return f"keep {doc.get('keep')}, want {want['keep']}"
        return None

    return check


def _orthant_ops(rng, n: int) -> list[tuple[str, Op]]:
    x_pos = rng.uniform(0.1, 2.0, n)
    x_neg = -rng.uniform(0.1, 2.0, n)
    x_mix = mixed(rng, n)
    x_c = signed(rng, n, 0.1, 2.0)
    x_c[0] = abs(x_c[0])
    x_c[rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False)] = 0.0
    points = {"positive": x_pos, "negative": x_neg, "mixed": x_mix, "with_zeros": x_c}
    w = signed(rng, n)
    out = []
    for region, x in points.items():
        out.append((f"orthant.project/{region}", _call("orthant.project", orthant.project, x,
                                                       check=expect_vector(np.where(x > 0.0, x, 0.0)))))
        out.append((f"orthant.region/{region}", _call("orthant.region", orthant.region, x,
                                                      check=lambda g, want=region: expect_equal(want)(g.value))))
        out.append((f"orthant.gateaux/{region}", _call("orthant.gateaux", orthant.gateaux, x, w,
                                                       check=expect_vector(ref_corner(x, w)))))
    maps = {
        "positive": {"kind": "identity"},
        "negative": {"kind": "zero"},
        "mixed": {"kind": "coordinate_mask", "keep": [int(i) for i in np.flatnonzero(x_mix > 0.0)]},
        "with_zeros": None,
    }
    for region, want in maps.items():
        out.append((f"orthant.frechet/{region}", _call("orthant.frechet", orthant.frechet, points[region],
                                                       check=_map_check(want, points[region], w, 1.0))))
    y = signed(rng, n)
    x7 = -rng.uniform(0.1, 2.0, n)
    x7[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
    y_l = signed(rng, n)
    j = int(np.flatnonzero(x_c == 0.0)[0])
    y_l[j] = -abs(y_l[j])
    coderiv = {
        "positive": (x_pos, y, {"variant": "singleton", "value": list(y)}),
        "negative": (x_neg, y, {"variant": "singleton", "value": [0.0] * n}),
        "mixed": (x_mix, y, {"variant": "singleton", "value": list(np.where(x_mix > 0.0, y, 0.0))}),
        "corner-zero": (x_c, np.zeros(n), {"variant": "singleton", "value": [0.0] * n}),
        "corner-self-nopos": (x7, x7.copy(), {"variant": "singleton", "value": [0.0] * n}),
        "corner-self-pos": (x_c, x_c.copy(), {"variant": "empty"}),
        "corner-partial": (x_c, y_l, {"variant": "partial", "rule": "cone-corner",
                                      "known": {"submultiples_excluded": True, "contains_zero": False}}),
    }
    for tag, (x, yy, want) in coderiv.items():
        out.append((f"orthant.coderivative/{tag}", _call("orthant.coderivative", orthant.coderivative, x, yy,
                                                         check=expect_json(want))))
    return out


def _l2_ops(rng, n: int) -> list[tuple[str, Op]]:
    """Sparse-cone calls on vectors with n nonzeros over indices 1..2n."""
    idx = sorted(int(i) for i in rng.choice(np.arange(1, 2 * n + 1), size=n, replace=False))
    x = sparse(rng, idx)
    m_size = max(1, n // 2)
    M = frozenset(idx[:m_size])
    xbar = sparse(rng, idx[:m_size], 0.5, 2.0, signs=False)
    y = SparseVector({i: x.get(i) for i in idx[:m_size]} | {i: abs(x.get(i)) for i in idx[m_size:]})
    y_col = sparse(rng, idx[:m_size])
    y_sx = y + SparseVector({idx[-1]: -2.0 * y.get(idx[-1])})
    out = [("l2_cone.project", _call("l2_cone.project", l2_cone.project, x,
                                     check=expect_sparse({i: v for i, v in x.pairs if v > 0.0})))]
    coderiv = {
        "zero-query": (SparseVector.zero(), {"variant": "singleton", "value": []}),
        "interval": (y, {"variant": "order_interval", "y": [[i, v] for i, v in y.pairs], "support": sorted(M)}),
        "collapse": (y_col, {"variant": "order_interval", "y": [[i, v] for i, v in y_col.pairs],
                             "support": sorted(M)}),
        "self-exclusion": (y_sx, {"variant": "partial", "rule": "l2-self-exclusion",
                                  "known": {"contains_target": False}}),
    }
    for tag, (yy, want) in coderiv.items():
        out.append((f"l2_cone.coderivative/{tag}", _call("l2_cone.coderivative", l2_cone.coderivative,
                                                          xbar, M, yy, check=expect_json(want, ()))))
    return out


def descriptor_cases(rng, n: int) -> list[tuple[str, object, object, Optional[bool]]]:
    """(variant, descriptor, z, expected contains) for every descriptor variant at size n."""
    r = 1.0
    op = BallProjection(r)
    x_ex = unit(rng, n) * rng.uniform(1.5, 2.5)
    y = signed(rng, n)
    value = ref_complement(x_ex, y, r / ref_norm(x_ex))
    x_s = unit(rng, n)
    o_hat = orth_unit(rng, x_s)
    x_c = signed(rng, n, 0.1, 2.0)
    x_c[0] = 0.0
    y_c = signed(rng, n)
    y_c[0] = -abs(y_c[0])
    lam = float(rng.uniform(-1.0, 0.9))
    idx = sorted(int(i) for i in rng.choice(np.arange(1, 2 * n + 1), size=n, replace=False))
    M = frozenset(idx[:1])
    xbar = sparse(rng, idx[:1], 0.5, 2.0, signs=False)
    y_iv = SparseVector({idx[0]: 1.0} | {i: float(rng.uniform(0.4, 2.0)) for i in idx[1:]})
    z_iv = y_iv + SparseVector({idx[-1]: -0.5 * y_iv.get(idx[-1])})
    y_sx = y_iv + SparseVector({idx[-1]: -2.0 * y_iv.get(idx[-1])})
    return [
        ("singleton", op.coderivative(x_ex, y), value, True),
        ("empty", op.coderivative(x_s, x_s.copy()), signed(rng, n), False),
        ("ball-sphere", op.coderivative(x_s, -rng.uniform(0.1, 1.5) * x_s), np.zeros(n), True),
        ("ball-sphere", op.coderivative(x_s, o_hat), np.zeros(n), False),
        ("cone-corner", orthant.coderivative(x_c, y_c), lam * y_c, False),
        ("l2-self-exclusion", l2_cone.coderivative(xbar, M, y_sx), y_sx, False),
        ("order_interval", l2_cone.coderivative(xbar, M, y_iv), z_iv, True),
        ("order_interval", l2_cone.coderivative(xbar, M, y_iv), z_iv + SparseVector({idx[-1]: 5.0}), False),
    ]


def _descriptor_ops(rng, n: int) -> list[tuple[str, Op]]:
    return [(f"descriptors.contains/{variant}",
             _call("descriptors.contains", desc.contains, z, check=expect_equal(want),
                   inputs=(variant, z)))
            for variant, desc, z, want in descriptor_cases(rng, n)]


def _vector_ops(rng, n: int) -> list[tuple[str, Op]]:
    a, b = signed(rng, n, 0.1, 2.0), rng.standard_normal(n)
    idx = [int(i) for i in rng.choice(np.arange(1, 3 * n + 1), size=n, replace=False)]
    sa, sb = sparse(rng, idx), sparse(rng, idx[: max(1, n // 2)] + [3 * n + 1])
    a_ref, o_ref = ref_orth(a, b)

    def orth_check(got):
        if abs(got.a - a_ref) > 1e-10 * max(abs(a_ref), ref_norm(b) / ref_norm(a)):
            return f"a {got.a!r}, want {a_ref!r}"
        if ref_norm(np.asarray(got.o) - o_ref) > 1e-10 * ref_norm(b):
            return "orthogonal part differs from the reference"
        return None

    dense_scale = ref_inner(np.abs(a), np.abs(b))
    sb_map = dict(sb.pairs)
    sparse_inner = math.fsum(v * sb_map.get(i, 0.0) for i, v in sa.pairs)
    sparse_scale = math.fsum(abs(v * sb_map.get(i, 0.0)) for i, v in sa.pairs)
    add = dict(sa.pairs)
    for i, v in sb.pairs:
        add[i] = add.get(i, 0.0) + v
    return [
        ("vectors.norm/dense", _call("vectors.norm", vectors.norm, a, check=expect_scalar(ref_norm(a)))),
        ("vectors.norm/sparse", _call("vectors.norm", vectors.norm, sa,
                                      check=expect_scalar(ref_norm([v for _, v in sa.pairs])))),
        ("vectors.inner/dense", _call("vectors.inner", vectors.inner, a, b,
                                      check=expect_scalar(ref_inner(a, b), 1e-12, dense_scale))),
        ("vectors.inner/sparse", _call("vectors.inner", vectors.inner, sa, sb,
                                       check=expect_scalar(sparse_inner, 1e-12, sparse_scale))),
        ("vectors.orth_decompose/dense", _call("vectors.orth_decompose", vectors.orth_decompose, a, b,
                                               check=orth_check)),
        ("vectors.sparse_add", _call("vectors.sparse_add", SparseVector.__add__, sa, sb,
                                     check=expect_sparse({i: v for i, v in add.items() if v != 0.0}))),
    ]


def closed_form_calls(rng, n: int) -> list[tuple[str, Op]]:
    """One call per (function, region or variant) at size n: (key, op) with the op id unset."""
    return _ball_ops(rng, n) + _orthant_ops(rng, n) + _l2_ops(rng, n) + _descriptor_ops(rng, n) + _vector_ops(rng, n)


def closed_forms(seed: int, copies: int = 8) -> list[list[Op]]:
    """Each block: every closed-form call at every size in SIZES, with fresh values per block."""
    rng = np.random.default_rng([seed, 3])
    blocks = []
    for b in range(copies):
        block = []
        for n in SIZES:
            for key, op in closed_form_calls(rng, n):
                block.append(op.named(f"closed-forms/{b:03d}/{key}/n{n}"))
        blocks.append(block)
    return blocks


# --- CLI -------------------------------------------------------------------

def wire(v) -> str:
    return json.dumps(vectors.encode_vector(v))


def cli_op(op_id: str, argv: list[str], check: Callable, expect_code: int = 0) -> Op:
    """One fresh ``python -m varproj.cli`` process; ``check`` sees the parsed stdout."""
    def check_proc(proc):
        if proc.returncode != expect_code:
            return f"exit {proc.returncode}, want {expect_code}: {proc.stderr.strip()[-200:]}"
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return f"stdout is not JSON: {proc.stdout[:200]!r}"
        return check(doc)

    argv = tuple(argv)
    return Op(id=op_id, layer="cli.process", call=lambda: run_cli(argv), check=check_proc, inputs=argv)


def _doc_vector(key: str, want, sparse_out: bool = False) -> Callable:
    if sparse_out:
        return lambda doc: None if doc.get(key) == want else f"{key}: got {doc.get(key)}, want {want}"
    return lambda doc: None if close(doc.get(key, []), want) else f"{key} differs from the reference"


def _cli_project(rng, set_name: str) -> tuple[list[str], Callable]:
    n = int(rng.integers(2, 7))
    if set_name == "ball":
        r = float(rng.choice((0.5, 1.0, 2.0)))
        x = signed(rng, n, 0.1, 2.0)
        return ["--set", "ball", "--radius", repr(r), "--point", wire(x)], _doc_vector("projection", ref_ball_project(x, r))
    if set_name == "cone-rn":
        x = signed(rng, n, 0.1, 2.0)
        return ["--set", "cone-rn", "--point", wire(x)], _doc_vector("projection", np.where(x > 0.0, x, 0.0))
    idx = sorted(int(i) for i in rng.choice(np.arange(1, 12), size=n, replace=False))
    x = sparse(rng, idx)
    want = [[i, v] for i, v in x.pairs if v > 0.0]
    return ["--set", "cone-l2", "--point", wire(x)], _doc_vector("projection", want, sparse_out=True)


def _cli_gateaux(rng, set_name: str) -> tuple[list[str], Callable]:
    n = int(rng.integers(2, 7))
    w = signed(rng, n)
    if set_name == "ball":
        r = float(rng.choice((0.5, 1.0, 2.0)))
        x = unit(rng, n) * (r * rng.uniform(1.5, 2.5))
        want = ref_complement(x, w, r / ref_norm(x))
        return ["--set", "ball", "--radius", repr(r), "--xbar", wire(x), "--w", wire(w)], _doc_vector("derivative", want)
    x = signed(rng, n, 0.1, 2.0)
    x[int(rng.integers(n))] = 0.0
    return ["--set", "cone-rn", "--xbar", wire(x), "--w", wire(w)], _doc_vector("derivative", ref_corner(x, w))


def _cli_frechet(rng, set_name: str) -> tuple[list[str], Callable]:
    n = int(rng.integers(2, 7))
    w = signed(rng, n)
    if set_name == "ball":
        r = float(rng.choice((0.5, 1.0, 2.0)))
        x = unit(rng, n) * (r * rng.uniform(1.5, 2.5))
        want = ref_complement(x, w, r / ref_norm(x))
        argv = ["--set", "ball", "--radius", repr(r), "--xbar", wire(x), "--w", wire(w)]
    else:
        x = mixed(rng, n)
        want = np.where(x > 0.0, w, 0.0)
        argv = ["--set", "cone-rn", "--xbar", wire(x), "--w", wire(w)]

    def check(doc):
        if doc.get("differentiable") is not True:
            return f"differentiable {doc.get('differentiable')!r}"
        return _doc_vector("applied", want)(doc)

    return argv, check


def _cli_coderiv(rng, set_name: str) -> tuple[list[str], Callable]:
    n = int(rng.integers(2, 7))
    if set_name == "ball":
        r = float(rng.choice((0.5, 1.0, 2.0)))
        x = r * unit(rng, n)
        argv = ["--set", "ball", "--radius", repr(r), "--xbar", wire(x), "--y", wire(x), "--z", wire(np.zeros(n))]
        want = ({"variant": "empty"}, False)
    elif set_name == "cone-rn":
        x = signed(rng, n, 0.1, 2.0)
        x[0] = 0.0
        y = signed(rng, n)
        y[0] = -abs(y[0])
        argv = ["--set", "cone-rn", "--xbar", wire(x), "--y", wire(y), "--z", wire(0.5 * y)]
        want = ({"variant": "partial", "rule": "cone-corner",
                 "known": {"contains_zero": False, "submultiples_excluded": True}}, False)
    else:
        xbar, M, y, off = interval_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        z = y + SparseVector({off[0]: -0.5 * y.get(off[0])})
        argv = ["--set", "cone-l2", "--support", json.dumps(sorted(M)), "--xbar", wire(xbar),
                "--y", wire(y), "--z", wire(z)]
        want = ({"variant": "order_interval", "y": vectors.encode_vector(y), "support": sorted(M)}, True)

    def check(doc):
        if doc.get("descriptor") != want[0]:
            return f"descriptor {doc.get('descriptor')}, want {want[0]}"
        return None if doc.get("contains") is want[1] else f"contains {doc.get('contains')!r}, want {want[1]}"

    return argv, check


def _cli_oracle(rng, set_name: str) -> tuple[list[str], Callable]:
    if set_name == "cone-l2":
        qs = l2_queries(rng)
        q = qs[int(rng.integers(len(qs)))]
        argv = ["--set", "cone-l2", "--seed", "0"]
    else:
        n = int(rng.integers(2, 7))
        qs = ball_queries(rng, n) if set_name == "ball" else orthant_queries(rng, n)
        q = qs[int(rng.integers(len(qs)))]
        argv = ["--set", set_name, "--seed", "0"]
        if set_name == "ball":
            argv += ["--radius", repr(q.f.__self__.radius)]
    argv += ["--xbar", wire(q.xbar), "--y", wire(q.y), "--z", wire(q.z)]
    sparse_set = set_name == "cone-l2"

    def check(doc):
        want = "member" if q.member else "non_member"
        if doc.get("verdict") != want:
            return f"verdict {doc.get('verdict')}, want {want}"
        if q.member:
            return None
        w = doc["witness"]
        d = vectors.sparse_from_wire(w["direction"]) if sparse_set else np.asarray(w["direction"], dtype=float)
        again = oracle.quotient(q.f, q.xbar, q.y, q.z, q.xbar + w["radius"] * d)
        return None if again == w["quotient"] else f"witness re-evaluates to {again!r}, stored {w['quotient']!r}"

    return argv, check


def _cli_verify(suite: str, seed: int) -> tuple[list[str], Callable]:
    def check(doc):
        if doc.get("suite") != suite or not doc.get("total") or doc.get("failed") != 0:
            return f"suite report {suite}: total {doc.get('total')}, failed {doc.get('failures')}"
        return None

    return ["--suite", suite, "--seed", str(seed)], check


def cli(seed: int, rounds: int = 12) -> list[list[Op]]:
    """Blocks of 15 commands: project, gateaux, frechet and coderiv on three sets each,
    oracle-member twice and one verify, whose suite rotates from block to block.

    verify runs cost 0.3 to 1 s against 0.25 s for most commands; at one
    in 15 they stay above the 90th percentile, which then falls inside
    the oracle-member cluster and not on the edge of a suite's.
    """
    rng = np.random.default_rng([seed, 4])
    sets = ("ball", "cone-rn", "cone-l2")
    dense_sets = ("ball", "cone-rn")
    blocks = []
    for k in range(rounds):
        plan = [("project", _cli_project, s) for s in sets]
        plan += [("gateaux", _cli_gateaux, s) for s in dense_sets + (dense_sets[k % 2],)]
        plan += [("frechet", _cli_frechet, s) for s in dense_sets + (dense_sets[(k + 1) % 2],)]
        plan += [("coderiv", _cli_coderiv, s) for s in sets]
        plan += [("oracle-member", _cli_oracle, sets[(k + j) % 3]) for j in (0, 1)]
        block = []
        for i, (cmd, make, set_name) in enumerate(plan):
            argv, check = make(rng, set_name)
            block.append(cli_op(f"cli/{k:02d}.{i:02d}/{cmd}/{set_name}", [cmd] + argv, check))
        suite = SUITES[k % len(SUITES)]
        argv, check = _cli_verify(suite, seed)
        block.append(cli_op(f"cli/{k:02d}.{len(plan):02d}/verify/{suite}", ["verify"] + argv, check))
        blocks.append(block)
    return blocks


# --- wide magnitudes (known overflow and underflow defects) --------------

def wide_magnitude(seed: int, copies: int = 8) -> list[list[Op]]:
    """Closed-form and CLI calls on inputs whose norms span 1e-300 to 1e300.

    Kept apart from ``closed-forms`` and ``cli`` because, at the time of
    writing, the library fails some of them (norm overflow in the ball
    projection, ``||a||^2`` underflow in ``orth_decompose``); every
    failure is counted and listed by operation id.
    """
    rng = np.random.default_rng([seed, 5])
    blocks = []
    for b in range(copies):
        block = [
            _call("ball.project", BallProjection(1.0).project, np.array([1e200, 1e200]),
                  check=expect_vector(ref_ball_project(np.array([1e200, 1e200]), 1.0)),
                  op_id=f"wide/{b:03d}/ball.project/pinned-1e200"),
            _orth_op(np.array([1e-170, 0.0]), np.array([1e-170, 1e-170]), f"wide/{b:03d}/orth_decompose/pinned-1e-170"),
        ]
        for n in SIZES:
            for k, exp in enumerate(np.linspace(-300, 300, 7)):
                scale = 10.0 ** (exp + rng.uniform(-0.5, 0.5))
                block += _wide_ops(rng, n, scale, f"wide/{b:03d}/n{n}/s{k}")
        x = np.array([1e200, 1e200]) * rng.uniform(0.5, 2.0)
        block.append(cli_op(f"wide/{b:03d}/cli/project-1e200",
                            ["project", "--set", "ball", "--radius", "1.0", "--point", wire(x)],
                            _doc_vector("projection", ref_ball_project(x, 1.0))))
        blocks.append(block)
    return blocks


def _orth_op(anchor, x, op_id) -> Op:
    a_ref, o_ref = ref_orth(anchor, x)

    def check(got):
        if not math.isclose(got.a, a_ref, rel_tol=1e-10):
            return f"a {got.a!r}, want {a_ref!r}"
        return expect_vector(o_ref)(got.o) if ref_norm(o_ref) > 0.0 else None

    return _call("vectors.orth_decompose", vectors.orth_decompose, anchor, x, check=check, op_id=op_id)


def _wide_ops(rng, n: int, scale: float, prefix: str) -> list[Op]:
    r = scale * float(rng.uniform(0.5, 2.0))
    op = BallProjection(r)
    out = []
    for region, factor in (("interior", rng.uniform(0.2, 0.8)), ("sphere", 1.0), ("exterior", rng.uniform(1.5, 2.5))):
        x = unit(rng, n) * (r * factor)
        out.append(_call("ball.project", op.project, x, check=expect_vector(ref_ball_project(x, r)),
                         op_id=f"{prefix}/ball.project/{region}"))
        gap = ref_norm(x) - r
        want = ("sphere" if abs(gap) <= ball_mod.SPHERE_RTOL * max(1.0, r)
                else "interior" if gap < 0.0 else "exterior")
        out.append(_call("ball.region", op.region, x, check=lambda g, want=want: expect_equal(want)(g.value),
                         op_id=f"{prefix}/ball.region/{region}"))
    x = signed(rng, n) * scale
    out.append(_call("orthant.project", orthant.project, x, check=expect_vector(np.where(x > 0.0, x, 0.0)),
                     op_id=f"{prefix}/orthant.project"))
    out.append(_call("vectors.norm", vectors.norm, x, check=expect_scalar(ref_norm(x)),
                     op_id=f"{prefix}/vectors.norm/dense"))
    sx = SparseVector({i + 1: float(v) for i, v in enumerate(x)})
    out.append(_call("vectors.norm", vectors.norm, sx, check=expect_scalar(ref_norm(x)),
                     op_id=f"{prefix}/vectors.norm/sparse"))
    y = signed(rng, n) / scale
    out.append(_call("vectors.inner", vectors.inner, x, y,
                     check=expect_scalar(ref_inner(x, y), 1e-12, ref_inner(np.abs(x), np.abs(y))),
                     op_id=f"{prefix}/vectors.inner"))
    out.append(_orth_op(signed(rng, n) * scale, rng.standard_normal(n) * scale, f"{prefix}/vectors.orth_decompose"))
    return out


def digest_inputs(blocks: list[list[Op]]) -> str:
    """sha256 over every op id and its input values, in run order."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
        elif isinstance(v, SparseVector):
            h.update(repr(v.pairs).encode())
        elif isinstance(v, (tuple, list, frozenset)):
            for item in (sorted(v) if isinstance(v, frozenset) else v):
                feed(item)
        else:
            h.update(repr(v).encode())

    for block in blocks:
        for op in block:
            h.update(op.id.encode())
            feed(op.inputs)
    return h.hexdigest()[:16]


WORKLOADS = {
    "oracle-dense": oracle_dense,
    "oracle-sparse": oracle_sparse,
    "closed-forms": closed_forms,
    "cli": cli,
    "wide-magnitude": wide_magnitude,
}
