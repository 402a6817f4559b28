import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conesep import distance, kernels, separation
from conesep.distance import PolytopeBody, body_distance, origin_body
from conesep.errors import Inconclusive, TrivialRegion
from conesep.geometry import make_polycone
from conesep.instances import load_instance
from conesep.oracle import (
    random_pointed_cone,
    random_region,
    sample_norm_base,
    sector_cone_2d,
    sphere_grid,
)
from conesep.regions import ConeRegion, LmoResult, body, support_norm_base


def _ray(v):
    return ConeRegion.piece(make_polycone([v]))


def test_ray_vs_origin_adjoined_ray():
    A = body(_ray([0.0, 1.0]), adjoin_origin=False)
    B = body(_ray([1.0, 0.0]), adjoin_origin=True)
    res = body_distance(A, B)
    assert res.kind == "positive"
    assert res.distance == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.witness_a, [0.0, 1.0], atol=1e-9)
    assert np.allclose(res.witness_b, [0.0, 0.0], atol=1e-9)
    assert np.allclose(res.functional, [0.0, 1.0], atol=1e-9)
    assert res.certified
    assert res.stop == "certified_gap"


def test_overlapping_bodies_report_zero():
    orthant = ConeRegion.piece(make_polycone([[1.0, 0.0], [0.0, 1.0]]))
    res = body_distance(body(orthant, False), body(orthant, True))
    assert res.kind == "zero"
    assert res.distance <= 1e-9
    assert res.certified
    assert res.stop == "certified_zero"
    # the zero certificate carries a common point
    assert np.linalg.norm(res.witness_a - res.witness_b) <= 1e-8


def test_narrow_cone_vs_axis_chord():
    C = ConeRegion.piece(sector_cone_2d(90.0, 10.0))
    K = ConeRegion.union(_ray([1.0, 0.0]), _ray([-1.0, 0.0]))
    res = body_distance(body(C, False), body(K, True))
    assert res.distance == pytest.approx(np.cos(np.radians(10.0)), abs=1e-9)


def test_distance_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        A = body(random_region(rng, dim), adjoin_origin=False)
        B = body(random_region(rng, dim), adjoin_origin=True)
        d_ab = body_distance(A, B).distance
        d_ba = body_distance(B, A).distance
        assert abs(d_ab - d_ba) <= 2e-9


def test_positive_certificate_separates_supports():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 15:
        dim = int(rng.integers(2, 4))
        RA, RB = random_region(rng, dim), random_region(rng, dim)
        res = body_distance(body(RA, False), body(RB, True))
        if res.kind != "positive" or res.distance < 1e-6:
            continue
        checked += 1
        f = res.functional / np.linalg.norm(res.functional)
        # B's support in direction f stays below A's minimum with slack
        hi = max(0.0, support_norm_base(RB, f).value)
        lo = RA.lmo(f).value
        assert hi < lo - res.distance / 2 + 1e-9
        assert lo - hi == pytest.approx(res.distance, abs=1e-8)


class _Overstated:
    """The origin, with an LMO that overstates its minimum by 1."""

    dim = 2

    def lmo(self, direction):
        return LmoResult(1.0, np.zeros(2))

    def centroid(self):
        return np.zeros(2)


def test_lmo_values_above_the_iterate_stop_the_solve_uncertified():
    # v = (1, 0) is a point of A - B, so the minimum over A - B against v
    # is at most |v|^2 = 1; values summing to 2 bound nothing
    res = body_distance(PolytopeBody(np.array([[1.0, 0.0]])), _Overstated())
    assert (res.stop, res.certified, res.iterations) == ("inconsistent", False, 1)
    assert res.lmo_values == (1.0, 1.0) and res.lower_bound == 0.0
    with pytest.raises(Inconclusive, match=r"ended uncertified \(inconsistent\)"):
        distance.decide_gap(res, "distance", distance.DEFAULT_TOL)


def test_lmo_values_above_the_start_pair_decide_nothing():
    # the start pair's support points (1, 0) and the origin bound the
    # minimum against v0 = (1, 0) by 1, so values summing to 2 may not stop
    # the solve at its start; the first iteration finds them inconsistent
    res = body_distance(PolytopeBody(np.array([[1.0, 0.0]])), _Overstated(),
                        until_decided=True)
    assert (res.stop, res.certified, res.iterations) == ("inconsistent", False, 1)


def _cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def _hull_2d(points):
    pts = sorted(set(map(tuple, np.round(points, 12))))
    if len(pts) <= 2:
        return [np.array(p) for p in pts]
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(
                np.subtract(out[-1], out[-2]), np.subtract(p, out[-2])
            ) <= 0:
                out.pop()
            out.append(p)
        return out
    lower, upper = half(pts), half(reversed(pts))
    return [np.array(p) for p in lower[:-1] + upper[:-1]]


def _segments_cross(p1, p2, q1, q2):
    d1 = _cross2(p2 - p1, q1 - p1)
    d2 = _cross2(p2 - p1, q2 - p1)
    d3 = _cross2(q2 - q1, p1 - q1)
    d4 = _cross2(q2 - q1, p2 - q1)
    return d1 * d2 <= 0 and d3 * d4 <= 0


def _seg_dist(p1, p2, q1, q2):
    if _segments_cross(p1, p2, q1, q2):
        return 0.0
    def pt_seg(p, a, b):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0 else np.clip((p - a) @ ab / denom, 0.0, 1.0)
        return float(np.linalg.norm(p - (a + t * ab)))
    return min(pt_seg(p1, q1, q2), pt_seg(p2, q1, q2),
               pt_seg(q1, p1, p2), pt_seg(q2, p1, p2))


def _point_in_hull(p, hull):
    if len(hull) < 3:
        return False
    return all(
        _cross2(hull[(i + 1) % len(hull)] - hull[i], p - hull[i]) >= 0
        for i in range(len(hull))
    )


def _polygon_distance(pa, pb):
    ha, hb = _hull_2d(pa), _hull_2d(pb)
    if _point_in_hull(ha[0], hb) or _point_in_hull(hb[0], ha):
        return 0.0
    if len(ha) == 1:
        ha = ha * 2
    if len(hb) == 1:
        hb = hb * 2
    best = np.inf
    for i in range(len(ha)):
        a1, a2 = ha[i], ha[(i + 1) % len(ha)]
        for j in range(len(hb)):
            b1, b2 = hb[j], hb[(j + 1) % len(hb)]
            best = min(best, _seg_dist(a1, a2, b1, b2))
    return best


def test_distance_matches_dense_sampling():
    # independent check: build the hulls of dense base samples and measure
    # the exact polygon-to-polygon distance
    rng = np.random.default_rng(29)
    for _ in range(8):
        RA = random_region(rng, 2)
        RB = random_region(rng, 2)
        res = body_distance(body(RA, False), body(RB, True))
        pa = sample_norm_base(RA, resolution=0.25).points
        pb = sample_norm_base(RB, resolution=0.25).points
        pb = np.vstack([pb, np.zeros(2)])
        sampled = _polygon_distance(pa, pb)
        # sample hulls sit inside the true bodies, so their distance can only
        # be larger, and by no more than the 0.25 degree covering allowance
        assert res.distance <= sampled + 1e-9
        assert sampled <= res.distance + 5e-3


def test_polytope_body_lmo_picks_vertex():
    P = PolytopeBody(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    res = P.lmo(np.array([1.0, 1.0]))
    assert res.value == pytest.approx(1.0)
    assert np.allclose(res.witness, [1.0, 0.0]) or np.allclose(res.witness, [0.0, 1.0])


def test_point_vs_polytope_distance():
    tri = PolytopeBody(np.array([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]))
    res = body_distance(origin_body(2), tri)
    assert res.distance == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert np.allclose(res.witness_b, [1.0, 1.0], atol=1e-8)
    # the optimality certificate, which needs no reference solve: the
    # corral's weights form the witness x, and no vertex p of P has
    # p . x < x . x - gap
    rng = np.random.default_rng(5)
    for _ in range(40):
        dim, n = int(rng.integers(2, 7)), int(rng.integers(1, 20))
        P = rng.standard_normal((n, dim)) + rng.uniform(-2.0, 2.0) * rng.standard_normal(dim)
        res = body_distance(origin_body(dim), PolytopeBody(P))
        assert res.certified
        x = res.witness_b
        assert np.allclose(res.support_b.T @ res.weights, x, rtol=0.0, atol=1e-12)
        assert (P @ x).min() >= x @ x - res.gap - 1e-12


def test_engine_stops_when_the_corral_comes_back(monkeypatch):
    # An affine step that always gives the new point a negative weight makes
    # the minor cycles drop it again at theta = 0: the next iteration would
    # repeat this one, so the solve stops as a repeated point (it used to
    # spin until the stall rule, 100 iterations later).
    def drop_newest(Q):
        k = len(Q) - 1
        if k == 0:
            return np.ones(1)
        return np.append(np.full(k, 1.5 / k), -0.5)

    monkeypatch.setattr(kernels, "_affine_min_norm", drop_newest)
    res = body_distance(origin_body(2), PolytopeBody(np.array([[1.0, 0.0], [0.5, 5.0]])))
    assert res.iterations == 1
    assert res.stop == "repeat_point" and not res.certified
    assert np.array_equal(res.witness_b, [1.0, 0.0])


def test_iteration_budget_and_gap():
    rng = np.random.default_rng(41)
    for _ in range(10):
        A = body(random_region(rng, 3), adjoin_origin=False)
        B = body(random_region(rng, 3), adjoin_origin=True)
        res = body_distance(A, B)
        assert res.iterations <= 100_000
        if res.kind == "positive":
            assert res.gap <= max(1e-9, 1e-7 * res.distance)
            assert res.lower_bound <= res.distance + 1e-12


def _reference_corral_step(Q, w):
    # Wolfe's minor cycles as they were before the no-drop signal: a mask
    # of the rows that stay on every call
    keep = np.ones(len(Q), dtype=bool)
    for _ in range(len(Q)):
        a = kernels._affine_min_norm(Q[keep])
        if a.min() >= -kernels.WEIGHT_FLOOR:
            w = np.clip(a, 0.0, None)
            s = w.sum()
            w = w / s if s > 0 else np.full(len(w), 1.0 / len(w))
            break
        shrink = a < kernels.WEIGHT_FLOOR
        steps = w[shrink] / (w[shrink] - a[shrink])
        theta = float(steps.min())
        w = (1.0 - theta) * w + theta * a
        stay = w > kernels.WEIGHT_FLOOR
        if not stay.any():
            stay[int(np.argmax(w))] = True
        keep[keep] = stay
        w = w[stay]
        w = w / w.sum()
    return w, keep


def _reference_body_distance(A, B, tol=distance.DEFAULT_TOL, until_decided=False):
    # the engine as it was before its corral lived in fixed buffers: the
    # corral rebuilt with vstack, and its differences formed anew, on
    # every iteration; it returns the engine's fields, the iterate as the
    # functional and the certified LMO values taken at it.  The first LMO
    # pair is aimed from B's start point to A's, or along the centroids'
    # difference where a body names none; its bracket alone may decide.
    tol2 = tol * tol
    pa = A.start_point() if hasattr(A, "start_point") else None
    pb = B.start_point() if hasattr(B, "start_point") else None
    if pa is None or pb is None or np.linalg.norm(pa - pb) <= 1e-12:
        pa = pb = None
        d0 = np.asarray(A.centroid(), dtype=float) - np.asarray(B.centroid(), dtype=float)
        if math.sqrt(float(d0 @ d0)) <= 1e-12:
            d0 = np.eye(A.dim)[0]
    else:
        d0 = pa - pb
    values, a0, b0 = distance._support_difference(A, B, d0)
    nv = math.sqrt(float(d0 @ d0))
    lower = (values[0] + values[1]) / nv
    slack = max(tol * nv, tol2, distance.GAP_REL_FLOOR * nv * nv)
    consistent = values[0] + values[1] - float(d0 @ (a0 - b0)) <= slack
    if until_decided and lower > distance.DEAD_BAND * tol and consistent:
        a, b = (a0, b0) if pa is None else (pa, pb)
        a, b = a.copy(), b.copy()
        return distance.DistanceResult(
            distance=math.sqrt(float((a - b) @ (a - b))),
            kind=distance.POSITIVE,
            witness_a=a,
            witness_b=b,
            functional=d0,
            lmo_values=values,
            gap=max(float(d0 @ d0) - (values[0] + values[1]), 0.0),
            lower_bound=lower,
            iterations=0,
            certified=True,
            support_a=a[None, :],
            support_b=b[None, :],
            weights=np.array([1.0]),
            stop="decided",
        )
    Pa, Pb, w = a0[None, :], b0[None, :], np.array([1.0])
    v = a0 - b0
    lower = 0.0
    lmo_values = None
    gap = float("inf")
    best_gap = float("inf")
    stalled = 0
    certified = False
    stop = "max_iter"
    it = 0
    while it < distance.MAX_ITER:
        it += 1
        nv2 = float(v @ v)
        if nv2 <= tol2:
            certified = True
            stop = "certified_zero"
            gap = 0.0
            break
        lmo_values, wa, wb = distance._support_difference(A, B, v)
        sval = lmo_values[0] + lmo_values[1]
        nv = math.sqrt(nv2)
        gap = nv2 - sval
        done = max(tol * nv, tol2, distance.GAP_REL_FLOOR * nv2)
        if gap < -done:
            stop = "inconsistent"
            break
        if sval > 0.0:
            lower = max(lower, sval / nv)
        if gap <= done:
            certified = True
            stop = "certified_gap"
            break
        if until_decided and lower > distance.DEAD_BAND * tol:
            certified = True
            stop = "decided"
            break
        if gap < 0.99 * best_gap:
            best_gap = gap
            stalled = 0
        else:
            stalled += 1
            if stalled >= 100:
                stop = "stalled"
                break
        S = np.vstack((Pa - Pb, wa - wb))
        fresh = float(np.linalg.norm(S[:-1] - S[-1], axis=1).min()) > 1e-15 * (
            1.0 + math.sqrt(float(S[-1] @ S[-1])))
        if fresh:
            w_next, keep = _reference_corral_step(S, np.append(w, 0.0))
        if not fresh or (keep[:-1].all() and not keep[-1]):
            certified = gap <= max(done, 100.0 * distance.GAP_REL_FLOOR * nv2)
            stop = "repeat_point"
            break
        w = w_next
        Pa = np.vstack((Pa, wa))[keep]
        Pb = np.vstack((Pb, wb))[keep]
        v = w @ S[keep]
        lmo_values = None
    a = w @ Pa
    b = w @ Pb
    dist = math.sqrt(float((a - b) @ (a - b)))
    kind = distance.ZERO if dist <= tol else distance.POSITIVE
    return distance.DistanceResult(
        distance=dist,
        kind=kind,
        witness_a=a,
        witness_b=b,
        functional=v.copy() if kind == distance.POSITIVE else None,
        lmo_values=lmo_values,
        gap=max(gap, 0.0) if np.isfinite(gap) else 0.0,
        lower_bound=lower,
        iterations=it,
        certified=certified,
        support_a=Pa,
        support_b=Pb,
        weights=w,
        stop=stop,
    )


def _assert_same_bits(res, ref):
    for field in dataclasses.fields(distance.DistanceResult):
        x, y = getattr(res, field.name), getattr(ref, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                field.name
        elif isinstance(x, float):
            assert np.float64(x).tobytes() == np.float64(y).tobytes(), field.name
        else:
            assert x == y, field.name


def _random_body(rng, dim):
    """A body of one of the engine's kinds: the base hull of a piece or a
    union, of a complement or of a boundary, with or without the origin;
    explicit points; or the origin alone."""
    kind = rng.choice(["region", "complement", "boundary", "points", "origin"])
    if kind == "points":
        n = int(rng.integers(1, 9))
        shift = rng.uniform(-2.0, 2.0) * rng.standard_normal(dim)
        return PolytopeBody(rng.standard_normal((n, dim)) + shift)
    if kind == "origin":
        return origin_body(dim)
    if kind == "region":
        region = random_region(rng, dim)
    else:
        cone = random_pointed_cone(rng, dim, n_rays=dim + int(rng.integers(0, 3)))
        try:
            region = (ConeRegion.complement(cone) if kind == "complement"
                      else ConeRegion.boundary(cone))
        except (TrivialRegion, ValueError):
            region = random_region(rng, dim)
    return body(region, adjoin_origin=bool(rng.integers(0, 2)))


def test_buffered_corral_matches_the_rebuilt_corral_bit_for_bit():
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng([5, seed])
        dim = 1 + seed % 6
        A, B = _random_body(rng, dim), _random_body(rng, dim)
        until_decided = bool(rng.integers(0, 2))
        res = body_distance(A, B, until_decided=until_decided)
        ref = _reference_body_distance(A, B, until_decided=until_decided)
        _assert_same_bits(res, ref)
        checked += res.iterations > 1
    assert checked >= 120


@pytest.mark.parametrize("name", ["sym_stall_3_932.json", "sym_stall_4_322.json",
                                  "sym_stall_fail_3_95.json"])
def test_buffered_corral_matches_on_the_solves_of_stalling_pairs(name, monkeypatch):
    # every solve separate_sym makes on a pair that once stalled, where the
    # minor cycles drop vertices often
    inst = load_instance(str(Path(__file__).parent / "data" / name))
    calls = []
    solve = separation.body_distance

    def recording(A, B, **kwargs):
        calls.append((A, B, kwargs))
        return solve(A, B, **kwargs)

    monkeypatch.setattr(separation, "body_distance", recording)
    separation.separate_sym(inst.region("C"), inst.region("K"))
    assert calls
    for A, B, kwargs in calls:
        _assert_same_bits(body_distance(A, B, **kwargs),
                          _reference_body_distance(A, B, **kwargs))


def test_buffered_corral_grows_past_d_plus_2_rows(monkeypatch):
    # Uniform affine weights never leave the simplex, so no vertex drops and
    # the corral keeps every new support point until one repeats: on points
    # spread over a sphere about the origin it outgrows its d + 2 rows.
    monkeypatch.setattr(kernels, "_affine_min_norm", lambda Q: np.full(len(Q), 1.0 / len(Q)))
    rows = []
    for dim, shift in ((3, 0.0), (3, 0.3), (4, 0.0), (4, 0.3)):
        A = PolytopeBody(sphere_grid(dim, count=200) + shift * np.eye(dim)[0])
        for X, Y in ((A, origin_body(dim)), (origin_body(dim), A)):
            res = body_distance(X, Y)
            _assert_same_bits(res, _reference_body_distance(X, Y))
            rows.append(len(res.support_a) / (dim + 2))
    # grown once (over d + 2 rows) and more than once (over 2 (d + 2))
    assert max(rows) > 2.0 and sum(r > 1.0 for r in rows) >= 4
