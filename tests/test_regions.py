import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesep import geometry, kernels
from conesep.errors import (
    DimensionMismatch,
    NotConvex,
    NotSolid,
    TrivialRegion,
    ZeroDirection,
)
from conesep.geometry import (
    cone_membership,
    is_whole_space,
    facet_normals,
    facets,
    make_polycone,
    solidity,
    strictly_interior,
)
from conesep.kernels import project_onto_cone
from conesep.oracle import (
    cone_about,
    covering_bound,
    random_pointed_cone,
    random_region,
    random_unit,
    random_unpointed_cone,
    sample_norm_base,
    sector_cone_2d,
)
from conesep.regions import (
    PROJ_ZERO_TOL,
    ConeRegion,
    LmoResult,
    _least,
    _lmo_piece,
    body,
    lmo_norm_base,
    support_norm_base,
)

ORTHANT = make_polycone([[1.0, 0.0], [0.0, 1.0]])
HALF_PLANE = make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])


def test_lmo_orthant_diagonal():
    res = lmo_norm_base(ConeRegion.piece(ORTHANT), [1.0, 1.0])
    assert res.value == pytest.approx(1.0, abs=1e-9)
    # minimum of x+y on the quarter arc is attained at either axis
    assert min(np.linalg.norm(res.witness - [1, 0]),
               np.linalg.norm(res.witness - [0, 1])) < 1e-9


def test_lmo_orthant_negative_direction_projects():
    res = lmo_norm_base(ConeRegion.piece(ORTHANT), [-1.0, 0.0])
    assert res.value == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(res.witness, [1.0, 0.0])


def test_lmo_union_is_min_over_parts():
    region = ConeRegion.union(
        ConeRegion.piece(make_polycone([[1.0, 0.0]])),
        ConeRegion.piece(make_polycone([[0.0, 1.0]])),
    )
    res = region.lmo(np.array([1.0, 2.0]))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.witness, [1.0, 0.0])


def test_support_orthant_diagonal():
    res = support_norm_base(ConeRegion.piece(ORTHANT), [1.0, 1.0])
    assert res.value == pytest.approx(np.sqrt(2), abs=1e-9)
    assert np.allclose(res.witness, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-9)


def test_support_orthogonal_ray_is_zero():
    region = ConeRegion.piece(make_polycone([[0.0, 1.0]]))
    assert support_norm_base(region, [1.0, 0.0]).value == pytest.approx(0.0, abs=1e-12)


def test_support_boundary_orthant_diagonal():
    region = ConeRegion.boundary(ORTHANT)
    res = support_norm_base(region, [1.0, 1.0])
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_body_origin_adjoined_clamps_lmo():
    ray = ConeRegion.piece(make_polycone([[0.0, 1.0]]))
    adjoined = body(ray, adjoin_origin=True)
    res = adjoined.lmo(np.array([0.0, 1.0]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.witness, [0.0, 0.0])
    plain = body(ray, adjoin_origin=False)
    assert plain.lmo(np.array([0.0, 1.0])).value == pytest.approx(1.0)


def test_body_orthant_origin_adjoined():
    b = body(ConeRegion.piece(ORTHANT), adjoin_origin=True)
    assert b.lmo(np.array([1.0, 1.0])).value == pytest.approx(0.0, abs=1e-12)


def test_zero_direction_rejected():
    with pytest.raises(ZeroDirection):
        lmo_norm_base(ConeRegion.piece(ORTHANT), [0.0, 0.0])


@pytest.mark.parametrize("kind", ["piece", "union", "complement", "boundary"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_direction_rejected(kind, bad):
    cone = make_polycone([[1.0, 0.0], [0.0, 1.0]])
    region = {
        "piece": ConeRegion.piece(cone),
        "union": ConeRegion.union(ConeRegion.piece(cone),
                                  ConeRegion.piece(make_polycone([[-1.0, 0.0]]))),
        "complement": ConeRegion.complement(cone),
        "boundary": ConeRegion.boundary(cone),
    }[kind]
    with pytest.raises(ZeroDirection, match="finite"):
        region.lmo(np.array([bad, 1.0]))


def test_single_cone_requires_single_piece():
    region = ConeRegion.union(
        ConeRegion.piece(make_polycone([[1.0, 0.0]])),
        ConeRegion.piece(make_polycone([[0.0, 1.0]])),
    )
    assert not region.is_single_piece
    with pytest.raises(NotConvex):
        region.single_cone()


def test_complement_requires_solid_cone():
    with pytest.raises(NotSolid):
        ConeRegion.complement(make_polycone([[1.0, 0.0]]))


def test_support_is_negated_lmo():
    rng = np.random.default_rng(5)
    for _ in range(25):
        region = random_region(rng, dim=int(rng.integers(2, 4)))
        f = rng.standard_normal(region.dim)
        if np.linalg.norm(f) < 1e-6:
            continue
        sup = support_norm_base(region, f)
        neg = lmo_norm_base(region, -f)
        assert sup.value == -neg.value


def test_union_lmo_order_independent():
    a = ConeRegion.piece(make_polycone([[1.0, 0.0], [1.0, 1.0]]))
    b = ConeRegion.piece(make_polycone([[0.0, 1.0]]))
    f = np.array([0.3, -0.7])
    assert (ConeRegion.union(a, b).lmo(f).value
            == ConeRegion.union(b, a).lmo(f).value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_piece_lmo_dichotomy(seed):
    # For directions inside the dual cone the minimizing base point is an
    # extreme ray; otherwise the value is -|projection of -f| with a clean
    # Moreau certificate.  Checked against the generators directly.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    n = int(rng.integers(1, 5))
    G = rng.standard_normal((dim, n))
    cone = make_polycone(G.T)
    region = ConeRegion.piece(cone)
    f = rng.standard_normal(dim)
    if np.linalg.norm(f) < 1e-6:
        return
    res = region.lmo(f)
    in_dual = (f @ cone.generators).min() >= -1e-12
    if in_dual:
        ray_vals = f @ cone.generators
        assert res.value == pytest.approx(float(ray_vals.min()), abs=1e-9)
        gaps = np.linalg.norm(cone.generators.T - res.witness, axis=1)
        assert gaps.min() < 1e-9
    else:
        proj = project_onto_cone(cone.generators, -f)
        assert res.value == pytest.approx(-proj.norm, abs=1e-9)
        assert proj.moreau_inner < 1e-10


def test_lmo_lower_bounds_sampled_cloud():
    rng = np.random.default_rng(17)
    for _ in range(12):
        dim = int(rng.integers(2, 4))
        region = random_region(rng, dim)
        cloud = sample_norm_base(region, resolution=1.0).points
        for _ in range(5):
            f = rng.standard_normal(dim)
            if np.linalg.norm(f) < 1e-6:
                continue
            engine = region.lmo(f).value
            sampled = float((cloud @ f).min())
            assert engine <= sampled + 1e-8


def test_anchor_points_are_members():
    rng = np.random.default_rng(23)
    for _ in range(20):
        region = random_region(rng, dim=int(rng.integers(2, 4)))
        anchors = region.anchor_points()
        assert len(anchors) > 0
        flags = region.contains_unit_batch(anchors, tol=1e-8)
        assert flags.all()


def test_boundary_of_ray_is_the_ray():
    region = ConeRegion.boundary(make_polycone([[0.0, 1.0]]))
    res = region.lmo(np.array([0.0, 1.0]))
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_complement_membership_2d():
    region = ConeRegion.complement(ORTHANT)
    pts = np.array([
        [-1.0, 0.0],
        [0.0, -1.0],
        [-0.6, 0.8],
        [0.6, 0.8],
    ])
    flags = region.contains_unit_batch(pts, tol=1e-9)
    assert flags[0] and flags[1] and flags[2]
    assert not flags[3]


def _per_facet_min(cone, f):
    return min((_lmo_piece(p, f) for p in facets(cone).pieces),
               key=lambda r: r.value)


def _closed_form_cases():
    rng = np.random.default_rng(31)
    for _ in range(6):
        yield sector_cone_2d(rng.uniform(0.0, 360.0), rng.uniform(5.0, 85.0))
        yield cone_about(rng.standard_normal(3), rng.uniform(5.0, 80.0),
                         int(rng.integers(3, 13)))
        cone = random_pointed_cone(rng, 4, n_rays=int(rng.integers(4, 9)))
        if solidity(cone):
            yield cone
    # solid 5-D and 6-D cones, whose facets are enumerated within the budget
    rng = np.random.default_rng(41)
    for dim in (5, 6):
        for _ in range(3):
            n_rays = int(rng.integers(dim + 1, 2 * dim + 1))
            cone = random_pointed_cone(rng, dim, n_rays=n_rays)
            assert solidity(cone)
            yield cone


@pytest.mark.parametrize("kind", ["complement", "boundary"])
def test_closed_form_lmos_match_the_per_facet_minimum(kind):
    # Half the directions aim into -K, so that u = -f/|f| is interior and
    # the closed form fires; the other half are free.  The complement's
    # reference keeps the free minimizer u when it is not interior to K.
    rng = np.random.default_rng(37)
    for cone in _closed_form_cases():
        region = getattr(ConeRegion, kind)(cone)
        for i in range(40):
            f = rng.standard_normal(cone.dim)
            if i % 2:
                f = -cone.generators @ rng.uniform(size=cone.n_rays) + 0.05 * f
            fn = float(np.linalg.norm(f))
            if kind == "complement" and not strictly_interior(cone, -f / fn):
                ref = -fn
            else:
                ref = _per_facet_min(cone, f).value
            res = region.lmo(f)
            assert abs(res.value - ref) <= 1e-12 * fn
            assert abs(np.linalg.norm(res.witness) - 1.0) <= 1e-12
            assert region.contains_unit_batch(res.witness)[0]
            assert abs(float(f @ res.witness) - res.value) <= 1e-12 * fn


def _boundary_cases():
    rng = np.random.default_rng(43)
    for _ in range(4):
        yield sector_cone_2d(rng.uniform(0.0, 360.0), rng.uniform(5.0, 85.0))
        yield cone_about(rng.standard_normal(3), rng.uniform(5.0, 80.0),
                         int(rng.integers(3, 9)))
        for dim in (2, 3):
            cone = random_pointed_cone(rng, dim, n_rays=int(rng.integers(dim, 7)))
            if solidity(cone):
                yield cone


def test_boundary_lmo_agrees_with_a_sampled_minimum():
    # The boundary LMO is the least facet-piece LMO; this referee reads
    # only sampled points, each on the boundary (on some facet hyperplane).
    # The engine's minimum is at or below every sampled value and within
    # the cloud's covering bound of them.
    rng = np.random.default_rng(47)
    cases = 0
    for cone in _boundary_cases():
        cases += 1
        region = ConeRegion.boundary(cone)
        resolution = 0.5 if cone.dim == 2 else 1.0
        pts = sample_norm_base(region, resolution=resolution).points
        assert np.abs(pts @ facet_normals(cone).T).min(axis=1).max() <= 1e-12
        for i in range(20):
            f = rng.standard_normal(cone.dim)
            if i % 2:
                f = -cone.generators @ rng.uniform(size=cone.n_rays) + 0.05 * f
            fn = float(np.linalg.norm(f))
            sampled = float((pts @ f).min())
            value = region.lmo(f).value
            assert value <= sampled + 1e-12 * fn
            assert sampled - value <= covering_bound(cone.dim, resolution, fn)
    assert cases >= 12


def test_complement_of_a_half_plane_at_its_normal_is_closed_form():
    # u = -f/|f| is the half-plane's inward normal, so p = u - n = 0
    region = ConeRegion.complement(HALF_PLANE)
    res = region.lmo(np.array([0.0, -1.0]))
    assert res.value == 0.0
    assert abs(res.witness[1]) <= 1e-12
    assert abs(np.linalg.norm(res.witness) - 1.0) <= 1e-12


def _half_space(d, rng):
    # the cone on a unit n and a basis of n's orthogonal complement, both ways
    n = random_unit(rng, d)
    Q = np.linalg.qr(np.column_stack([n, rng.standard_normal((d, d - 1))]))[0]
    return make_polycone(np.vstack([n, Q[:, 1:].T, -Q[:, 1:].T]))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_complement_of_a_half_space_at_its_normal_needs_no_facets(d, monkeypatch):
    # f = -n exactly and 1e-12 off it: the closed form answers with a unit
    # witness on the base, its bracket holds the minimum -|f - (f.n) n|,
    # and K's facet cones are never built
    rng = np.random.default_rng(d)
    region = ConeRegion.complement(_half_space(d, rng))
    (n,) = region.leaves[0].normals

    def no_facets(cone):
        raise AssertionError("geometry.facets was called")

    monkeypatch.setattr(geometry, "facets", no_facets)
    offsets = [np.zeros(d)] + [1e-12 * random_unit(rng, d) for _ in range(4)]
    for scale in (1.0, 3.5):
        for off in offsets:
            f = -scale * (n + off)
            res = region.lmo(f)
            x = res.witness
            assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-15
            assert region.contains_unit_batch(x)[0]
            assert res.error >= 0.0
            if d == 1:
                assert res.value == math.sqrt(float(f @ f)) and np.array_equal(x, -n)
                continue
            exact = -float(np.linalg.norm(f - float(f @ n) * n))
            assert res.value - res.error <= exact <= res.value + 1e-15 * scale
            assert abs(float(f @ x) - res.value) <= 1e-15 * scale


@pytest.mark.parametrize("kind", ["complement", "boundary"])
def test_closed_form_near_a_half_plane_normal(kind):
    # u from 1e-6 down to 2e-11 rad off the inward normal n: |p| is that
    # small, and the witness must still lie on the line and attain the value
    n = np.array([np.cos(0.7), np.sin(0.7)])
    t = np.array([-n[1], n[0]])
    region = getattr(ConeRegion, kind)(make_polycone([t, -t, n]))
    for eps in (1e-6, 1e-8, 1e-10, 2e-11):
        f = -(n + eps * t)
        res = region.lmo(f)
        assert abs(res.value + eps) <= 1e-15
        assert abs(float(n @ res.witness)) <= 1e-15
        assert abs(float(f @ res.witness) - res.value) <= 1e-15
        assert region.contains_unit_batch(res.witness)[0]


def _lmo_piece_via_nnls(cone, f):
    # the piece LMO as it was before the dual-cone test: NNLS on every call
    p = cone.generators @ kernels.nnls(cone.generators, -f).coeffs
    pn = float(np.linalg.norm(p))
    if pn > PROJ_ZERO_TOL * float(np.linalg.norm(f)):
        return LmoResult(-pn, p / pn)
    vals = f @ cone.generators
    j = int(np.argmin(vals))
    return LmoResult(float(vals[j]), cone.generators[:, j].copy())


def test_piece_lmo_in_the_dual_cone_makes_no_nnls_call(monkeypatch):
    calls = []
    real = kernels.nnls
    monkeypatch.setattr(kernels, "nnls", lambda G, y: calls.append(1) or real(G, y))
    region = ConeRegion.piece(ORTHANT)
    res = region.lmo(np.array([1.0, 2.0]))
    assert calls == []
    assert (res.value, res.witness.tolist()) == (1.0, [1.0, 0.0])
    # -f = (-1, 2) projects onto one ray, (0, 2): the closed-form step
    res = region.lmo(np.array([1.0, -2.0]))
    assert calls == []
    assert (res.value, res.witness.tolist()) == (-2.0, [0.0, 1.0])
    # -f = (1, 2) is its own projection, on the face of both rays: NNLS
    res = region.lmo(np.array([-1.0, -2.0]))
    assert calls == [1]
    assert res.value == -float(np.sqrt(5.0))


def test_piece_lmo_matches_the_nnls_route_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        cone = make_polycone(rng.standard_normal((int(rng.integers(1, 6)), dim)))
        G = cone.generators
        fs = [rng.standard_normal(dim) for _ in range(3)]
        # into the dual cone of a pointed cone, or near its edge
        fs += [G.mean(axis=1) + 0.3 * rng.standard_normal(dim) for _ in range(3)]
        # one generator scored just either side of the NNLS stop test
        f0 = G.mean(axis=1)
        j = int(np.argmin(f0 @ G))
        fs += [f0 - (float(f0 @ G[:, j]) + t) * G[:, j]
               for t in (1e-13, 1e-12, 3e-12, 1e-11, 1e-10)]
        for f in fs:
            res, ref = _lmo_piece(cone, f), _lmo_piece_via_nnls(cone, f)
            assert res.value == ref.value
            assert res.witness.tobytes() == ref.witness.tobytes()


def test_piece_lmo_one_ray_projections_match_the_nnls_route_bit_for_bit(monkeypatch):
    # -f projects onto the ray g0 of a two-ray cone, and the dual of g1,
    # G.T @ (-f - lam g0), sits a factor t from the KKT slack of NNLS,
    # KKT_TOL * max(|f|, max |f @ G|): below it the closed-form step settles
    # the projection, above it NNLS does
    calls = []
    real = kernels.nnls
    monkeypatch.setattr(kernels, "nnls", lambda G, y: calls.append(1) or real(G, y))
    rng = np.random.default_rng(43)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        cone = make_polycone(rng.standard_normal((2, dim)))
        G = cone.generators
        g0, g1 = G[:, 0], G[:, 1]
        # e is orthogonal to g0 with e . g1 = 1: t e moves the dual of g1 by
        # t and leaves the projection of -f on g0
        e = g1 - float(g0 @ g1) * g0
        e /= float(e @ e)
        for scale in (0.5, 1.0, 3.0):
            # |f| is scale to rounding: e is orthogonal to g0
            tol_w = kernels.KKT_TOL * max(scale, float(np.abs(scale * g0 @ G).max()))
            for t in (-2.0, 0.5, 0.9, 1.1, 2.0):
                f = -(scale * g0 + t * tol_w * e)
                calls.clear()
                res = _lmo_piece(cone, f)
                assert len(calls) == (t > 1.0)
                ref = _lmo_piece_via_nnls(cone, f)
                assert res.value == ref.value
                assert res.witness.tobytes() == ref.witness.tobytes()


def test_piece_lmo_is_scale_invariant_on_a_nearly_flat_cone():
    # -f points into a cone 2e-5 rad short of a half-plane.  After the
    # closed-form step onto one ray the other ray's dual is about 2e-5 |f|,
    # below a slack of KKT_TOL * max(1, ...) once |f| < 5e-8; with the slack
    # scaled by |f|, a small f is projected as a unit one is.  The rays are
    # nearly opposite, so the projection holds only about 1e-16 / 1e-5 of
    # relative accuracy.
    cone = make_polycone([[1.0, 1e-5], [-1.0, 1e-5]])
    f = -np.array([-0.19, 0.98])
    unit = _lmo_piece(cone, f)
    assert unit.value == pytest.approx(-float(np.linalg.norm(f)), rel=1e-10)
    for scale in (1e-4, 1e-8, 1e-12):
        res = _lmo_piece(cone, scale * f)
        assert res.value / scale == pytest.approx(unit.value, rel=1e-10)
        assert np.allclose(res.witness, unit.witness, rtol=0.0, atol=1e-10)


class _ProjectionStep(Exception):
    pass


def test_piece_lmo_leaves_at_once_in_the_dual_cone(monkeypatch):
    # A best score of 0 or more, or above -KKT_TOL * max(|f|, max |f @ G|),
    # puts f in the dual cone: the LMO returns the best generator and never
    # reaches the projection step.
    def step(*args):
        raise _ProjectionStep

    monkeypatch.setattr(kernels, "first_step", step)
    monkeypatch.setattr(kernels, "nnls", step)
    cone = make_polycone([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
    G = cone.generators
    # f is orthogonal to the first generator and scores 0.8 and 0.36 on the
    # others: a min score of exactly 0.0
    for f in (np.array([0.0, 1.0, -0.3]), np.array([1.0, 1.0, 1.0])):
        vals = f @ G
        j = int(np.argmin(vals))
        assert vals[j] >= 0.0
        res = _lmo_piece(cone, f)
        assert res.value == float(vals[j]) and res.witness.tobytes() == G[:, j].tobytes()
    assert float(np.array([0.0, 1.0, -0.3]) @ G[:, 0]) == 0.0
    # a min score in (-slack, 0) on the first generator, and one just past
    # the slack; |f| is 2.5 and the largest |score| 2, so the slack is
    # 2.5 KKT_TOL
    f0 = np.array([0.0, 2.5, 0.0])
    slack = kernels.KKT_TOL * max(float(np.linalg.norm(f0)), float(np.abs(f0 @ G).max()))
    assert slack == 2.5 * kernels.KKT_TOL
    for t in (1e-3, 0.5, 0.999):
        f = f0 - t * slack * np.array([1.0, 0.0, 0.0])
        vals = f @ G
        assert -slack < vals[0] < 0.0 and int(np.argmin(vals)) == 0
        res = _lmo_piece(cone, f)
        assert res.value == float(vals[0]) and res.witness.tobytes() == G[:, 0].tobytes()
    f = f0 - 1.001 * slack * np.array([1.0, 0.0, 0.0])
    assert float(f @ G[:, 0]) < -slack
    with pytest.raises(_ProjectionStep):
        _lmo_piece(cone, f)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_complement_of_a_one_dimensional_ray(sign):
    # the ray's only facet is {0}, with an empty base: no facet pieces, and
    # the complement's base is the single point -n
    ray = make_polycone([[sign * 2.0]])
    assert facets(ray).pieces == ()
    region = ConeRegion.complement(ray)
    assert np.array_equal(region.anchor_points(), [[-sign]])
    for f in (3.0, -3.0):
        res = region.lmo(np.array([f]))
        assert np.array_equal(res.witness, [-sign])
        assert res.value == -sign * f
    with pytest.raises(TrivialRegion, match="empty"):
        ConeRegion.boundary(ray)


def test_piece_lmo_error_covers_ill_conditioned_projections():
    # y lies in K, so the exact minimum of f = -y over K's base is -|y|.
    # K has a ray eta short of opposite g1: in R^2 the projection solves on
    # both rays, with coefficients about |y| / eta; in R^3 a face of g1 and
    # a third ray may leave that ray out, its dual inside the KKT slack.
    # value - error must stay at or below -|y| either way.
    rng = np.random.default_rng(61)
    overstated = 0
    for k in range(300):
        dim = 2 + k % 2
        eta = 10.0 ** rng.uniform(-11, -3)
        g1 = rng.standard_normal(dim)
        g1 /= np.linalg.norm(g1)
        u = rng.standard_normal(dim)
        u -= (u @ g1) * g1
        u /= np.linalg.norm(u)
        gens = [g1, -math.cos(eta) * g1 + math.sin(eta) * u]
        if dim == 3:
            gens.append(np.cross(g1, u) + rng.standard_normal(3) * 0.3)
        cone = make_polycone(gens)
        y = rng.uniform(0.1, 1.0, len(gens)) @ cone.generators.T * 10.0 ** rng.uniform(-12, 0)
        res = _lmo_piece(cone, -y)
        exact = -float(np.linalg.norm(y))
        assert res.value - res.error <= exact * (1.0 - 4e-16)
        overstated += res.value > exact * (1.0 - 4e-16)
    # the bound is needed: the value alone overstates the minimum on many
    assert overstated >= 50


def test_piece_lmo_error_is_zero_off_nnls_and_small_on_a_clean_face():
    region = ConeRegion.piece(ORTHANT)
    assert region.lmo(np.array([1.0, 2.0])).error == 0.0  # in the dual cone
    assert region.lmo(np.array([1.0, -2.0])).error == 0.0  # one-ray step
    res = region.lmo(np.array([-1.0, -2.0]))  # NNLS on both rays
    assert res.value == -float(np.sqrt(5.0))
    assert 0.0 < res.error <= 2.0 * kernels.KKT_TOL * float(np.sqrt(5.0))


def test_least_lmo_error_covers_every_lower_bound():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    res = _least([LmoResult(-1.0, a, 0.0), LmoResult(-0.9, b, 0.5)])
    assert (res.value, res.witness is a, res.error) == (-1.0, True, pytest.approx(0.4))
    res = _least([LmoResult(-1.0, a, 0.25), LmoResult(-1.0, b, 0.0)])
    assert (res.value, res.witness is a, res.error) == (-1.0, True, 0.25)
    # -f is the ray and lies in the flat cone, whose projection is off by
    # about 3e-8 and carries an error of 1e-3: the ray's exact value wins,
    # and the union's error takes in the flat cone's lower bound
    flat = ConeRegion.piece(make_polycone([[1.0, 1e-9], [-1.0, 1e-9]]))
    ray = ConeRegion.piece(make_polycone([[0.29, 1.0]]))
    f = -np.array([0.29, 1.0])
    (fv, fe), (rv, re_) = ((r.value, r.error) for r in (flat.lmo(f), ray.lmo(f)))
    assert rv < fv and re_ == 0.0 and fe > 1e-4
    for region in (ConeRegion.union(flat, ray), ConeRegion.union(ray, flat)):
        res = region.lmo(f)
        assert res.value == rv
        assert res.value - res.error == pytest.approx(fv - fe, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_region_centroid_is_numpys_mean_bit_for_bit(dim):
    # pieces and complements mixed, 1 to 40 leaves; one leaf's centroid is
    # taken as it is, more are averaged by np.mean
    rng = np.random.default_rng(29 + dim)
    for count in range(1, 41):
        parts = []
        for k in range(count):
            if k % 3 == 2:
                K = (make_polycone([[1.0]]) if dim == 1
                     else random_pointed_cone(rng, dim, n_rays=dim + 1))
                parts.append(ConeRegion.complement(K))
            else:
                rays = rng.standard_normal((int(rng.integers(1, 4)), dim))
                parts.append(ConeRegion.piece(make_polycone(rays)))
        region = ConeRegion.union(*parts)
        c = region.centroid()
        ref = np.mean([leaf.centroid() for leaf in region.leaves], axis=0)
        assert c.dtype == ref.dtype and c.tobytes() == ref.tobytes(), count


def _solid_unpointed_cone(rng, dim):
    # a solid cone with a line in it, other than the whole space
    while True:
        g = random_pointed_cone(rng, dim, n_rays=dim + 1).generators.T
        line = random_unit(rng, dim)
        cone = make_polycone(np.concatenate([g, [line], [-line]]))
        if solidity(cone) and not is_whole_space(cone):
            return cone


def _start_point_regions(rng, dim):
    """Pieces, unions, complements of pointed and non-pointed solid cones,
    and mixed unions, in ``dim`` dimensions; R^1 rays in one."""
    if dim == 1:
        right, left = make_polycone([[1.0]]), make_polycone([[-1.0]])
        return [ConeRegion.piece(right), ConeRegion.piece(left),
                ConeRegion.complement(right), ConeRegion.complement(left),
                ConeRegion.union(ConeRegion.piece(right), ConeRegion.complement(right))]
    pieces = [ConeRegion.piece(random_pointed_cone(rng, dim)) for _ in range(3)]
    pieces.append(ConeRegion.piece(random_unpointed_cone(rng, dim)))
    halfspace = make_polycone(np.concatenate([np.eye(dim), -np.eye(dim)[1:]]))
    complements = [ConeRegion.complement(random_pointed_cone(rng, dim, n_rays=dim + 1)),
                   ConeRegion.complement(_solid_unpointed_cone(rng, dim)),
                   ConeRegion.complement(halfspace)]
    return (pieces + complements
            + [ConeRegion.union(*pieces[:2]), ConeRegion.union(*pieces[1:]),
               ConeRegion.union(pieces[0], complements[0]),
               ConeRegion.union(complements[1], pieces[3], complements[2])])


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_start_point_lies_in_the_body(dim):
    # u . p >= min over the body of u . x for every unit u: the start point p
    # lies in the body, complements included (a solid cone other than the
    # whole space lies in a closed half-space; see ConvexBody.start_point)
    rng = np.random.default_rng(61 + dim)
    for region in _start_point_regions(rng, dim):
        for adjoin in (False, True):
            b = body(region, adjoin)
            p = b.start_point()
            assert p.shape == (dim,)
            for _ in range(200):
                u = random_unit(rng, dim)
                res = b.lmo(u)
                assert float(u @ p) >= res.value - res.error, (region.leaves, adjoin, u)


def test_a_region_needs_leaves_of_one_dimension():
    with pytest.raises(TrivialRegion, match="at least one leaf"):
        ConeRegion([])
    planar = ConeRegion.piece(ORTHANT).leaves[0]
    spatial = ConeRegion.piece(make_polycone(np.eye(3))).leaves[0]
    with pytest.raises(DimensionMismatch, match="different dimensions"):
        ConeRegion([planar, spatial])


def test_complement_of_the_whole_space_is_refused():
    whole = make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(TrivialRegion, match="whole space"):
        ConeRegion.complement(whole)
