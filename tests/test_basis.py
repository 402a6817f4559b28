import math
import warnings

import numpy as np
import pytest

from conesep import basis, distance, geometry, kernels
from conesep.basis import (
    BaseKind,
    _bp_base_samples,
    has_convex_base,
    interpolate,
    interpolate_sym,
    is_well_based,
    make_base,
    verify_interpolation,
)
from conesep.errors import NonPositiveRay, NotNested
from conesep.geometry import (
    Norm,
    cone_membership,
    cone_membership_batch,
    facet_normals,
    is_whole_space,
    make_polycone,
    pointedness,
)
from conesep.oracle import (
    cone_about,
    random_pointed_cone,
    random_region,
    random_unpointed_cone,
    ray_region,
    sample_norm_base,
    sector_cone_2d,
    union_of_rays,
)
from conesep.regions import ConeRegion
from conesep.separation import (
    BishopPhelpsCone,
    Membership,
    Orientation,
    bishop_phelps,
    bp_membership,
)

ORTHANT = make_polycone([[1.0, 0.0], [0.0, 1.0]])
HALF_PLANE = make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
LINE = make_polycone([[1.0, 0.0], [-1.0, 0.0]])


def test_orthant_well_based():
    cert = is_well_based(ConeRegion.piece(ORTHANT))
    assert cert.kind is BaseKind.WELL_BASED
    assert np.allclose(cert.x_star, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-9)
    assert cert.alpha == pytest.approx(np.sqrt(0.5) * (1 - 1e-6), rel=1e-9)
    verts = np.asarray(cert.base_vertices)
    assert sorted(map(tuple, verts.round(9))) == sorted(
        [(round(np.sqrt(2), 9), 0.0), (0.0, round(np.sqrt(2), 9))]
    )


def test_single_ray_well_based():
    cert = is_well_based(ray_region([1.0, 1.0]))
    assert cert.kind is BaseKind.WELL_BASED
    assert cert.alpha == pytest.approx(1.0 - 1e-6, rel=1e-9)


def test_half_plane_not_well_based():
    cert = is_well_based(ConeRegion.piece(HALF_PLANE))
    assert cert.kind is BaseKind.NOT_WELL_BASED
    # witness: a convex combination of base points that hits the origin
    pts = np.asarray(cert.witness_points)
    w = np.asarray(cert.witness_weights)
    assert np.all(w >= -1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(w @ pts) <= 1e-8
    # and the antipodal pair exposing the lineality
    p, q = cert.witness_pair
    assert np.allclose(p, -q, atol=1e-8)


def test_orthant_has_convex_base():
    cert = has_convex_base(ConeRegion.piece(ORTHANT))
    assert cert.kind is BaseKind.CONVEX_BASE
    assert np.allclose(cert.x_star, np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-9)
    assert cert.alpha is None
    verts = np.asarray(cert.base_vertices)
    assert verts.shape == (2, 2)
    for v in verts:
        assert v @ cert.x_star == pytest.approx(1.0, abs=1e-9)


def test_boundary_region_has_convex_base_vertices():
    # a boundary region is the union of its facet cones, so has_convex_base
    # cuts a base vertex from every facet ray
    rng = np.random.default_rng(9)
    cones = [ORTHANT, sector_cone_2d(rng.uniform(0.0, 360.0), 30.0),
             cone_about(rng.standard_normal(3), 40.0, n_rays=7),
             cone_about(rng.standard_normal(3), 70.0, n_rays=5)]
    for cone in cones:
        cert = has_convex_base(ConeRegion.boundary(cone))
        assert cert.kind is BaseKind.CONVEX_BASE and cert.base_vertices is not None
        verts = np.asarray(cert.base_vertices)
        assert len(verts) == sum(p.n_rays for p in geometry.facets(cone).pieces)
        assert np.abs(verts @ cert.x_star - 1.0).max() <= 1e-12


def test_line_has_no_convex_base():
    cert = has_convex_base(ConeRegion.piece(LINE))
    assert cert.kind is BaseKind.NO_CONVEX_BASE
    p, q = cert.witness_pair
    assert np.allclose(p, -q, atol=1e-9)


def test_octant_base_triangle():
    cert = has_convex_base(ConeRegion.piece(make_polycone(np.eye(3))))
    assert cert.kind is BaseKind.CONVEX_BASE
    assert np.asarray(cert.base_vertices).shape == (3, 3)


def test_make_base_examples():
    verts = make_base(ORTHANT, np.array([1.0, 1.0]))
    assert sorted(map(tuple, np.asarray(verts).round(9))) == [(0.0, 1.0), (1.0, 0.0)]
    ray = make_polycone([[2.0, 0.0]])
    assert np.allclose(make_base(ray, np.array([1.0, 0.0])), [[1.0, 0.0]])
    slab = make_polycone([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    verts = make_base(slab, np.array([0.0, 0.0, 1.0]))
    assert sorted(map(tuple, np.asarray(verts).round(9))) == [
        (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)
    ]


def test_make_base_rejects_non_positive_functional():
    with pytest.raises(NonPositiveRay):
        make_base(HALF_PLANE, np.array([0.0, 1.0]))


def test_make_base_scaling_structure():
    rng = np.random.default_rng(8)
    for _ in range(20):
        cone = random_pointed_cone(rng, int(rng.integers(2, 5)))
        cert = has_convex_base(ConeRegion.piece(cone))
        assert cert.kind is BaseKind.CONVEX_BASE
        verts = make_base(cone, cert.x_star)
        # each generator is a positive multiple of exactly one base vertex
        for g in cone.generators.T:
            ratios = [np.linalg.norm(g / np.linalg.norm(g)
                                     - v / np.linalg.norm(v)) for v in verts]
            assert sum(r < 1e-9 for r in ratios) == 1


def test_well_based_iff_pointed_iff_convex_base():
    rng = np.random.default_rng(21)
    for i in range(60):
        dim = int(rng.integers(2, 5))
        if i % 3 == 0:
            cone = random_unpointed_cone(rng, dim)
            while is_whole_space(cone):
                cone = random_unpointed_cone(rng, dim)
        else:
            cone = random_pointed_cone(rng, dim)
        region = ConeRegion.piece(cone)
        # one solve, read by has_convex_base as cli base does; pointedness
        # is the independent route
        probe = is_well_based(region)
        wb = probe.kind is BaseKind.WELL_BASED
        cb = has_convex_base(region, well_based=probe).kind is BaseKind.CONVEX_BASE
        assert wb == pointedness(cone).pointed == cb


def _well_based_regions():
    rng = np.random.default_rng(31)
    return {
        "piece": ConeRegion.piece(random_pointed_cone(rng, 3)),
        "union": ConeRegion.union(*(ConeRegion.piece(random_pointed_cone(rng, 4))
                                    for _ in range(2))),
        # in R^1 the closed complement of a ray is the opposite ray
        "complement": ConeRegion.complement(make_polycone([[1.0]])),
        "boundary": ConeRegion.boundary(
            cone_about(rng.standard_normal(3), 40.0, n_rays=7)),
        # hull distances of about 9e-4, where ALPHA_BACKOFF times the
        # distance falls below tol
        "thin piece": ConeRegion.piece(
            sector_cone_2d(float(rng.uniform(0.0, 360.0)), 89.95)),
        "thin boundary": ConeRegion.boundary(
            cone_about(rng.standard_normal(3), 89.95, n_rays=7)),
    }


@pytest.mark.parametrize("name", sorted(_well_based_regions()))
def test_well_based_threshold_is_sound(name, monkeypatch):
    region = _well_based_regions()[name]
    # a base query, as the CLI's, is one solve: has_convex_base reads the
    # certificate it is given (min_norm_point reads distance.body_distance)
    calls = []
    for module in (basis, distance):
        real = module.body_distance
        monkeypatch.setattr(module, "body_distance",
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    cert = is_well_based(region)
    assert len(calls) == 1
    cb = has_convex_base(region, well_based=cert)
    assert len(calls) == 1
    # alpha is the exact minimum of x* over the base, backed off, so no
    # base point scores below it however early the solve stopped
    assert cert.kind is BaseKind.WELL_BASED
    assert 0.0 < cert.alpha <= region.lmo(cert.x_star).value
    # read from the deciding bracket, it is that minimum to rounding
    assert cert.alpha == pytest.approx(
        (1.0 - basis.ALPHA_BACKOFF) * region.lmo(cert.x_star).value, abs=1e-15)
    pts = sample_norm_base(region, count=2000, rng=np.random.default_rng(3)).points
    assert (pts @ cert.x_star >= cert.alpha).all()
    assert cb.kind is BaseKind.CONVEX_BASE
    assert np.array_equal(cb.x_star, cert.x_star)
    if region.is_single_piece:
        assert np.array_equal(cb.base_vertices, cert.base_vertices)
    # so its x* is positive on the base too
    assert (pts @ cb.x_star > 0.0).all()


def test_well_based_threshold_matches_the_lmo_at_its_functional():
    # x* and alpha are read from the bracket that decided the solve, with no
    # LMO call after it; re-evaluated at x* the backed-off minimum agrees
    rng = np.random.default_rng(3005)
    checked = 0
    for dim in range(2, 7):
        for _ in range(20):
            region = random_region(rng, dim)
            cert = is_well_based(region)
            if not cert.well_based:
                continue
            checked += 1
            m = region.lmo(cert.x_star).value
            assert cert.alpha == pytest.approx((1.0 - basis.ALPHA_BACKOFF) * m, abs=1e-15)
    assert checked >= 80


def test_interpolate_wedge_in_half_plane():
    wedge = make_polycone([[-1.0, 1.0], [1.0, 1.0]])
    gamma = interpolate(wedge, HALF_PLANE)
    assert gamma is not None
    assert np.allclose(gamma.functional.x_star, [0.0, 1.0], atol=1e-9)
    assert gamma.functional.alpha == pytest.approx(np.sqrt(0.5) / 2, abs=1e-9)
    lo, hi = gamma.certificate.alpha_interval
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert hi == pytest.approx(np.sqrt(0.5), abs=1e-6)
    assert "BP" in gamma.family_flags
    assert gamma.family_flags == gamma.certificate.family


def test_interpolate_ray_in_wide_cone():
    K = make_polycone([[1.0, 0.0], [-1.0, 4.0]])
    gamma = interpolate(ConeRegion.piece(make_polycone([[0.0, 1.0]])), K)
    assert gamma is not None


def test_interpolate_contact_returns_none():
    assert interpolate(ConeRegion.piece(ORTHANT), ORTHANT) is None


def test_interpolate_rejects_non_nested():
    with pytest.raises(NotNested):
        interpolate(ConeRegion.piece(make_polycone([[0.0, -1.0]])), ORTHANT)


def _counting_nnls(monkeypatch):
    calls = []
    real = kernels.nnls

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "nnls", counted)
    return calls


def test_interpolate_nesting_check_screens_with_the_facets(monkeypatch):
    ax = [0.3, -0.2, 1.0]
    K = cone_about(ax, 40.0, 10)
    N = facet_normals(K)
    assert not is_whole_space(K)  # cached, as the complement leaf reads it
    g = K.generators
    mid = (g[:, 0] + g[:, 1]) / np.linalg.norm(g[:, 0] + g[:, 1])
    n = N[int(np.argmin(np.abs(N @ mid)))]
    calls = _counting_nnls(monkeypatch)
    # NNLS calls made by the nesting check, which runs before the solve
    seen = []
    monkeypatch.setattr(basis, "separate_nonsym",
                        lambda *a, **kw: seen.append(len(calls)))
    assert interpolate(cone_about(ax, 15.0, 7), K) is None
    assert seen == [0]
    # 1e-12 outside a facet is within the membership tolerance: NNLS decides
    interpolate(make_polycone([mid - 1e-12 * n, ax]), K)
    assert len(seen) == 2 and seen[1] > 0
    with pytest.raises(NotNested):
        interpolate(make_polycone([mid - 1e-7 * n, ax]), K)
    assert len(seen) == 2


def test_interpolate_builds_no_facet_cone(monkeypatch):
    # the complement leaf's LMO reads K's facet normals, not its facet cones
    ax = [0.2, 0.5, 1.0]
    inner, K = cone_about(ax, 20.0, 8), cone_about(ax, 50.0, 12)
    made = []
    real = geometry.make_polycone
    monkeypatch.setattr(geometry, "make_polycone",
                        lambda *a: made.append(1) or real(*a))
    assert interpolate(inner, K) is not None
    assert "facets" not in K._cache
    assert made == []


def _cross_cone_5d(t):
    # the cone over a cross-polytope of radius t about e5: 2 * 4 rays and
    # 16 facets
    e = np.eye(5)
    return make_polycone([e[4] + s * t * e[i] for i in range(4) for s in (1.0, -1.0)])


def test_nested_5d_cones_interpolate():
    inner, outer = _cross_cone_5d(0.2), _cross_cone_5d(0.8)
    assert len(facet_normals(outer)) == 16
    gamma = interpolate(inner, outer)
    assert gamma is not None
    check = verify_interpolation(gamma, inner, outer, count=400,
                                 rng=np.random.default_rng(5))
    assert check.ok and check.min_inner_margin > 0


def test_interpolate_union_inner_region():
    inner = union_of_rays([[0.2, 1.0], [-0.2, 1.0]])
    gamma = interpolate(inner, HALF_PLANE)
    assert gamma is not None
    check = verify_interpolation(gamma, inner, HALF_PLANE, count=500)
    assert check.ok


def test_interpolate_boundary_inner_region():
    # the boundary of the inner cone is the union of its facet cones, so it
    # nests in the outer cone as any union does
    wedge = make_polycone([[-1.0, 1.0], [1.0, 1.0]])
    rng = np.random.default_rng(4)
    pairs = [(wedge, HALF_PLANE)]
    for _ in range(4):
        ax = rng.standard_normal(3)
        pairs.append((cone_about(ax, 20, 8), cone_about(ax, 50, 12)))
    for inner, outer in pairs:
        region = ConeRegion.boundary(inner)
        gamma = interpolate(region, outer)
        assert gamma is not None
        check = verify_interpolation(gamma, region, outer, count=300,
                                     rng=np.random.default_rng(2))
        assert check.ok and check.min_inner_margin > 0


def test_verify_interpolation_wedge():
    wedge = make_polycone([[-1.0, 1.0], [1.0, 1.0]])
    gamma = interpolate(wedge, HALF_PLANE)
    check = verify_interpolation(gamma, ConeRegion.piece(wedge), HALF_PLANE,
                                 count=1000)
    assert check.ok
    assert check.inner_count == 1000
    assert check.inner_violations == 0
    assert check.base_violations == 0
    assert check.min_inner_margin > 0


def test_interpolated_cone_contains_inner_rays_strictly():
    wedge = make_polycone([[-1.0, 1.0], [1.0, 1.0]])
    gamma = interpolate(wedge, HALF_PLANE)
    for g in wedge.generators.T:
        assert bp_membership(gamma, g) is Membership.INTERIOR
    # and gamma stays inside K: its boundary rays are members of K
    from conesep.separation import bp_boundary_rays_2d
    rays = bp_boundary_rays_2d(gamma.functional.x_star, gamma.functional.alpha)
    for r in rays:
        assert cone_membership(r, HALF_PLANE)


def test_interpolate_sym_prefers_cfromk():
    C = sector_cone_2d(90.0, 10.0)
    K = union_of_rays([[1.0, -0.2], [-1.0, -0.2]])
    res = interpolate_sym(C, K)
    assert res is not None
    orient, gamma = res
    assert orient is Orientation.C_FROM_K
    assert gamma.certificate is not None


def test_interpolate_sym_mirrored_orientation():
    # the line-pair's body hull passes through the origin, so enclosing it
    # in a Bishop-Phelps cone is impossible; only the sector can be nested
    C = union_of_rays([[1.0, 0.0], [-1.0, 0.0]])
    K = sector_cone_2d(90.0, 10.0)
    res = interpolate_sym(C, K)
    assert res is not None
    orient, gamma = res
    assert orient is Orientation.K_FROM_C
    # the sector's generators sit inside gamma, the line-pair stays outside
    for g in K.generators.T:
        assert bp_membership(gamma, g) is not Membership.EXTERIOR
    assert bp_membership(gamma, np.array([1.0, 0.0])) is Membership.EXTERIOR
    assert bp_membership(gamma, np.array([-1.0, 0.0])) is Membership.EXTERIOR


def test_interpolate_sym_overlapping_absent():
    assert interpolate_sym(ORTHANT, ORTHANT) is None


def test_nested_3d_cones_interpolate():
    # Draws 0, 5, 6, 8, 9, 14, 26 and 29 used to raise Inconclusive: their
    # distance solves stalled on an ill-conditioned Wolfe affine step.
    rng = np.random.default_rng(1)
    for i in range(30):
        ax = rng.standard_normal(3)
        inner, outer = cone_about(ax, 20, 8), cone_about(ax, 50, 12)
        gamma = interpolate(inner, outer)
        assert gamma is not None
        assert gamma.family_flags == gamma.certificate.family
        if i in (0, 5, 6, 8, 9, 14, 26, 29):
            check = verify_interpolation(gamma, inner, outer, count=100,
                                         rng=np.random.default_rng(i))
            assert check.ok


E3 = np.array([0.0, 0.0, 1.0])


def test_bp_base_samples_are_distinct_and_half_on_the_rim():
    a = math.cos(math.radians(35.0))
    pts = _bp_base_samples(bishop_phelps(E3, a), 1000, None)
    assert len(np.unique(pts, axis=0)) == 1000
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0, atol=1e-12)
    assert (pts @ E3 >= a - 1e-12).all()
    assert (np.abs(pts @ E3 - a) <= 1e-12).sum() >= 500


def test_verify_interpolation_samples_a_thin_bp_base():
    inner, outer = cone_about(E3, 0.2, 6), cone_about(E3, 1.0, 12)
    gamma = interpolate(inner, outer)
    check = verify_interpolation(gamma, inner, outer, count=1000)
    assert check.ok
    assert check.base_count == 1000


def test_verify_interpolation_rejects_a_bp_cone_wider_than_the_outer():
    # a 1.5-degree cone about the axis of a 1-degree outer cone
    gamma = bishop_phelps(E3, math.cos(math.radians(1.5)))
    check = verify_interpolation(gamma, cone_about(E3, 0.2, 6),
                                 cone_about(E3, 1.0, 12), count=200)
    assert not check.ok
    assert check.base_violations > 0



@pytest.mark.parametrize("case", ["nested", "wider", "narrower"])
def test_verify_interpolation_verdicts_match_a_cone_membership_loop(case):
    if case == "nested":
        ax = np.random.default_rng(3).standard_normal(3)
        inner, outer = cone_about(ax, 20, 8), cone_about(ax, 50, 12)
        gamma = interpolate(inner, outer)
    else:
        # a 1.5-degree (or 0.1-degree, narrower than the 0.2-degree inner
        # cone) cone about the axis of a 1-degree outer cone
        inner, outer = cone_about(E3, 0.2, 6), cone_about(E3, 1.0, 12)
        angle = 1.5 if case == "wider" else 0.1
        gamma = bishop_phelps(E3, math.cos(math.radians(angle)))
    check = verify_interpolation(gamma, inner, outer, count=400,
                                 rng=np.random.default_rng(9))
    # the same draws: the inner samples come first from the generator
    rng = np.random.default_rng(9)
    inner_pts = sample_norm_base(ConeRegion.piece(inner), count=400, rng=rng).points
    base = _bp_base_samples(gamma, 400, rng)
    inner_loop = [bp_membership(gamma, x) is not Membership.INTERIOR for x in inner_pts]
    assert check.inner_violations == sum(inner_loop)
    assert (check.inner_violations > 0) == (case == "narrower")
    # plus the outer cone's rays and points off the middle of one of its
    # facets, inside and on both sides of the membership tolerance outside,
    # where the facet screen defers to NNLS; and one point off a ray whose
    # facet slacks lie within the tolerance but whose distance does not
    g = outer.generators
    mid = (g[:, 0] + g[:, 1]) / np.linalg.norm(g[:, 0] + g[:, 1])
    N = facet_normals(outer)
    n = N[int(np.argmin(np.abs(N @ mid)))]
    off = [mid - t * n for t in (-1e-9, 0.0, 5e-10, 2e-9, 1e-6)]
    na, nb = N[np.argsort(np.abs(N @ g[:, 0]))[:2]]
    w = (na + nb) / np.linalg.norm(na + nb)
    c = 0.5e-9 * (1.0 + 1.0 / float(na @ w))
    pts = np.concatenate([base, g.T, off, [g[:, 0] - c * w]])
    loop = np.array([cone_membership(x, outer) for x in pts])
    assert (cone_membership_batch(pts, outer) == loop).all()
    assert loop[-6:].tolist() == [True, True, True, False, False, False]
    assert check.base_violations == int((~loop[:400]).sum())
    assert check.ok == (case == "nested")
    assert (check.base_violations > 0) == (case == "wider")


def test_verify_interpolation_rejects_a_non_euclidean_gamma():
    # the l1 cone |x1| <= (2/3) x2 lies inside the 40-degree sector, but its
    # base would be drawn on the Euclidean rim at 53.1 degrees
    gamma = bishop_phelps([0.0, 1.0], 0.6, Norm.L1)
    with pytest.raises(ValueError, match="Euclidean"):
        verify_interpolation(gamma, sector_cone_2d(90.0, 10.0),
                             sector_cone_2d(90.0, 40.0), count=200,
                             rng=np.random.default_rng(0))


def test_verify_interpolation_passes_for_a_one_dimensional_cone():
    # no direction is orthogonal to x* in 1-D: the base of gamma is the
    # single point x*/|x*| = (+1), sampled count times
    ray = make_polycone([[1.0]])
    gamma = bishop_phelps(np.array([1.0]), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        check = verify_interpolation(gamma, ray, ray, count=10)
        outside = verify_interpolation(gamma, ray, make_polycone([[-1.0]]),
                                       count=10)
    assert check.ok
    assert check.base_count == 10 and check.base_violations == 0
    # against the opposite ray every base sample is a violation
    assert not outside.ok
    assert outside.base_violations == 10


def test_interpolate_between_two_one_dimensional_rays():
    # the complement of the ray [0, inf) has the base {-1}: its facet {0}
    # has an empty base, so the complement LMO answers in closed form
    ray = make_polycone([[1.0]])
    gamma = interpolate(ray, make_polycone([[1.0]]))
    assert isinstance(gamma, BishopPhelpsCone)
    f = gamma.functional
    # the base of gamma is {x*/|x*|} = {+1}: the ray lies in gamma's
    # interior and gamma in the ray
    assert f.x_star[0] > 0.0 and 0.0 < f.alpha < f.x_star[0]
    assert bp_membership(gamma, np.array([1.0])) == Membership.INTERIOR
    assert bp_membership(gamma, np.array([-1.0])) == Membership.EXTERIOR


def test_interpolate_rejects_a_complement_as_the_inner_region():
    with pytest.raises(NotNested, match="complement"):
        interpolate(ConeRegion.complement(ORTHANT), ORTHANT)
