import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesep import geometry, kernels
from conesep.errors import (
    DimensionMismatch,
    DimensionTooHigh,
    EmptyCone,
    NotSolid,
    ZeroDirection,
    ZeroGenerator,
)
from conesep.geometry import (
    BLOCK,
    DEDUP_COS,
    FACET_DEDUP_COS,
    FACET_TOL,
    MAX_DD_RAYS,
    MEMBERSHIP_TOL,
    RANK_REL,
    SUBSET_CROSSOVER,
    Norm,
    _dd_facets,
    _enumerate_facet_normals,
    _first_distinct,
    _inspan_hrep,
    _subset_facets,
    cone_membership,
    cone_membership_batch,
    contains_batch,
    dual_norm,
    facet_normals,
    facets,
    generator_mean,
    is_whole_space,
    make_polycone,
    norm_value,
    pointedness,
    solidity,
    strictly_interior,
)
from conesep.oracle import cone_about, random_pointed_cone, sector_cone_2d
from conesep.regions import ConeRegion


def test_make_polycone_normalizes():
    cone = make_polycone([[2.0, 0.0]])
    assert cone.generators.shape == (2, 1)
    assert np.allclose(cone.generators[:, 0], [1.0, 0.0])


def _dedup_by_pairs(U):
    # make_polycone's dedupe as it was, one Python comparison per pair
    kept = []
    for row in U:
        if not any(float(row @ other) >= DEDUP_COS for other in kept):
            kept.append(row)
    return np.stack(kept, axis=1)


def test_make_polycone_dedups_parallel_rays():
    cone = make_polycone([[1.0, 0.0], [3.0, 0.0]])
    assert cone.generators.shape == (2, 1)
    # many near-duplicates: n directions, each repeated at cosines on both
    # sides of DEDUP_COS, shuffled, over more than one BLOCK of rows
    rng = np.random.default_rng(5)
    for dim, n in ((3, 40), (5, 120)):
        base = rng.standard_normal((n, dim))
        base /= np.linalg.norm(base, axis=1)[:, None]
        rays = [base]
        for eps in (1e-13, 1e-7, 2e-6):
            jitter = rng.standard_normal((n, dim))
            rays.append(base + eps * jitter)
        U = np.concatenate(rays * 3)
        U = U[rng.permutation(len(U))] * rng.uniform(0.5, 2.0, (len(U), 1))
        cone = make_polycone(U)
        ref = _dedup_by_pairs(U / np.linalg.norm(U, axis=1)[:, None])
        assert cone.generators.flags.c_contiguous
        assert np.array_equal(cone.generators, ref)
        assert n < cone.n_rays < len(U)


def test_make_polycone_rejects_zero_generator():
    with pytest.raises(ZeroGenerator):
        make_polycone([[0.0, 0.0]])
    with pytest.raises(EmptyCone):
        make_polycone([])


def test_membership_first_orthant():
    cone = make_polycone([[1.0, 0.0], [0.0, 1.0]])
    assert cone_membership([1.0, 2.0], cone)
    assert not cone_membership([-1.0, 0.0], cone)


def test_membership_is_scale_invariant_on_rays():
    cone = make_polycone([[1.0, 1.0]])
    assert cone_membership([2.0, 2.0], cone)
    assert not cone_membership([2.0, 2.1], cone)


def test_pointedness_examples():
    assert pointedness(make_polycone([[1.0, 0.0], [0.0, 1.0]])).pointed
    line = pointedness(make_polycone([[1.0, 0.0], [-1.0, 0.0]]))
    assert not line.pointed
    assert np.allclose(np.abs(line.witness), [1.0, 0.0], atol=1e-9)
    fan = pointedness(make_polycone([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]]))
    assert not fan.pointed


def test_pointedness_witness_is_lineality_direction():
    cone = make_polycone([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    w = pointedness(cone).witness
    assert cone_membership(w, cone)
    assert cone_membership(-w, cone)


def test_pointedness_is_cached_with_a_read_only_witness(monkeypatch):
    calls = []
    real = kernels.min_norm_point
    monkeypatch.setattr(kernels, "min_norm_point",
                        lambda X, tol: calls.append(1) or real(X, tol))
    cone = make_polycone([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    first = pointedness(cone)
    assert pointedness(cone) is first
    assert calls == [1]
    assert not first.pointed
    with pytest.raises(ValueError):
        first.witness[0] = 0.0


def test_solidity_examples():
    assert solidity(make_polycone([[1.0, 0.0], [0.0, 1.0]]))
    assert not solidity(make_polycone([[1.0, 0.0]]))
    assert solidity(make_polycone([[1, 0, 0], [0, 1, 0], [1, 1, 1]]))


def test_whole_space_detection():
    assert is_whole_space(make_polycone([[1, 0], [-1, 0], [0, 1], [0, -1]]))
    assert not is_whole_space(make_polycone([[1, 0], [-1, 0], [0, 1]]))


def _whole_space_cases(dim, rng):
    eye = np.eye(dim)
    yield random_pointed_cone(rng, dim, n_rays=dim + 2)
    yield make_polycone(rng.standard_normal((dim + 3, dim)))
    n = rng.standard_normal(dim)
    n /= np.linalg.norm(n)
    T = np.linalg.svd(n[None, :])[2][1:]  # a basis of the hyperplane n.x = 0
    yield make_polycone(np.vstack([T, -T, n]))  # a half-space
    # not pointed, not a half-space: a line through a pointed cone
    yield make_polycone(np.vstack([eye[0], -eye[0],
                                   random_pointed_cone(rng, dim).generators.T]))
    if dim > 1:
        yield make_polycone(np.vstack([eye[1:], -eye[1:]]))  # not solid
        yield make_polycone(eye[1:])
    yield make_polycone(np.vstack([eye, -eye]))
    yield make_polycone(np.vstack([eye, -eye.sum(axis=0)]))


@pytest.mark.parametrize("dim", range(1, 7))
def test_whole_space_test_matches_its_definition(dim):
    # solid, with every +-e_i a member: the definition the one-product
    # shortcut for pointed cones must agree with
    rng = np.random.default_rng([59, dim])
    seen = set()
    for _ in range(4):
        for cone in _whole_space_cases(dim, rng):
            ref = solidity(cone) and all(
                cone_membership(s * e, cone) for e in np.eye(dim) for s in (1.0, -1.0))
            assert is_whole_space(make_polycone(cone.generators.T)) == ref
            seen.add(ref)
    assert seen == {True, False}


def test_nearly_a_line_flags_rays_within_rounding_of_opposite():
    def cone(gap):
        return make_polycone([[1.0, 0.0, 0.0], [-1.0, gap, 0.0], [0.0, 0.0, 1.0]])

    near = cone(1e-15)
    assert geometry.nearly_a_line(near) and near._cache["near_line"] is True
    assert not geometry.nearly_a_line(cone(1e-13))  # over 64 eps: resolved
    assert not geometry.nearly_a_line(cone(0.0))  # an exact line is legal


@pytest.mark.parametrize("dim", range(2, 7))
def test_nearly_a_line_matches_its_definition(dim):
    # 0 < |g_i + g_j| <= NEAR_LINE for some pair: the definition the
    # generator-mean shortcut must agree with, on cones in a half-space and
    # on cones with lines, exact and within rounding
    rng = np.random.default_rng([61, dim])
    seen = set()
    for _ in range(4):
        cases = list(_whole_space_cases(dim, rng))
        for base in cases[:2]:
            g = base.generators[:, 0]
            for gap in (1e-15, 1e-13):
                h = -g + gap * np.linalg.svd(g[None, :])[2][1]
                cases.append(make_polycone(np.vstack([base.generators.T, h])))
        for cone in cases:
            G = cone.generators
            sums = np.linalg.norm(G[:, :, None] + G[:, None, :], axis=0)
            ref = bool(((sums > 0.0) & (sums <= geometry.NEAR_LINE)).any())
            assert geometry.nearly_a_line(cone) == ref
            seen.add(ref)
    assert seen == {True, False}


def test_facets_first_orthant_2d():
    decomp = facets(make_polycone([[1.0, 0.0], [0.0, 1.0]]))
    rays = sorted(tuple(np.round(p.generators[:, 0], 9)) for p in decomp.pieces)
    assert rays == [(0.0, 1.0), (1.0, 0.0)]


def test_facets_first_octant_3d():
    decomp = facets(make_polycone(np.eye(3)))
    assert len(decomp.pieces) == 3
    for piece in decomp.pieces:
        assert piece.generators.shape == (3, 2)


def test_facets_pyramid_cone():
    gens = [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]
    decomp = facets(make_polycone(gens))
    assert len(decomp.pieces) == 4


def test_dual_norm_examples():
    assert dual_norm(np.array([3.0, 4.0]), Norm.EUCLIDEAN) == pytest.approx(5.0)
    assert dual_norm(np.array([3.0, -4.0]), Norm.L1) == pytest.approx(4.0)
    assert dual_norm(np.array([3.0, -4.0]), Norm.LINF) == pytest.approx(7.0)


def test_norm_value_kinds():
    x = np.array([3.0, -4.0])
    assert norm_value(x) == pytest.approx(5.0)
    assert norm_value(x, Norm.L1) == pytest.approx(7.0)
    assert norm_value(x, Norm.LINF) == pytest.approx(4.0)


def test_membership_dimension_mismatch():
    cone = make_polycone([[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        cone_membership([1.0, 0.0, 0.0], cone)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 6))
def test_normalization_idempotent(seed, dim, n_gens):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_gens, dim))
    G = G[np.linalg.norm(G, axis=1) > 1e-6]
    if len(G) == 0:
        return
    cone = make_polycone(G)
    again = make_polycone(cone.generators.T)
    assert np.allclose(
        np.sort(cone.generators, axis=1), np.sort(again.generators, axis=1)
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 5))
def test_pointedness_matches_hull_grid_search(seed, dim, n_gens):
    # pointed <=> 0 is not a convex combination of the normalized rays,
    # checked against brute-force minimization over a barycentric grid
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n_gens, dim))
    G = G[np.linalg.norm(G, axis=1) > 1e-6]
    if len(G) < 2:
        return
    cone = make_polycone(G)
    gens = cone.generators.T
    k = len(gens)
    best = np.inf
    steps = 24
    grid = np.linspace(0.0, 1.0, steps + 1)
    rng2 = np.random.default_rng(seed + 1)
    weights = rng2.dirichlet(np.ones(k), size=4000)
    if k == 2:
        weights = np.vstack([weights, np.stack([grid, 1 - grid], axis=1)])
    best = np.linalg.norm(weights @ gens, axis=1).min()
    if pointedness(cone).pointed:
        assert best > 1e-4
    else:
        # a coarse grid cannot certify exact zero; refine with the witness
        w = pointedness(cone).witness
        assert cone_membership(w, cone) and cone_membership(-w, cone)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
def test_euclidean_dual_norm_squared_is_sum_of_squares(coords):
    x = np.array(coords)
    assert dual_norm(x, Norm.EUCLIDEAN) ** 2 == pytest.approx(
        float((x * x).sum()), rel=1e-12, abs=1e-9
    )


def test_facets_union_covers_sampled_boundary():
    cone = make_polycone([[1.0, 0.0], [1.0, 2.0]])
    decomp = facets(cone)
    # every sampled boundary point of the sector lies in some facet ray
    for theta in np.linspace(0.0, np.arctan2(2.0, 1.0), 40):
        x = np.array([np.cos(theta), np.sin(theta)])
        on_boundary = any(
            cone_membership(x, p, tol=1e-6) for p in decomp.pieces
        )
        eps = 1e-7
        perturbed_out = [
            not cone_membership(x + eps * n, cone, tol=1e-9)
            for n in (np.array([0.0, -1.0]), np.array([-2.0, 1.0]) / np.sqrt(5))
        ]
        assert on_boundary == any(perturbed_out)


def _facet_normals_per_subset(points):
    """Reference: one SVD per (d-1)-subset, the loop that the stacked subset
    path and the double-description path replaced, kept here to pin their
    output bit for bit."""
    d, n = points.shape
    if d == 1:
        if points[0].min() > 0:
            return [np.array([1.0])]
        if points[0].max() < 0:
            return [np.array([-1.0])]
        return []
    found = []
    for subset in combinations(range(n), d - 1):
        _, s, Vt = np.linalg.svd(points[:, subset].T)
        if s[d - 2] <= RANK_REL * max(1.0, s[0]):
            continue
        nrm = Vt[d - 1]
        slack = points.T @ nrm
        if slack.min() >= -FACET_TOL:
            cand = nrm
        elif slack.max() <= FACET_TOL:
            cand = -nrm
        else:
            continue
        if not any(float(cand @ f) >= 1.0 - 1e-9 for f in found):
            found.append(cand)
    return found


def _cap_cone_48():
    # 48 rays in a 35-degree cap of R^4: C(48, 3) = 17296 subsets
    return random_pointed_cone(np.random.default_rng(48), 4, n_rays=48,
                               cap_half_angle_deg=35.0)


def _enumeration_cases():
    rng = np.random.default_rng(11)
    cases = [np.array([[1.0, 2.0]]), np.array([[-1.0, -3.0]]),
             np.array([[1.0, -1.0]])]
    for center, half in ((0.0, 30.0), (100.0, 5.0), (-60.0, 80.0)):
        cases.append(sector_cone_2d(center, half).generators)
    for n_rays in (8, 12):
        for _ in range(3):
            cases.append(cone_about(rng.standard_normal(3), 35.0, n_rays).generators)
    cases.append(make_polycone([[1, 1, 1], [1, -1, 1], [-1, 1, 1], [-1, -1, 1]]).generators)
    # a wedge with antipodal rays: a rank-1 pair and a facet found twice
    cases.append(make_polycone([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]]).generators)
    cube = [[a, b, c, 1.0] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    cases.append(make_polycone(cube).generators)
    # edge midpoints make collinear triples (rank-deficient subsets)
    mids = [[a, b, 0, 1.0] for a in (-1, 1) for b in (-1, 1)]
    mids += [[a, 0, c, 1.0] for a in (-1, 1) for c in (-1, 1)]
    mids += [[0, b, c, 1.0] for b in (-1, 1) for c in (-1, 1)]
    cases.append(make_polycone(cube + mids).generators)
    # rotated, so null directions of the collinear triples are not axes
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cases.append(make_polycone(np.array(cube + mids) @ Q.T).generators)
    cases.append(_cap_cone_48().generators)
    # 3-D cones with a pair of rays eta short of antipodal: the pair's
    # cross product is about eta long, under the screen's 1e-6 cut for the
    # smaller etas
    for eta in (1e-4, 1e-8, 1e-15):
        cases.append(make_polycone([[1, 0, 0], [-1, eta, 0], [0, 0, 1],
                                    [0.2, 0.5, -0.4]]).generators)
        cases.append(make_polycone([[1, 0, 0], [-1, eta, 0.3 * eta], [0, 0.3, 1],
                                    [0.1, 1, 0.2]]).generators)
    # a ray within 1e-9 of a facet plane, outside it or inside: the
    # facet's subset has slack far below the screen's 1e-6 margin, so the
    # SVD's sign test decides it
    near = np.random.default_rng(3)
    for off in (1e-9, -1e-9, 3e-10, 1e-12):
        c = cone_about(near.standard_normal(3), 35.0, 6).generators
        n = np.cross(c[:, 0], c[:, 1])
        n *= np.sign(n @ c[:, 3]) / np.linalg.norm(n)
        mid = (c[:, 0] + c[:, 1]) / np.linalg.norm(c[:, 0] + c[:, 1])
        cases.append(make_polycone(np.vstack([c.T, mid - off * n])).generators)
    return cases


def test_both_enumeration_paths_match_per_subset_loop():
    cases = _enumeration_cases()
    for points in cases:
        d = points.shape[0]
        ref = np.array(_facet_normals_per_subset(points)).reshape(-1, d)
        assert np.array_equal(_enumerate_facet_normals(points), ref)
        if d > 1:
            assert np.array_equal(_first_distinct(_subset_facets(points)), ref)
            assert np.array_equal(_first_distinct(_dd_facets(points)), ref)
    # _enumerate_facet_normals took both paths
    sizes = [math.comb(p.shape[1], p.shape[0] - 1) for p in cases]
    assert min(sizes) <= SUBSET_CROSSOVER < max(sizes)


def test_double_description_keeps_the_first_of_near_duplicate_facets():
    # 30 rays in 6-D where double description finds two facets 1.8e-5
    # apart (cosine 1 - 1.7e-10); the subset path drops the later one, and
    # so must this one.  The stacked subset path stands in for the
    # per-subset loop (which takes seconds on C(30, 5) subsets); the test
    # above pins the two to the same bits.
    X = np.random.default_rng(0).standard_normal((30, 6))
    X[:, -1] = np.abs(X[:, -1]) + 1.0
    points = make_polycone(X).generators
    candidates = _dd_facets(points)
    got = _first_distinct(candidates)
    assert len(candidates) == 198 and len(got) == 197
    assert np.array_equal(got, _first_distinct(_subset_facets(points)))
    assert np.array_equal(_enumerate_facet_normals(points), got)


def test_inspan_hrep_matches_per_subset_loop():
    # cone_about in R^4 spans only 3 dimensions
    cone = cone_about([1.0, 2.0, 3.0, 4.0], 30.0, 10)
    assert not solidity(cone)
    B, N = _inspan_hrep(cone)
    ref = _facet_normals_per_subset(B.T @ cone.generators)
    assert B.shape == (4, 3)
    assert np.array_equal(N, np.stack(ref))


def test_enumeration_takes_one_stacked_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # subset path: all 66 subsets of a 12-ray 3-D cone in one call
    small = cone_about([0.2, 0.3, 1.0], 30.0, 12).generators
    assert len(_enumerate_facet_normals(small)) == 12
    assert len(calls) == 1
    # double description: the 48 simplicial facets' subsets in one call
    calls.clear()
    assert len(_enumerate_facet_normals(_cap_cone_48().generators)) == 48
    assert len(calls) == 1


def test_hrep_membership_agrees_with_nnls_on_facet_heavy_cone():
    cone = _cap_cone_48()
    N = facet_normals(cone)
    rng = np.random.default_rng(5)
    axis = cone.generators.sum(axis=1)
    axis /= np.linalg.norm(axis)
    X = rng.standard_normal((400, 4))
    X -= np.outer(X @ axis, axis)
    X /= np.linalg.norm(X, axis=1)[:, None]
    tilt = np.radians(rng.uniform(0.0, 50.0, size=400))
    X = np.cos(tilt)[:, None] * axis + np.sin(tilt)[:, None] * X
    # each facet's centroid, then 1e-6 inside and outside along its normal
    on_facet = np.array([
        cone.generators[:, np.abs(nrm @ cone.generators) <= 1e-9].mean(axis=1)
        for nrm in N
    ])
    inside = on_facet + 1e-6 * N
    outside = on_facet - 1e-6 * N
    pts = np.concatenate([X, inside, outside])
    by_nnls = np.array([cone_membership(x, cone) for x in pts])
    assert np.array_equal(contains_batch(cone, pts), by_nnls)
    m = len(N)
    assert by_nnls[400:400 + m].all() and not by_nnls[400 + m:].any()
    assert 50 < by_nnls[:400].sum() < 350
    ref = np.stack(_facet_normals_per_subset(cone.generators))
    for x in np.concatenate([pts, on_facet]):
        if strictly_interior(cone, x):
            assert (ref @ x).min() > 0.0
            assert cone_membership(x, cone)
    assert all(strictly_interior(cone, x) for x in inside)
    assert not any(strictly_interior(cone, x) for x in on_facet)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_solid_cone_enumerates_its_facets_once(monkeypatch):
    calls = _counting(monkeypatch, geometry, "_enumerate_facet_normals")
    cone = cone_about([0.2, 0.3, 1.0], 30.0, 12)
    x = np.array([0.2, 0.3, 1.0])
    assert contains_batch(cone, x)[0]
    region = ConeRegion.complement(cone)
    assert not region.contains_unit_batch(x / np.linalg.norm(x))[0]
    assert region.lmo(-x).value < 0.0
    assert len(calls) == 1


def test_solid_hrep_is_the_facet_normals():
    for cone in (cone_about([1.0, -2.0, 0.5], 25.0, 9), _cap_cone_48()):
        B, N = _inspan_hrep(cone)
        assert N is facet_normals(cone)
        assert np.array_equal(B, np.eye(cone.dim))


def _facet_view_cases():
    rng = np.random.default_rng(23)
    cones = [random_pointed_cone(rng, d, n_rays=int(rng.integers(d, d + 7)))
             for d in range(2, 7) for _ in range(4)]
    # coplanar rays: edge midpoints lie on the facets of a square pyramid
    # and of a cube's cone, rotated so that no facet normal is an axis
    square = [[a, b, 1.0] for a in (-1, 1) for b in (-1, 1)]
    cones.append(make_polycone(square + [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]))
    cube = [[a, b, c, 1.0] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    mids = [[a, b, 0, 1.0] for a in (-1, 1) for b in (-1, 1)]
    mids += [[a, 0, c, 1.0] for a in (-1, 1) for c in (-1, 1)]
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cones.append(make_polycone(np.array(cube + mids) @ Q.T))
    cones.append(_cap_cone_48())
    return cones


def test_facet_cones_are_the_parents_columns_bit_for_bit():
    coplanar = False
    for cone in _facet_view_cases():
        assert solidity(cone)
        pieces = facets(cone).pieces
        assert pieces
        for piece in pieces:
            G = piece.generators
            ref = make_polycone(G.T).generators
            assert (G.dtype, G.shape) == (ref.dtype, ref.shape)
            assert G.tobytes() == ref.tobytes()
            assert not G.flags.writeable and G.flags.c_contiguous
            # each column is one of the parent's, bit for bit
            assert all((cone.generators == g[:, None]).all(axis=0).any() for g in G.T)
            coplanar |= piece.n_rays >= cone.dim
    assert coplanar


def _orthant_points(rng, d, n):
    # random directions, then points within 1e-6 of a facet on either side
    X = rng.standard_normal((n, d))
    near = np.abs(rng.standard_normal((n, d)))
    near[np.arange(n), rng.integers(0, d, n)] = rng.uniform(-1e-6, 1e-6, n)
    return np.concatenate([X, near])


def test_supplied_facets_decide_batch_membership_above_the_cap(monkeypatch):
    # the 5-D orthant, once above the dimension cap, now has enumerated
    # normals
    cone = make_polycone(np.eye(5))
    X = _orthant_points(np.random.default_rng(3), 5, 200)
    by_nnls = np.array([cone_membership(x, cone) for x in X])
    assert 0 < by_nnls[200:].sum() < 200
    calls = _counting(monkeypatch, kernels, "nnls")
    assert np.array_equal(contains_batch(cone, X), by_nnls)
    assert not calls


def test_facet_enumeration_is_in_the_span_dimension():
    orthant = make_polycone(np.eye(5))
    assert np.array_equal(facet_normals(orthant), np.eye(5)[::-1])
    # 60 rays in 6-D make C(60, 5) ~ 5.5e6 subsets: double description
    # enumerates them, and batch membership agrees with NNLS
    heavy = random_pointed_cone(np.random.default_rng(4), 6, n_rays=60)
    assert heavy.n_rays == 60 and solidity(heavy)
    assert len(facet_normals(heavy)) == 642
    X = np.concatenate([_orthant_points(np.random.default_rng(4), 6, 20),
                        heavy.generators.T[:10] @ np.ones((6, 6)) / 6,
                        heavy.generators.T])
    by_nnls = [cone_membership(x, heavy) for x in X]
    assert np.array_equal(contains_batch(heavy, X), by_nnls)
    assert np.array_equal(cone_membership_batch(X, heavy), by_nnls)
    # a 4-D orthant inside R^5 spans 4 dimensions and is enumerated there
    flat = make_polycone(np.eye(5)[:4])
    B, N = _inspan_hrep(flat)
    assert B.shape == (5, 4) and N.shape == (4, 4)
    # a cone that fills its span has no normal rows
    plane = make_polycone([[1, 0, 0], [0, 1, 0], [-1, -1, 0]])
    assert _inspan_hrep(plane)[1].shape == (0, 2)
    assert contains_batch(plane, [[3.0, -2.0, 0.0], [0.0, 0.0, 1.0]]).tolist() == [
        True, False]


def test_double_description_bound():
    # 50 random rays in 8-D have about 4700 facets, so enumeration would
    # hold more than MAX_DD_RAYS rays; it stops, and membership tests say so
    heavy = random_pointed_cone(np.random.default_rng(4), 8, n_rays=50)
    with pytest.raises(DimensionTooHigh, match=f"over {MAX_DD_RAYS} rays"):
        facet_normals(heavy)
    with pytest.raises(DimensionTooHigh):
        contains_batch(heavy, heavy.generators.T)


@pytest.mark.parametrize("dim, rank", [(3, 3), (3, 2), (5, 5), (6, 6)])
def test_cone_membership_batch_matches_the_nnls_loop(dim, rank):
    # solid, non-solid (a wedge in a plane of R^3, so points also leave its
    # span) and solid in 5-D and 6-D
    rng = np.random.default_rng(13)
    cone = random_pointed_cone(rng, rank, n_rays=rank + 2)
    G = np.vstack([cone.generators, np.zeros((dim - rank, cone.n_rays))])
    cone = make_polycone(G.T)
    X = rng.standard_normal((300, dim))
    X = np.concatenate([X, G.T + 1e-10 * X[:cone.n_rays], G.T - 2e-9 * X[:cone.n_rays]])
    X[:, rank:] *= rng.uniform(size=(len(X), 1)) < 0.5
    loop = np.array([cone_membership(x, cone) for x in X])
    assert loop.any() and not loop.all()
    assert (cone_membership_batch(X, cone) == loop).all()


def test_cone_membership_batch_raises_on_a_non_finite_row():
    cone = make_polycone(np.eye(3))
    with pytest.raises(ZeroDirection):
        cone_membership_batch([[1.0, 1.0, 1.0], [np.nan, 0.0, 1.0]], cone)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", [np.eye(3), np.eye(3)[:2]])
def test_a_non_finite_row_forms_no_nan_on_its_way_to_zero_direction(rows):
    # an inf row times a zero entry of the facet normals or of the
    # generators would warn; it is masked in contains_batch, and nnls tests
    # its target before G.T @ y.  Solid and non-solid cones alike.
    cone = make_polycone(rows)
    X = np.array([[1.0, 1.0, 0.0], [np.inf, 0.0, 1.0], [0.0, -np.inf, np.nan]])
    assert contains_batch(cone, X).tolist() == [True, False, False]
    assert contains_batch(cone, X, 0.0).tolist() == [True, False, False]
    with pytest.raises(ZeroDirection):
        cone_membership_batch(X, cone)


def test_chamfered_pyramid_corner_is_outside():
    # a square pyramid with its (1, 1, 1) corner chamfered: the corner
    # direction has slack 0 against the four side normals, and y, tilted
    # 1e-4 toward the axis, has slack 4e-5 against them, yet both lie
    # outside the generators; every description built from them says so
    e = 1e-3
    G = [[-1, 1, 1], [-1, -1, 1], [1, -1, 1], [1, 1 - e, 1], [1 - e, 1, 1]]
    cone = make_polycone(G)
    x = np.ones(3) / math.sqrt(3)
    y = np.array([1.0, 1.0, 1.0 + 1e-4])
    y /= np.linalg.norm(y)
    sides = np.array([[-1, 0, 1], [1, 0, 1], [0, -1, 1], [0, 1, 1]]) / math.sqrt(2)
    assert (sides @ x).min() >= -1e-15 and (sides @ y).min() > 1e-5
    assert not cone_membership(x, cone) and not cone_membership(y, cone)
    assert len(facet_normals(cone)) == 5
    pts = [x, y, [0.0, 0.0, 1.0]]
    assert contains_batch(cone, pts).tolist() == [False, False, True]
    assert cone_membership_batch(pts, cone).tolist() == [False, False, True]
    assert not strictly_interior(cone, y)
    complement = ConeRegion.complement(cone)
    assert complement.contains_unit_batch(np.stack(pts), tol=-1e-6).tolist() == [
        True, True, False]
    # the free minimizer y lies outside K, so it is the complement's answer
    assert complement.lmo(-y).value == -1.0


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_generator_mean_is_numpys_mean_bit_for_bit():
    rng = np.random.default_rng(41)
    for dim in range(1, 7):
        for n in (1, 2, 3, 7, 16, 40):
            cone = make_polycone(rng.standard_normal((n, dim)))
            m = generator_mean(cone)
            assert _same_bits(m, cone.generators.mean(axis=1)), (dim, n)
            assert not m.flags.writeable
            assert generator_mean(cone) is m


def _make_polycone_reference(generators):
    # make_polycone's arithmetic spelled with np.linalg.norm and the dedupe
    # run on every ray count, one ray included
    G = np.asarray(generators, dtype=float)
    G = G[None, :] if G.ndim == 1 else G
    norms = np.linalg.norm(G, axis=1)
    scale = np.where(np.abs(norms - 1.0) <= 8 * np.finfo(float).eps, 1.0, norms)
    return np.ascontiguousarray(_first_distinct(G / scale[:, None], DEDUP_COS).T)


def test_make_polycone_matches_its_reference_bit_for_bit():
    rng = np.random.default_rng(43)
    for dim in range(1, 7):
        for n in (1, 2, 5, 30):
            G = rng.standard_normal((n, dim)) * rng.uniform(1e-3, 1e3, (n, 1))
            unit = G / np.linalg.norm(G, axis=1)[:, None]
            for rays in (G, unit, np.concatenate([unit, unit[:1] * 3.0])):
                cone = make_polycone(rays)
                assert _same_bits(cone.generators, _make_polycone_reference(rays))
                assert cone.generators.flags.c_contiguous
                assert not cone.generators.flags.writeable
    assert _same_bits(make_polycone([3.0, 4.0]).generators, np.array([[0.6], [0.8]]))
    for bad in ([[np.inf, 0.0]], [[np.nan, 1.0]], [[1.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(ZeroGenerator):
            make_polycone(bad)


def _first_distinct_blocked(rows, cos):
    """Reference: the blocked loop of ``_first_distinct``, which always
    returns the copy ``rows[keep]``."""
    keep = np.ones(len(rows), dtype=bool)
    for lo in range(0, len(rows), BLOCK):
        near = rows[lo:lo + BLOCK] @ rows[:lo + BLOCK].T >= cos
        m = len(near)
        near[:, lo:] &= np.tri(BLOCK, k=-1, dtype=bool)[:m, :m]
        for i in np.flatnonzero(near.any(axis=1)):
            keep[lo + i] = not (near[i] & keep[:lo + m]).any()
    return rows[keep]


def test_first_distinct_matches_the_blocked_loop():
    rng = np.random.default_rng(17)
    for dim in (2, 3, 6):
        for n in (1, 2, 5, 40, BLOCK):
            rows = rng.standard_normal((n, dim))
            rows /= np.linalg.norm(rows, axis=1)[:, None]
            for cos in (DEDUP_COS, FACET_DEDUP_COS):
                # no near pair: the rows come back as they are
                assert _first_distinct(rows, cos) is rows
                assert _same_bits(_first_distinct_blocked(rows, cos), rows)
                if n < 2:
                    continue
                # planted copies of earlier rows: exact, 1e-5 rad off (near at
                # the facet cosine only) and 1e-3 rad off (near at neither)
                planted = rows.copy()
                pairs = np.sort(rng.choice(n, size=(3, 2), replace=False)) if n > 5 else [(0, 1)]
                for (k, j), tilt in zip(pairs, (0.0, 1e-5, 1e-3)):
                    p = rng.standard_normal(dim)
                    p -= (p @ rows[k]) * rows[k]
                    planted[j] = math.cos(tilt) * rows[k] + math.sin(tilt) * p / np.linalg.norm(p)
                got, ref = _first_distinct(planted, cos), _first_distinct_blocked(planted, cos)
                assert _same_bits(got, ref), (dim, n, cos)
                assert len(got) < n
    # over BLOCK rows, near pairs across blocks included
    rows = rng.standard_normal((BLOCK + 50, 3))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows[BLOCK + 10] = rows[3]
    got = _first_distinct(rows, DEDUP_COS)
    assert len(got) == BLOCK + 49
    assert _same_bits(got, _first_distinct_blocked(rows, DEDUP_COS))


def _contains_batch_span_path(cone, X, tol):
    """Reference: ``contains_batch`` through the span basis, as it runs on
    a cone that is not solid, here with B the identity."""
    B, N = _inspan_hrep(cone)
    coords = X @ B
    resid = np.linalg.norm(X - coords @ B.T, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
    return ((resid <= tol * scale)
            & ((coords @ N.T).min(axis=1, initial=np.inf) >= -tol * scale))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_solid_contains_batch_matches_the_span_path(dim):
    rng = np.random.default_rng(23 + dim)
    cone = (make_polycone([[1.0]]) if dim == 1
            else random_pointed_cone(rng, dim, n_rays=dim + 2))
    B, N = _inspan_hrep(cone)
    assert np.array_equal(B, np.eye(dim))
    G = cone.generators.T
    X = np.concatenate([
        rng.standard_normal((200, dim)),  # mostly outside
        rng.dirichlet(np.ones(len(G)), 20) @ G,  # inside
        G, G[:1] + G[-1:], -G,  # generators and a sum of two lie on facets
        G + 1e-10 * rng.standard_normal(G.shape),
        1e200 * G[:1], -1e200 * G[:1],
        np.full((1, dim), np.nan), np.full((1, dim), np.inf),
        np.full((1, dim), -np.inf), np.pad([[np.nan]], ((0, 0), (0, dim - 1))),
        np.pad([[np.inf]], ((0, 0), (dim - 1, 0))),
    ])
    with np.errstate(invalid="ignore", over="ignore"):
        for tol in (0.0, MEMBERSHIP_TOL, 1e-3):
            got = contains_batch(cone, X, tol)
            assert np.array_equal(got, _contains_batch_span_path(cone, X, tol)), tol
            assert got.any() and not got.all()
            assert not got[-5:].any()


def test_make_polycone_scales_rays_whose_squared_norm_leaves_the_float_range():
    # (1e200)^2 overflows and (1e-200)^2 underflows: each such row is
    # divided by its largest entry first, and every other row keeps the
    # bits of np.linalg.norm's arithmetic
    ok = np.array([[3.0, 4.0], [0.0, 1.0]])
    for big in (1e200, 1e-200, 1e308, 5e-324):
        cone = make_polycone([[big, 0.0], [0.0, 1.0]])
        assert _same_bits(cone.generators, np.eye(2))
        cone = make_polycone(np.vstack([[big, big], ok]))
        assert _same_bits(cone.generators.T[0], make_polycone([[1.0, 1.0]]).generators[:, 0])
        assert _same_bits(cone.generators.T[1:], _make_polycone_reference(ok).T)
    # a squared norm of 1e-319 is subnormal, with 4 digits left: the row
    # would come out 1e-4 off unit length
    tiny = make_polycone([[1e-160, 3e-160, 0.0]]).generators[:, 0]
    assert abs(np.linalg.norm(tiny) - 1.0) <= 4 * np.finfo(float).eps
    assert np.allclose(tiny, np.array([1.0, 3.0, 0.0]) / math.sqrt(10.0), rtol=1e-15, atol=0)
    with np.errstate(over="raise"):
        make_polycone([[1e200, -1e200, 1.0]])
    for bad in ([[0.0, 0.0]], [[1e200, 0.0], [0.0, 0.0]], [[np.inf, 1e200]]):
        with pytest.raises(ZeroGenerator):
            make_polycone(bad)
