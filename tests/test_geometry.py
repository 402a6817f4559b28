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
    ZeroGenerator,
)
from conesep.geometry import (
    FACET_CHUNK,
    FACET_TOL,
    RANK_REL,
    Norm,
    _enumerate_facet_normals,
    _inspan_hrep,
    cone_membership,
    contains_batch,
    dual_norm,
    facet_normals,
    facets,
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


def test_make_polycone_dedups_parallel_rays():
    cone = make_polycone([[1.0, 0.0], [3.0, 0.0]])
    assert cone.generators.shape == (2, 1)


def test_make_polycone_accepts_consistent_facets():
    cone = make_polycone([[1.0, 0.0], [0.0, 1.0]], facets=[[1.0, 0.0], [0.0, 1.0]])
    assert cone.facet_normals is not None
    assert cone.facet_normals.shape == (2, 2)


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


def test_solidity_examples():
    assert solidity(make_polycone([[1.0, 0.0], [0.0, 1.0]]))
    assert not solidity(make_polycone([[1.0, 0.0]]))
    assert solidity(make_polycone([[1, 0, 0], [0, 1, 0], [1, 1, 1]]))


def test_whole_space_detection():
    assert is_whole_space(make_polycone([[1, 0], [-1, 0], [0, 1], [0, -1]]))
    assert not is_whole_space(make_polycone([[1, 0], [-1, 0], [0, 1]]))


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
    """Reference: one SVD per (d-1)-subset, the loop that the chunked
    enumeration replaced, kept here to pin its output bit for bit."""
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
    return cases


def test_chunked_enumeration_matches_per_subset_loop():
    for points in _enumeration_cases():
        got = _enumerate_facet_normals(points)
        ref = _facet_normals_per_subset(points)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_inspan_hrep_matches_per_subset_loop():
    # cone_about in R^4 spans only 3 dimensions
    cone = cone_about([1.0, 2.0, 3.0, 4.0], 30.0, 10)
    assert not solidity(cone)
    B, N = _inspan_hrep(cone)
    ref = _facet_normals_per_subset(B.T @ cone.generators)
    assert B.shape == (4, 3)
    assert np.array_equal(N, np.stack(ref))


def test_enumeration_takes_one_svd_per_chunk(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    normals = _enumerate_facet_normals(_cap_cone_48().generators)
    assert normals
    subsets = math.comb(48, 3)
    assert len(calls) <= math.ceil(subsets / FACET_CHUNK)
    assert len(calls) <= subsets // 100


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
    for cone in (cone_about([1.0, -2.0, 0.5], 25.0, 9), _cap_cone_48(),
                 make_polycone(np.eye(2), facets=np.eye(2))):
        B, N = _inspan_hrep(cone)
        assert N is facet_normals(cone)
        assert np.array_equal(B, np.eye(cone.dim))


def _orthant_points(rng, d, n):
    # random directions, then points within 1e-6 of a facet on either side
    X = rng.standard_normal((n, d))
    near = np.abs(rng.standard_normal((n, d)))
    near[np.arange(n), rng.integers(0, d, n)] = rng.uniform(-1e-6, 1e-6, n)
    return np.concatenate([X, near])


def test_supplied_facets_decide_batch_membership_above_the_cap(monkeypatch):
    cone = make_polycone(np.eye(5), facets=np.eye(5))
    X = _orthant_points(np.random.default_rng(3), 5, 200)
    by_nnls = np.array([cone_membership(x, cone) for x in X])
    assert 0 < by_nnls[200:].sum() < 200
    calls = _counting(monkeypatch, kernels, "nnls")
    assert np.array_equal(contains_batch(cone, X), by_nnls)
    assert not calls


def test_facet_cap_is_on_the_span_dimension():
    # above the cap: no normals, NNLS membership, DimensionTooHigh
    orthant = make_polycone(np.eye(5))
    assert _inspan_hrep(orthant)[1] is None
    with pytest.raises(DimensionTooHigh):
        facet_normals(orthant)
    X = _orthant_points(np.random.default_rng(4), 5, 20)
    assert np.array_equal(contains_batch(orthant, X),
                          [cone_membership(x, orthant) for x in X])
    # a 4-D orthant inside R^5 spans 4 dimensions and is enumerated there
    flat = make_polycone(np.eye(5)[:4])
    B, N = _inspan_hrep(flat)
    assert B.shape == (5, 4) and N.shape == (4, 4)
    # a cone that fills its span has no normal rows
    plane = make_polycone([[1, 0, 0], [0, 1, 0], [-1, -1, 0]])
    assert _inspan_hrep(plane)[1].shape == (0, 2)
    assert contains_batch(plane, [[3.0, -2.0, 0.0], [0.0, 0.0, 1.0]]).tolist() == [
        True, False]
