import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesep.basis import interpolate, verify_interpolation
from conesep.errors import DimensionMismatch
from conesep.geometry import _span_basis, cone_membership_batch, make_polycone
from conesep.oracle import (
    _dedupe_rows,
    _piece_count_cloud,
    _rank_at_most_one,
    _thin_indices,
    cone_about,
    covering_bound,
    oracle_separation,
    oracle_support,
    random_pointed_cone,
    random_region,
    random_unit,
    ray_region,
    sample_norm_base,
    sector_cone_2d,
    union_of_rays,
)
from conesep.regions import ConeRegion
from conesep.separation import (
    Membership,
    bishop_phelps,
    bp_boundary_rays_2d,
    bp_membership,
    separate_nonsym,
    verify_certificate,
)

ORTHANT_REGION = ConeRegion.piece(make_polycone([[1.0, 0.0], [0.0, 1.0]]))


def test_ray_base_is_single_point():
    cloud = sample_norm_base(ray_region([0.0, 2.0]), resolution=5.0)
    assert cloud.points.shape == (1, 2)
    assert np.allclose(cloud.points[0], [0.0, 1.0])


def test_orthant_arc_count_at_one_degree():
    cloud = sample_norm_base(ORTHANT_REGION, resolution=1.0)
    assert len(cloud.points) == 91


def test_complement_arc_count_at_one_degree():
    region = ConeRegion.complement(make_polycone([[1.0, 0.0], [0.0, 1.0]]))
    cloud = sample_norm_base(region, resolution=1.0)
    assert len(cloud.points) == 271


def test_cloud_points_lie_on_base():
    rng = np.random.default_rng(7)
    for _ in range(10):
        region = random_region(rng, dim=int(rng.integers(2, 4)))
        cloud = sample_norm_base(region, resolution=2.0)
        norms = np.linalg.norm(cloud.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)
        assert region.contains_unit_batch(cloud.points, tol=1e-8).all()


def test_count_mode_reaches_target():
    cloud = sample_norm_base(ORTHANT_REGION, count=500)
    assert len(cloud.points) == 500
    region3 = ConeRegion.piece(cone_about([0.0, 0.0, 1.0], 30.0))
    cloud3 = sample_norm_base(region3, count=400)
    assert len(cloud3.points) == 400


def test_count_cloud_points_stay_in_their_cones():
    # the count= sampler keeps its normalized convex combinations without a
    # membership filter; none may leave its piece by more than
    # MEMBERSHIP_TOL (what cone_membership_batch decides)
    rng = np.random.default_rng(17)
    for dim in (2, 3, 4, 6):
        for _ in range(6):
            cone = random_pointed_cone(rng, dim, n_rays=int(rng.integers(1, 9)))
            pts = _piece_count_cloud(cone, 200, rng)
            assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
            assert cone_membership_batch(pts, cone).all()


def test_dedupe_rows_matches_unique_rows():
    # -0.0 and 0.0 are one row, as they are to np.unique(..., axis=0)
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [-1e-12, 1.0], [1.0, 0.0],
                  [0.0, 1.0 + 4e-10], [1.0, 0.0]])
    assert np.array_equal(_dedupe_rows(X), X[[0, 3]])
    rng = np.random.default_rng(3)
    Y = np.round(rng.standard_normal((500, 3)), 1)
    assert (np.signbit(Y) & (Y == 0.0)).any()
    _, idx = np.unique(np.round(Y, 9), axis=0, return_index=True)
    assert np.array_equal(_dedupe_rows(Y), Y[np.sort(idx)])


def test_sample_requires_exactly_one_mode():
    with pytest.raises(ValueError):
        sample_norm_base(ORTHANT_REGION)
    with pytest.raises(ValueError):
        sample_norm_base(ORTHANT_REGION, resolution=1.0, count=10)


def _void_dedupe_rows(X):
    # the void-view path alone: the reference for the sorted-pass fast path
    R = np.ascontiguousarray(np.round(X, 9) + 0.0)
    rows = R.view(np.dtype((np.void, R.itemsize * R.shape[1]))).ravel()
    _, idx = np.unique(rows, return_index=True)
    return X[np.sort(idx)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_dedupe_rows_matches_the_void_view_bit_for_bit():
    rng = np.random.default_rng(29)
    distinct = rng.standard_normal((1003, 3))
    tied = distinct.copy()
    tied[:, 0] = np.round(tied[:, 0], 1)  # ties in column 0, rows distinct
    repeated = np.concatenate([distinct[:40], distinct[:40] + 1e-12, distinct[5:9]])
    cases = {
        "no ties": distinct,
        "ties in column 0": tied,
        "rows equal after rounding": repeated,
        "signed zeros in column 0, distinct rows": np.array(
            [[0.0, 1.0], [-0.0, 2.0], [1.0, 0.0]]),
        "signed zeros in column 0, one row": np.array(
            [[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
        "signed zeros in a later column, distinct rows": np.array(
            [[1.0, -0.0, 0.5], [2.0, 0.0, 0.5]]),
        "signed zeros in a later column, one row": np.array(
            [[1.0, -0.0, 0.5], [1.0, 0.0, 0.5], [2.0, 0.0, 0.5]]),
        "nan in column 0": np.array([[np.nan, 1.0], [np.nan, 1.0], [0.0, 1.0]]),
        "0 rows": np.empty((0, 3)),
        "1 row": distinct[:1].copy(),
        "1 column": np.round(rng.standard_normal((50, 1)), 1),
        "1 column, distinct": rng.standard_normal((50, 1)),
    }
    for name, X in cases.items():
        assert _same_bits(_dedupe_rows(X), _void_dedupe_rows(X)), name
    # the sorted pass settles a cloud with a tie-free first column alone
    assert _dedupe_rows(distinct) is distinct
    assert len(_dedupe_rows(repeated)) == 40


def test_thinning_keeps_the_indices_of_np_unique():
    for count in range(1, 400):
        top = 3 * count + 2
        lengths = range(count + 1, top + 1)
        # column k: np.linspace(0, n - 1, count) rounded, for n = lengths[k]
        spaced = np.linspace(0, np.array(lengths) - 1, count).round().astype(int)
        # no column decreases, so np.unique of one keeps exactly its entries
        # unequal to the entry before
        assert (np.diff(spaced, axis=0) >= 0).all(), count
        # every length at once: column k shifted into [k * top, (k + 1) * top)
        flat = (spaced + top * np.arange(len(lengths))).T.ravel()
        first = np.ones(len(flat), dtype=bool)
        first[1:] = flat[1:] != flat[:-1]
        ours = np.concatenate([_thin_indices(n, count) + k * top
                               for k, n in enumerate(lengths)])
        assert np.array_equal(ours, flat[first]), count
        for n in (count + 1, 2 * count + 1, top):
            ref = np.unique(np.linspace(0, n - 1, count).round().astype(int))
            assert _same_bits(_thin_indices(n, count), ref), (count, n)


def test_thin_indices_are_cached_read_only():
    idx = _thin_indices(1003, 1000)
    assert not idx.flags.writeable
    assert _thin_indices(1003, 1000) is idx
    with pytest.raises(ValueError):
        idx[0] = 1


def _masked_count_cloud(cone, per, rng):
    # _piece_count_cloud with the mask on every call: the reference for its
    # unmasked division
    gens = cone.generators.T
    if len(gens) == 1:
        return gens.copy()
    pts = rng.dirichlet(np.ones(len(gens)), size=per) @ gens
    nn = np.linalg.norm(pts, axis=1)
    keep = nn > 1e-9
    return np.concatenate([pts[keep] / nn[keep, None], gens], axis=0)


def test_piece_count_cloud_matches_the_masked_division_bit_for_bit():
    rng = np.random.default_rng(53)
    for dim in (2, 3, 4, 6):
        for n_rays in (1, 2, 3, 8):
            cone = random_pointed_cone(rng, dim, n_rays=n_rays)
            seed = int(rng.integers(2**32))
            ours = _piece_count_cloud(cone, 300, np.random.default_rng(seed))
            ref = _masked_count_cloud(cone, 300, np.random.default_rng(seed))
            assert _same_bits(ours, ref), (dim, n_rays)


class _FixedWeights:
    """A generator stand-in whose dirichlet draws are given rows."""

    def __init__(self, W):
        self.W = np.asarray(W, dtype=float)

    def dirichlet(self, alpha, size):
        return self.W[:size]


def test_piece_count_cloud_drops_cancelled_combinations_of_a_line():
    g = np.array([0.6, 0.8])
    line = make_polycone([g, -g])
    W = [[0.5, 0.5], [0.75, 0.25], [0.5 + 1e-12, 0.5 - 1e-12], [0.1, 0.9]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pts = _piece_count_cloud(line, 4, _FixedWeights(W))
        ref = _masked_count_cloud(line, 4, _FixedWeights(W))
    assert _same_bits(pts, ref)
    # the two near-zero combinations are gone; the others are unit
    assert len(pts) == 2 + 2
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def _old_rank_rule(region):
    # sample_norm_base's rank test as it was: every piece's span dimension
    # from the SVD, the ambient dimension for a leaf without pieces
    return max(max((_span_basis(p).shape[1] for p in leaf.pieces), default=leaf.dim)
               for leaf in region.leaves) <= 1


def _rotate(v, angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1], *v[2:]])


def test_rank_shortcut_matches_the_span_basis():
    rng = np.random.default_rng(59)
    pieces = []
    for dim in (1, 2, 3, 4, 6):
        for n in (1, 2, 3, 5):
            pieces.append(rng.standard_normal((n, dim)))
    for angle in np.logspace(-12, -1, 34):
        for dim in (2, 3, 5):
            g = np.zeros(dim)
            g[0] = 1.0
            # two rays angle off antipodal, and two angle apart
            pieces.append([g, -_rotate(g, angle)])
            pieces.append([g, _rotate(g, max(angle, 2e-6))])
        if angle <= 1e-3:
            # three rays within 1e-3 rad of one another take the SVD
            g = np.array([1.0, 0.0, 0.0])
            pieces.append([g, _rotate(g, angle), [np.cos(angle), 0.0, np.sin(angle)]])
    pieces.append([[1.0, 0.0], [-1.0, 0.0]])  # a 2-D line
    shortcuts = svds = 0
    for rays in pieces:
        cone = make_polycone(rays)
        assert _rank_at_most_one(ConeRegion.piece(cone)) == _old_rank_rule(
            ConeRegion.piece(make_polycone(rays))), rays
        # no SVD where one ray, or the first two, settle the rank
        G = cone.generators
        settled = G.shape[1] == 1 or abs(G[:, 0] @ G[:, 1]) <= 1.0 - 1e-6
        assert ("span" in cone._cache) != settled, rays
        shortcuts += bool(settled) and G.shape[1] > 1
        svds += not settled
    assert shortcuts >= 40 and svds >= 40, (shortcuts, svds)
    # leaves without pieces: the complement of a ray has rank 1 in R^1
    for rays in ([[1.0]], [[1.0, 0.0], [0.0, 1.0]]):
        region = ConeRegion.complement(make_polycone(rays))
        assert _rank_at_most_one(region) == _old_rank_rule(region)
    union = random_region(rng, 3)
    assert _rank_at_most_one(union) == _old_rank_rule(union)


def test_sampler_rejects_bad_count_and_resolution():
    for count in (0, -3, 2.5, "10"):
        with pytest.raises(ValueError, match="count="):
            sample_norm_base(ORTHANT_REGION, count=count)
    for resolution in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="resolution="):
            sample_norm_base(ORTHANT_REGION, resolution=resolution)
    # a cloud of rays ignores count= but still checks it
    with pytest.raises(ValueError, match="count="):
        sample_norm_base(ray_region([0.0, 1.0]), count=0)
    assert len(sample_norm_base(ORTHANT_REGION, count=np.int64(1)).points) == 1


def test_verifiers_reject_count_zero():
    C, K = ray_region([1.0, 1.0]), union_of_rays([[1.0, -1.0], [-1.0, 1.0]])
    cert = separate_nonsym(C, K)
    assert cert is not None
    with pytest.raises(ValueError, match="count="):
        verify_certificate(cert, C, K, count=0)
    wedge = make_polycone([[-1.0, 1.0], [1.0, 1.0]])
    half_plane = make_polycone([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    gamma = interpolate(wedge, half_plane)
    assert gamma is not None
    with pytest.raises(ValueError, match="count="):
        verify_interpolation(gamma, wedge, half_plane, count=0)


def test_support_orthant_diagonal_quarter_degree():
    res = oracle_support(ORTHANT_REGION, [1.0, 1.0], resolution=0.25)
    assert res.minimum == pytest.approx(1.0, abs=1e-4)
    assert res.maximum == pytest.approx(np.sqrt(2.0), abs=1e-4)


def test_support_boundary_rays_closed_form():
    # boundary rays of the cone {x : <(1,1),x> >= |x|} are the two axes, so
    # the sampled max of x+y over that boundary base is exactly 1
    rays = bp_boundary_rays_2d(np.array([1.0, 1.0]), 1.0)
    region = union_of_rays(rays)
    res = oracle_support(region, [1.0, 1.0], resolution=30.0)
    assert res.maximum == pytest.approx(1.0, abs=1e-12)


def test_separation_ray_pair():
    res = oracle_separation(ray_region([0.0, 1.0]), ray_region([1.0, 0.0]))
    assert res.separated
    assert res.direction @ np.array([0.0, 1.0]) > 0.99


def test_separation_identical_cones_negative():
    res = oracle_separation(ORTHANT_REGION, ORTHANT_REGION)
    assert not res.separated


def test_separation_axis_pair_union_from_cone_negative():
    # mirrored pattern: the axis-pair union cannot be strictly enclosed
    C = union_of_rays([[1.0, 0.0], [-1.0, 0.0]])
    K = ConeRegion.piece(sector_cone_2d(90.0, 10.0))
    res = oracle_separation(C, K)
    assert not res.separated


def test_oracle_agrees_with_engine_verdicts():
    rng = np.random.default_rng(13)
    agreed = checked = 0
    while checked < 20:
        dim = int(rng.integers(2, 4))
        C = random_region(rng, dim)
        K = random_region(rng, dim)
        res = oracle_separation(C, K, resolution=0.5)
        try:
            cert = separate_nonsym(C, K)
        except Exception:
            continue
        margin = res.margin if res.separated else None
        bound = covering_bound(dim, 0.5 if dim == 2 else 1.0)
        if cert is not None and cert.distance <= 3 * bound:
            continue  # below the oracle's resolving power
        checked += 1
        agreed += (cert is not None) == res.separated
    assert agreed == checked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_relative_position_dichotomy(seed):
    # whenever alpha is below the least value of x* on the boundary base,
    # either every cone sample is inside the norm-linear cone or every
    # sample outside the cone's interior is
    rng = np.random.default_rng(seed)
    cone = sector_cone_2d(
        float(rng.uniform(0.0, 360.0)), float(rng.uniform(15.0, 80.0))
    )
    region = ConeRegion.piece(cone)
    x_star = rng.standard_normal(2)
    if np.linalg.norm(x_star) < 1e-6:
        return
    boundary = ConeRegion.boundary(cone)
    floor = boundary.lmo(x_star).value
    n = float(np.linalg.norm(x_star))
    alpha = floor - float(rng.uniform(0.05, 1.0)) * n
    # keep the violating arc wide enough for the 2 degree sampling to see it
    if alpha <= -0.9 * n or alpha >= floor - 0.02 * n:
        return
    bp = bishop_phelps(x_star, alpha)
    inside = sample_norm_base(region, resolution=2.0).points
    comp = sample_norm_base(
        ConeRegion.complement(cone), resolution=2.0
    ).points
    def member(p):
        return bp_membership(bp, p) is not Membership.EXTERIOR
    all_cone_in = all(member(p) for p in inside)
    all_comp_in = all(member(p) for p in comp)
    assert all_cone_in != all_comp_in


def test_covering_bound_values():
    assert covering_bound(2, 1.0) == pytest.approx(
        2 * np.sin(np.radians(1.0) / 2), abs=1e-12
    )
    assert covering_bound(3, 1.0) == pytest.approx(
        2 * np.sin(np.radians(2.0) / 2), abs=1e-12
    )
    assert covering_bound(2, 1.0, 3.0) == pytest.approx(
        3 * covering_bound(2, 1.0), abs=1e-12
    )
    with pytest.raises(DimensionMismatch):
        covering_bound(4, 1.0)


def test_resolution_refines_cloud():
    coarse = sample_norm_base(ORTHANT_REGION, resolution=10.0)
    fine = sample_norm_base(ORTHANT_REGION, resolution=1.0)
    assert len(fine.points) > len(coarse.points)


@pytest.mark.parametrize("cap", [0.1, 35.0, 60.0])
def test_random_pointed_cone_rays_lie_within_the_blend_bound(cap):
    # unit(t axis + (1 - t) v) with v in the axis's hemisphere turns at most
    # atan((1 - t) / t) from the axis: far less than the cap for small caps
    t = math.cos(math.radians(cap))
    bound = math.atan((1.0 - t) / t)
    for dim in range(2, 7):
        for seed in range(20):
            cone = random_pointed_cone(np.random.default_rng(seed), dim,
                                       n_rays=8, cap_half_angle_deg=cap)
            axis = random_unit(np.random.default_rng(seed), dim)
            G = cone.generators.T
            along = G @ axis
            across = np.linalg.norm(G - np.outer(along, axis), axis=1)
            # atan2 keeps its accuracy at angles of 1e-6 rad, where arccos
            # of the cosine loses it
            assert np.arctan2(across, along).max() <= bound + 1e-12
