import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesep.errors import NotConvex, NotSolid, ZeroDirection
from conesep.geometry import make_polycone, cone_membership
from conesep.kernels import project_onto_cone
from conesep.oracle import random_region, sample_norm_base
from conesep.regions import (
    ConeRegion,
    body,
    lmo_norm_base,
    support_norm_base,
)

ORTHANT = make_polycone([[1.0, 0.0], [0.0, 1.0]])


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
