import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conesep import basis, distance, kernels, separation
from conesep.cli import main
from conesep.distance import DEAD_BAND, DEFAULT_TOL, body_distance, decide_gap
from conesep.errors import (
    DegenerateCone,
    DimensionNot2D,
    DimensionTooHigh,
    Inconclusive,
    NotConvex,
    TrivialRegion,
)
from conesep.geometry import make_polycone, strictly_interior
from conesep.instances import jsonable, load_instance
from conesep.oracle import (
    cone_about,
    oracle_separation,
    random_pointed_cone,
    random_region,
    ray_region,
    sector_cone_2d,
    union_of_rays,
)
from conesep.regions import ConeRegion, body, lmo_norm_base, support_norm_base
from conesep.separation import (
    Membership,
    NormLinearFunctional,
    Orientation,
    augmented_dual_membership,
    bishop_phelps,
    boundary_equivalence_report,
    boundary_forms,
    bp_boundary_rays_2d,
    bp_family_flags,
    bp_membership,
    cones_meet_only_at_origin,
    eval_norm_linear,
    separate_convex_bidirectional,
    separate_nonsym,
    separate_sym,
    verify_certificate,
)

ORTHANT = ConeRegion.piece(make_polycone([[1.0, 0.0], [0.0, 1.0]]))
NARROW_SECTOR = ConeRegion.piece(sector_cone_2d(90.0, 10.0))
LINE_PAIR = union_of_rays([[1.0, 0.0], [-1.0, 0.0]])


def test_eval_norm_linear_examples():
    f = NormLinearFunctional(np.array([0.0, 1.0]), 0.5)
    assert eval_norm_linear(f, [3.0, 4.0]) == pytest.approx(6.5, abs=1e-12)
    assert eval_norm_linear(f, [0.0, 0.0]) == 0.0
    g = NormLinearFunctional(np.array([1.0, 0.0]), -1.0)
    assert eval_norm_linear(g, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_bp_membership_examples():
    bp = bishop_phelps([0.0, 1.0], 0.5)
    assert bp_membership(bp, [0.0, 1.0]) is Membership.INTERIOR
    assert bp_membership(bp, [1.0, 0.0]) is Membership.EXTERIOR
    edge = bishop_phelps([1.0, 1.0], 1.0)
    assert bp_membership(edge, [1.0, 0.0]) is Membership.BOUNDARY


def test_bp_membership_rejects_degenerate():
    with pytest.raises(DegenerateCone):
        bp_membership(bishop_phelps([1.0, 0.0], 2.0), [1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_membership_partition_and_scaling(seed):
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(2)
    n = float(np.linalg.norm(x_star))
    if n < 1e-6:
        return
    alpha = float(rng.uniform(-0.95, 0.95)) * n
    bp = bishop_phelps(x_star, alpha)
    for _ in range(200):
        x = rng.standard_normal(2) * rng.uniform(0.0, 10.0)
        m = bp_membership(bp, x)
        assert m in (Membership.INTERIOR, Membership.BOUNDARY, Membership.EXTERIOR)
        if m is not Membership.BOUNDARY and np.linalg.norm(x) > 1e-6:
            t = float(rng.uniform(0.5, 20.0))
            assert bp_membership(bp, t * x) is m


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_membership_matches_norm_linear_sign(seed):
    # x lies in C(x*, a) exactly when -x*(x) + a|x| <= 0
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(2)
    n = float(np.linalg.norm(x_star))
    if n < 1e-6:
        return
    alpha = float(rng.uniform(-0.9, 0.9)) * n
    bp = bishop_phelps(x_star, alpha)
    flipped = NormLinearFunctional(-x_star, alpha)
    for _ in range(100):
        x = rng.standard_normal(2)
        m = bp_membership(bp, x)
        phi = eval_norm_linear(flipped, x)
        if m is Membership.EXTERIOR:
            assert phi > 0
        elif m is Membership.INTERIOR:
            assert phi < 0


def test_degenerate_thresholds():
    rng = np.random.default_rng(3)
    x_star = np.array([0.3, -0.4])
    wide = NormLinearFunctional(x_star, -0.6)   # alpha <= -|x*|: whole space
    tight = NormLinearFunctional(x_star, 0.6)   # alpha >= |x*|: trivial
    assert wide.is_whole_space and not wide.is_trivial_cone
    assert tight.is_trivial_cone and not tight.is_whole_space
    for _ in range(100):
        x = rng.standard_normal(2)
        assert x_star @ x + 0.6 * np.linalg.norm(x) >= 0  # always a member
        if np.linalg.norm(x) > 1e-6:
            assert x_star @ x - 0.6 * np.linalg.norm(x) < 0  # never a member


def test_boundary_rays_2d_closed_form():
    rays = bp_boundary_rays_2d(np.array([0.0, 2.0]), 1.0)
    expected = {(np.cos(np.radians(150)), np.sin(np.radians(150))),
                (np.cos(np.radians(30)), np.sin(np.radians(30)))}
    got = {tuple(np.round(r, 9)) for r in rays}
    assert got == {tuple(np.round(e, 9)) for e in expected}


def test_augmented_dual_orthant_diagonal():
    flags = augmented_dual_membership(ORTHANT, np.array([1.0, 1.0]), 1.0)
    assert flags["a_plus"]
    assert not flags["a_sharp"]
    assert not flags["aw_sharp"]
    assert not flags["cor_a_plus"]
    lower = augmented_dual_membership(ORTHANT, np.array([1.0, 1.0]), 0.9)
    assert lower["a_plus"] and lower["a_sharp"] and lower["cor_a_plus"]


def test_augmented_dual_ray_all_true():
    flags = augmented_dual_membership(
        ray_region([0.0, 1.0]), np.array([0.0, 1.0]), 0.5
    )
    assert all(flags.values())


def test_augmented_dual_negative_alpha_all_false():
    flags = augmented_dual_membership(ORTHANT, np.array([1.0, 1.0]), -0.5)
    assert not any(flags.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sup_alpha_on_boundary_rays(seed):
    # the support of xi*x* over the boundary base of C(x*, a) equals |a|
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(2)
    n = float(np.linalg.norm(x_star))
    if n < 1e-3:
        return
    alpha = float(rng.uniform(-0.95, 0.95)) * n
    rays = bp_boundary_rays_2d(x_star, alpha)
    region = union_of_rays(rays)
    xi = 1.0 if alpha >= 0 else -1.0
    sup = support_norm_base(region, xi * x_star).value
    assert sup == pytest.approx(abs(alpha), abs=1e-8)


def test_separate_rays_exact_certificate():
    cert = separate_nonsym(ray_region([0.0, 1.0]), ray_region([1.0, 0.0]))
    assert cert is not None
    assert cert.orientation is Orientation.C_FROM_K
    assert np.allclose(cert.x_star, [0.0, 1.0], atol=1e-9)
    assert cert.alpha == pytest.approx(0.5, abs=1e-9)
    assert cert.alpha_interval[0] == pytest.approx(0.0, abs=1e-9)
    assert cert.alpha_interval[1] == pytest.approx(1.0, abs=1e-9)
    assert cert.distance == pytest.approx(1.0, abs=1e-9)
    assert cert.family == frozenset({"BP", "a_sharp", "aw_sharp", "cor_a_plus"})


def test_one_sided_pattern_sector_vs_line_pair():
    assert separate_nonsym(NARROW_SECTOR, LINE_PAIR) is not None
    assert separate_nonsym(LINE_PAIR, NARROW_SECTOR) is None


def test_one_sided_interval_endpoint():
    cert = separate_nonsym(NARROW_SECTOR, LINE_PAIR)
    assert cert.alpha_interval[1] == pytest.approx(
        np.cos(np.radians(10.0)), abs=1e-9
    )
    assert cert.alpha_interval[0] == pytest.approx(0.0, abs=1e-9)


def test_separate_identical_cones_absent():
    assert separate_nonsym(ORTHANT, ORTHANT) is None


def test_separate_rejects_whole_space_piece():
    whole = ConeRegion.piece(make_polycone([[1, 0], [-1, 0], [0, 1], [0, -1]]))
    with pytest.raises(TrivialRegion):
        separate_nonsym(whole, ORTHANT)


def test_sym_orientations():
    cert = separate_sym(NARROW_SECTOR, LINE_PAIR)
    assert cert is not None and cert.orientation is Orientation.C_FROM_K
    mirrored = separate_sym(LINE_PAIR, NARROW_SECTOR)
    assert mirrored is not None and mirrored.orientation is Orientation.K_FROM_C
    assert separate_sym(ORTHANT, ORTHANT) is None


def test_bidirectional_antipodal():
    C = ConeRegion.piece(sector_cone_2d(90.0, 10.0))
    K = ConeRegion.piece(sector_cone_2d(-90.0, 10.0))
    res = separate_convex_bidirectional(C, K)
    assert res.cfromk is not None and res.kfromc is not None
    assert res.linear is not None
    assert abs(res.linear @ np.array([0.0, 1.0])) > 0.999999


def test_bidirectional_orthant_vs_ray():
    res = separate_convex_bidirectional(ORTHANT, ray_region([-1.0, 1.0]))
    assert res.cfromk is not None and res.kfromc is not None
    assert np.allclose(
        np.abs(res.linear),
        [np.cos(np.radians(22.5)), np.sin(np.radians(22.5))],
        atol=1e-6,
    )


def test_bidirectional_half_plane_one_sided():
    half = ConeRegion.piece(make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    res = separate_convex_bidirectional(half, ray_region([0.0, -1.0]))
    assert res.cfromk is None
    assert res.kfromc is not None
    assert res.linear is None


def test_bidirectional_decides_a_union_distance_in_the_dead_band():
    # two rays 1.5e-8 rad apart: both one-sided gaps are certified past
    # DEAD_BAND * tol, and the union solve's distance lies in the dead band
    C = ray_region([1.0, 0.0])
    K = ray_region([math.cos(1.5e-8), math.sin(1.5e-8)])
    union = distance.PolytopeBody(np.concatenate(
        [C.single_cone().generators, -K.single_cone().generators], axis=1).T)
    res = body_distance(distance.origin_body(2), union)
    assert res.certified and DEFAULT_TOL < res.distance <= DEAD_BAND * DEFAULT_TOL
    out = separate_convex_bidirectional(C, K)
    assert out.cfromk is not None and out.kfromc is not None
    v = out.linear
    assert v is not None
    assert -K.lmo(-v).value < 0.0 < C.lmo(v).value


def test_bidirectional_uncertified_union_solve_is_structural(monkeypatch):
    real = separation.body_distance

    def solve(*args, until_decided=False, **kwargs):
        res = real(*args, until_decided=until_decided, **kwargs)
        return res if until_decided else dataclasses.replace(res, certified=False)

    monkeypatch.setattr(separation, "body_distance", solve)
    with pytest.raises(Inconclusive, match="^linear separator distance was not "
                       "certified positive") as exc:
        separate_convex_bidirectional(ORTHANT, ray_region([-1.0, -1.0]))
    assert exc.value.dead_band is False


def test_bidirectional_requires_convex_inputs():
    with pytest.raises(NotConvex):
        separate_convex_bidirectional(LINE_PAIR, ORTHANT)


def test_separation_in_3d():
    C = ConeRegion.piece(make_polycone(np.eye(3)))
    K = ray_region([-1.0, -1.0, -1.0])
    cert = separate_nonsym(C, K)
    assert cert is not None
    assert np.allclose(cert.x_star, np.ones(3) / np.sqrt(3), atol=1e-8)
    assert cert.alpha_interval[1] == pytest.approx(1 / np.sqrt(3), abs=1e-9)


def test_certificates_verify_cleanly():
    rng = np.random.default_rng(0)
    for C, K in [
        (ray_region([0.0, 1.0]), ray_region([1.0, 0.0])),
        (NARROW_SECTOR, LINE_PAIR),
        (ConeRegion.piece(make_polycone(np.eye(3))), ray_region([-1.0, -1.0, -1.0])),
    ]:
        cert = separate_nonsym(C, K)
        report = verify_certificate(cert, C, K, count=1000, rng=rng)
        assert report.ok
        assert report.enclosed_violations == 0
        assert report.excluded_violations == 0
        assert report.min_enclosed_margin > 0
        assert report.min_excluded_margin > 0


def test_certificate_functional_separates_supports():
    cert = separate_nonsym(NARROW_SECTOR, LINE_PAIR)
    # the certificate inequality: sup over K's base < alpha < inf over C's base
    hi = max(0.0, support_norm_base(LINE_PAIR, cert.x_star).value)
    lo = NARROW_SECTOR.lmo(cert.x_star).value
    assert hi < cert.alpha < lo


def test_verdicts_scale_invariant():
    scaled_c = ConeRegion.piece(
        make_polycone(7.0 * NARROW_SECTOR.single_cone().generators.T)
    )
    scaled_k = union_of_rays([[3.0, 0.0], [-0.25, 0.0]])
    cert = separate_nonsym(scaled_c, scaled_k)
    base = separate_nonsym(NARROW_SECTOR, LINE_PAIR)
    assert cert is not None
    assert np.allclose(cert.x_star, base.x_star, atol=1e-9)
    assert cert.alpha == pytest.approx(base.alpha, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_membership_invariant_under_functional_scaling(seed):
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(2)
    n = float(np.linalg.norm(x_star))
    if n < 1e-6:
        return
    alpha = float(rng.uniform(-0.9, 0.9)) * n
    t = float(rng.uniform(0.1, 10.0))
    a = bishop_phelps(x_star, alpha)
    b = bishop_phelps(t * x_star, t * alpha)
    for _ in range(50):
        x = rng.standard_normal(2)
        assert bp_membership(a, x) is bp_membership(b, x)


def test_meet_only_at_origin():
    assert cones_meet_only_at_origin(ORTHANT, ray_region([-1.0, 1.0]))
    assert not cones_meet_only_at_origin(ORTHANT, ORTHANT)
    assert not cones_meet_only_at_origin(ORTHANT, ray_region([1.0, 1.0]))


def test_meet_only_at_origin_through_complement_and_boundary_leaves():
    # The intersection test used to pair plain pieces only, so a complement
    # or boundary leaf dropped out and the answer was True.
    C = ConeRegion.piece(sector_cone_2d(0.0, 20.0))
    outside = ConeRegion.complement(sector_cone_2d(180.0, 30.0))
    assert not cones_meet_only_at_origin(C, outside)
    assert not cones_meet_only_at_origin(outside, C)
    assert boundary_equivalence_report(C, outside).consistent
    inside = ConeRegion.piece(sector_cone_2d(180.0, 10.0))
    assert cones_meet_only_at_origin(inside, outside)
    assert cones_meet_only_at_origin(outside, inside)
    straddling = ConeRegion.piece(sector_cone_2d(160.0, 15.0))
    assert not cones_meet_only_at_origin(straddling, outside)
    edges = ConeRegion.boundary(sector_cone_2d(0.0, 10.0))
    assert not cones_meet_only_at_origin(C, edges)
    assert cones_meet_only_at_origin(NARROW_SECTOR, edges)
    # two closed complements always meet beyond the origin in d >= 2
    assert not cones_meet_only_at_origin(outside, outside)


# two non-pointed 3-D wedges: z >= |y| on C and z <= -|x| on K
WEDGE_C = ConeRegion.piece(make_polycone(
    [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]))
WEDGE_K = ConeRegion.piece(make_polycone(
    [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [-1.0, 0.0, -1.0]]))


def test_intersection_of_non_pointed_pieces_is_decided_through_duals():
    assert cones_meet_only_at_origin(WEDGE_C, WEDGE_K)
    assert cones_meet_only_at_origin(WEDGE_K, WEDGE_C)
    # the CLI's check reaches the same test; every form is negative, since
    # each wedge holds a line
    report = boundary_equivalence_report(WEDGE_C, WEDGE_K)
    assert report.meet_only_at_origin and report.consistent
    # flipped in z, K shares the rays (+-1, 0, 1) with C
    overlapping = ConeRegion.piece(make_polycone(
        [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]))
    assert not cones_meet_only_at_origin(WEDGE_C, overlapping)
    # non-solid pieces: a line through C, a line missing K, a plane it crosses
    x_axis = ConeRegion.piece(make_polycone([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    yz_plane = ConeRegion.piece(make_polycone(
        [[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert not cones_meet_only_at_origin(x_axis, WEDGE_C)
    assert cones_meet_only_at_origin(x_axis, WEDGE_K)
    assert cones_meet_only_at_origin(yz_plane, x_axis)
    assert not cones_meet_only_at_origin(yz_plane, yz_plane)


def test_intersection_solves_on_the_pointed_piece_when_it_comes_second(monkeypatch):
    # the half-plane y >= 0 is not pointed, so the hull is taken on Q's
    # generators: one solve each, where two non-pointed pieces take none
    half_plane = ConeRegion.piece(make_polycone(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    below = ConeRegion.piece(make_polycone([[1.0, -1.0], [-1.0, -1.0]]))
    straddling = ConeRegion.piece(make_polycone([[1.0, -1.0], [1.0, 1.0]]))
    hulls = []
    solve = separation.body_distance

    def recording(a, *args, **kwargs):
        hulls.append(a.points.copy())
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(separation, "body_distance", recording)
    assert cones_meet_only_at_origin(half_plane, below)
    assert not cones_meet_only_at_origin(half_plane, straddling)
    assert len(hulls) == 2
    for points, piece in zip(hulls, (below, straddling)):
        assert np.array_equal(points, piece.single_cone().generators.T)


def test_intersection_of_two_complements():
    for d in (2, 3):
        outside = ConeRegion.complement(make_polycone(np.eye(d)))
        opposite = ConeRegion.complement(make_polycone(-np.eye(d)))
        assert not cones_meet_only_at_origin(outside, opposite)
        assert not cones_meet_only_at_origin(outside, outside)
    # in R^1 the closed complement of a ray is the opposite ray
    right = ConeRegion.complement(make_polycone([[1.0]]))
    left = ConeRegion.complement(make_polycone([[-1.0]]))
    assert cones_meet_only_at_origin(right, left)
    assert not cones_meet_only_at_origin(right, right)
    assert not cones_meet_only_at_origin(left, left)


def test_intersection_test_solves_a_shared_cone_once(monkeypatch):
    # geometry.pointedness caches its min-norm-point solve on the cone: the
    # two pairs (P, Q1) and (P, Q2) test the pointed piece P, and solve it once
    calls = []
    real = kernels.min_norm_point
    monkeypatch.setattr(kernels, "min_norm_point",
                        lambda X, tol: calls.append(1) or real(X, tol))
    P = make_polycone([[1.0, 0.2], [0.2, 1.0]])
    K = ConeRegion.union(ConeRegion.piece(sector_cone_2d(180.0, 10.0)),
                         ConeRegion.piece(sector_cone_2d(270.0, 10.0)))
    assert cones_meet_only_at_origin(ConeRegion.piece(P), K)
    assert calls == [1]


# the fields a verdict-only solve may change when it stops at its first
# deciding bracket: the printed ends of that bracket, and the functional
# read from its iterate with the numbers evaluated at it
_BRACKET_FIELDS = {"distances", "lower_bounds", "x_star", "alpha", "base_vertices"}


def _without_bracket_fields(value):
    if isinstance(value, dict):
        return {k: _without_bracket_fields(v) for k, v in value.items()
                if k not in _BRACKET_FIELDS}
    if isinstance(value, list):
        return [_without_bracket_fields(v) for v in value]
    return value


def test_intersection_test_stops_once_decided(monkeypatch, capsys, tmp_path):
    # _pieces_meet_only_at_origin reads only decide_gap's bool, so its solve
    # stops at the first bracket that decides it.  The bools, and the CLI
    # check documents bar their brackets' ends, are those of solves run to
    # the end, in fewer FW iterations.
    rng = np.random.default_rng(23)
    pairs = [(random_pointed_cone(rng, d), random_pointed_cone(rng, d))
             for d in (2, 3, 4) for _ in range(12)]
    paths = []
    for k, (P, Q) in enumerate(pairs[::4]):
        path = tmp_path / f"pair{k}.json"
        path.write_text(json.dumps({"dim": P.dim, "cones": {
            "C": {"pieces": [{"generators": P.generators.T.tolist()}]},
            "K": {"pieces": [{"generators": Q.generators.T.tolist()}]}}}))
        paths.append(str(path))
    real = separation.body_distance
    log = []

    def outcomes():
        log.clear()
        bools = []
        for P, Q in pairs:
            try:
                bools.append(separation._pieces_meet_only_at_origin(P, Q, 1e-9))
            except Inconclusive:
                bools.append(None)
        main(["check", *paths, "--pair", "C,K"])
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        return bools, docs, list(log)

    def early(*args, **kwargs):
        log.append(real(*args, **kwargs))
        return log[-1]

    def to_the_end(*args, until_decided=False, **kwargs):
        return early(*args, **kwargs)

    monkeypatch.setattr(separation, "body_distance", early)
    bools, docs, solves = outcomes()
    monkeypatch.setattr(separation, "body_distance", to_the_end)
    ref_bools, ref_docs, ref_solves = outcomes()
    assert bools == ref_bools
    assert _without_bracket_fields(docs) == _without_bracket_fields(ref_docs)
    assert True in bools and False in bools
    assert "decided" in {r.stop for r in solves}
    assert "decided" not in {r.stop for r in ref_solves}
    assert sum(r.iterations for r in solves) < sum(r.iterations for r in ref_solves)


def test_verdict_only_solves_stop_once_decided(monkeypatch, capsys, tmp_path):
    # Beyond the intersection test above: the check report's forms,
    # is_well_based, has_convex_base and pointedness read only verdicts too,
    # so the CLI's check and base give the verdicts, exit codes and
    # conditions of solves run to the end, in fewer FW iterations, and every
    # early bracket holds the distance of the solve run to the end.
    files = []
    rng = np.random.default_rng(23)
    for k, d in enumerate((2, 3, 4) * 3):
        P, Q = random_pointed_cone(rng, d), random_pointed_cone(rng, d)
        path = tmp_path / f"pair{k}.json"
        path.write_text(json.dumps({"dim": d, "cones": {
            "C": {"pieces": [{"generators": P.generators.T.tolist()}]},
            "K": {"pieces": [{"generators": Q.generators.T.tolist()}]},
            "B": {"kind": "boundary",
                  "pieces": [{"generators": P.generators.T.tolist()}]},
            "U": {"kind": "union",
                  "pieces": [{"generators": P.generators.T.tolist()},
                             {"generators": (-Q.generators.T).tolist()}]}}}))
        files.append(str(path))
    real = distance.body_distance
    log = []

    def outcomes():
        log.clear()
        runs = [["check", *files, "--pair", "C,K"]] + [
            ["base", *files, "--cone", name] for name in ("C", "B", "U")]
        codes, docs = [], []
        for argv in runs:
            codes.append(main(argv))
            docs += [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        return codes, docs, list(log)

    def early(*args, **kwargs):
        log.append(real(*args, **kwargs))
        return log[-1]

    def to_the_end(*args, until_decided=False, **kwargs):
        return early(*args, **kwargs)

    def patch(solve):
        # min_norm_point reads distance.body_distance
        for module in (separation, basis, distance):
            monkeypatch.setattr(module, "body_distance", solve)

    patch(early)
    codes, docs, solves = outcomes()
    patch(to_the_end)
    ref_codes, ref_docs, ref_solves = outcomes()
    assert codes == ref_codes
    assert _without_bracket_fields(docs) == _without_bracket_fields(ref_docs)
    assert {doc["verdict"] for doc in docs} >= {"well_based", "not_well_based",
                                                 "separated"}
    assert len(solves) == len(ref_solves)
    # the bracket's ends and the distance are products of unit vectors a
    # few ulps off, so they are compared to 1e-14
    for res, full in zip(solves, ref_solves):
        assert res.kind == full.kind
        assert res.lower_bound <= full.distance + 1e-14
        assert full.distance <= res.distance + 1e-14
    assert "decided" in {r.stop for r in solves}
    assert "decided" not in {r.stop for r in ref_solves}
    assert sum(r.iterations for r in solves) < sum(r.iterations for r in ref_solves)


def test_boundary_report_rays():
    report = boundary_equivalence_report(
        ray_region([0.0, 1.0]), ray_region([1.0, 0.0])
    )
    assert report.conditions == (True,) * 5
    assert report.consistent
    assert report.meet_only_at_origin


def test_boundary_report_identical():
    report = boundary_equivalence_report(ORTHANT, ORTHANT)
    assert report.conditions == (False,) * 5
    assert report.consistent
    assert not report.meet_only_at_origin


def test_boundary_report_sector_vs_line_pair():
    report = boundary_equivalence_report(NARROW_SECTOR, LINE_PAIR)
    assert report.conditions == (True,) * 5
    assert report.consistent
    # form 1 separates, so the boundary forms are derived from its solve:
    # they carry its lower bound, and no distance
    for key in ("full", "closure"):
        assert report.distances[key] == pytest.approx(
            np.cos(np.radians(10.0)), abs=1e-9)
    for key in ("boundary_boundary", "boundary_closure", "closure_boundary"):
        assert report.distances[key] is None
    assert set(report.lower_bounds.values()) == {report.lower_bounds["full"]}
    assert 0.0 < report.lower_bounds["full"] <= report.distances["full"]


def test_boundary_report_3d():
    C = ConeRegion.piece(make_polycone(np.eye(3)))
    K = ray_region([-1.0, -1.0, -1.0])
    report = boundary_equivalence_report(C, K)
    assert report.conditions == (True,) * 5
    assert report.consistent


def test_sym_matches_disjunction_on_random_pairs():
    rng = np.random.default_rng(19)
    done = 0
    while done < 25:
        dim = int(rng.integers(2, 4))
        C = ConeRegion.piece(random_pointed_cone(rng, dim))
        K = ConeRegion.piece(random_pointed_cone(rng, dim))
        try:
            sym = separate_sym(C, K)
            ck = separate_nonsym(C, K)
            kc = separate_nonsym(K, C)
        except Inconclusive:
            continue
        done += 1
        assert (sym is not None) == (ck is not None or kc is not None)
        # each certificate alone proves the two base hulls disjoint
        for cert, X, Y in ((sym, C, K), (ck, C, K), (kc, K, C)):
            if cert is not None:
                enclosed, excluded = (
                    (X, Y) if cert.orientation is Orientation.C_FROM_K else (Y, X)
                )
                assert (enclosed.lmo(cert.x_star).value
                        > -excluded.lmo(-cert.x_star).value)


# random_region pairs whose distance solves used to stall: every Frank-Wolfe
# iteration ran a Wolfe solve to max_iter uncertified, for 0.7-3 s a pair,
# and the last one ended Inconclusive.  The Wolfe affine step lost the sign
# of a weight on corrals of support points 1e-4 apart on a curved cap.
# The files hold perfbench/workloads.gen_pair of the sym/stall and
# sym/stall-fail corpus keys named in them (dimension, index).
STALLING_PAIRS = [
    "sym_stall_3_932.json",
    "sym_stall_3_146.json",
    "sym_stall_4_322.json",
    "sym_stall_fail_3_95.json",
]


@pytest.mark.parametrize("name", STALLING_PAIRS)
def test_stalling_pairs_decide_in_few_iterations(name, monkeypatch):
    inst = load_instance(str(Path(__file__).parent / "data" / name))
    C, K = inst.region("C"), inst.region("K")
    solves = []
    solve = separation.body_distance

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res)
        return res

    with monkeypatch.context() as m:
        m.setattr(separation, "body_distance", recording)
        sym = separate_sym(C, K)
        one_sided = [separate_nonsym(C, K), separate_nonsym(K, C)]
    assert solves and all(r.iterations < 100 for r in solves)
    assert all(r.certified for r in solves)
    # a solve may stop "decided" only once its positive bracket has
    # cleared the dead band
    assert all(r.stop in {"certified_gap", "certified_zero"}
               or (r.stop == "decided" and r.kind == "positive"
                   and r.lower_bound > DEAD_BAND * DEFAULT_TOL)
               for r in solves)
    assert sym is not None
    assert verify_certificate(sym, C, K, count=1000,
                              rng=np.random.default_rng(0)).ok
    for (X, Y), cert in zip(((C, K), (K, C)), one_sided):
        oracle = oracle_separation(X, Y, resolution=1.0,
                                   rng=np.random.default_rng(0))
        assert (cert is not None) == oracle.separated
        if cert is not None:
            assert verify_certificate(cert, X, Y, count=1000,
                                      rng=np.random.default_rng(0)).ok


def _contract_pairs():
    """Both orientations of the stalling pairs, and seeded random_region
    pairs at d in {2, 3, 4, 6}."""
    pairs = []
    for name in STALLING_PAIRS:
        inst = load_instance(str(Path(__file__).parent / "data" / name))
        C, K = inst.region("C"), inst.region("K")
        pairs += [(C, K), (K, C)]
    rng = np.random.default_rng(2101)
    for d in (2, 3, 4, 6):
        pairs += [(random_region(rng, d), random_region(rng, d)) for _ in range(12)]
    return pairs


def _verdict(decide):
    try:
        return decide()
    except Inconclusive:
        return "inconclusive"


def test_early_stop_certificates_keep_the_contract(monkeypatch):
    # separate_nonsym stops at the first bracket that decides the gap.  Its
    # verdict is the full solve's, in no more FW iterations, and its
    # threshold interval is a certified lower bound on the hull distance:
    # DEAD_BAND * tol < hi - lo <= distance.  Where the solve ends on the
    # max-margin functional, the two ends agree only to the last bits.
    tol = DEFAULT_TOL
    real = separation.body_distance
    solves = []
    monkeypatch.setattr(separation, "body_distance",
                        lambda *a, **k: solves.append(real(*a, **k)) or solves[-1])
    decided = fewer = certs = 0
    for C, K in _contract_pairs():
        full = body_distance(body(C, False), body(K, True), tol=tol,
                             until_decided=False)
        solves.clear()
        cert = _verdict(lambda: separate_nonsym(C, K, tol=tol))
        (early,) = solves
        assert _verdict(lambda: decide_gap(full, "distance", tol)) == (
            cert if cert == "inconclusive" else cert is not None)
        assert early.iterations <= full.iterations
        decided += early.stop == "decided"
        fewer += early.iterations < full.iterations
        if cert in (None, "inconclusive"):
            continue
        certs += 1
        lo, hi = cert.alpha_interval
        # to rounding: hi, lo and the distance are products of unit vectors
        assert DEAD_BAND * tol < hi - lo <= cert.distance + 1e-14
        assert verify_certificate(cert, C, K, count=1000,
                                  rng=np.random.default_rng(0)).ok
    assert certs >= 40 and decided >= 40 and fewer >= 40


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def test_bidirectional_certificates_are_separate_nonsym():
    # separate_convex_bidirectional's certificates are separate_nonsym's in
    # each orientation, bit for bit, with the orientation relabelled; its
    # linear functional exists exactly when both do
    rng = np.random.default_rng(2102)
    pairs = [(ConeRegion.piece(random_pointed_cone(rng, d)),
              ConeRegion.piece(random_pointed_cone(rng, d)))
             for d in (2, 3, 4, 6) for _ in range(6)]
    pairs += [(NARROW_SECTOR, ConeRegion.piece(sector_cone_2d(-90.0, 10.0))),
              (ORTHANT, ray_region([-1.0, 1.0]))]
    compared = linear = 0
    for C, K in pairs:
        res = separate_convex_bidirectional(C, K)
        for got, want, orientation in (
                (res.cfromk, separate_nonsym(C, K), Orientation.C_FROM_K),
                (res.kfromc, separate_nonsym(K, C), Orientation.K_FROM_C)):
            assert (got is None) == (want is None)
            if got is None:
                continue
            compared += 1
            assert got.orientation is orientation
            for f in dataclasses.fields(got):
                if f.name != "orientation":
                    assert (_bits(getattr(got, f.name))
                            == _bits(getattr(want, f.name))), f.name
        both = res.cfromk is not None and res.kfromc is not None
        assert (res.linear is not None) == both
        linear += both
    assert compared >= 40 and linear >= 10


NEG_ORTHANT = ConeRegion.piece(make_polycone([[-1.0, 0.0], [0.0, -1.0]]))
HALF_PLANE = ConeRegion.piece(make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("C, K, solves", [
    (ORTHANT, NEG_ORTHANT, 3),
    (ORTHANT, ray_region([-1.0, 1.0]), 3),
    (HALF_PLANE, ray_region([0.0, -1.0]), 2),
    (ORTHANT, ORTHANT, 2),
], ids=["both", "orthant-vs-ray", "one-sided", "neither"])
def test_bidirectional_runs_each_solve_once(C, K, solves, monkeypatch):
    # one solve per orientation, and the union solve only when both certify
    count = []
    solve = separation.body_distance

    def counting(*args, **kwargs):
        count.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(separation, "body_distance", counting)
    res = separate_convex_bidirectional(C, K)
    assert (res.linear is not None) == (solves == 3)
    assert len(count) == solves


def _uncertified_body_distance(monkeypatch, module):
    real = module.body_distance

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        assert res.kind == "positive"
        return dataclasses.replace(res, certified=False, stop="max_iter")

    monkeypatch.setattr(module, "body_distance", stalled)


def test_uncertified_gap_is_reported_as_uncertified(monkeypatch):
    _uncertified_body_distance(monkeypatch, separation)
    with pytest.raises(Inconclusive) as nonsym:
        separate_nonsym(NARROW_SECTOR, ray_region([1.0, 0.0]))
    _uncertified_body_distance(monkeypatch, basis)
    with pytest.raises(Inconclusive) as well_based:
        basis.is_well_based(ORTHANT)
    for exc in (nonsym, well_based):
        msg = str(exc.value)
        assert "uncertified" in msg and "max_iter" in msg
        assert "dead-band" not in msg
        assert re.search(r"\[\d\.\d{3}e[+-]\d+, \d\.\d{3}e[+-]\d+\]", msg)


TWO_CLOSE_RAYS = (
    ray_region([1.0, 0.0]), ray_region([math.cos(5e-9), math.sin(5e-9)])
)


@pytest.mark.parametrize("C, K, solves, separated", [
    (NARROW_SECTOR, LINE_PAIR, 1, True),
    (LINE_PAIR, NARROW_SECTOR, 2, True),
    (ORTHANT, ORTHANT, 2, False),
    (*TWO_CLOSE_RAYS, 2, None),
], ids=["c-from-k", "k-from-c", "not-separated", "dead-band"])
def test_sym_runs_each_solve_once(C, K, solves, separated, monkeypatch):
    # C from K, then K from C, and no third solve once both certified a
    # zero gap.
    count = []
    solve = separation.body_distance

    def counting(*args, **kwargs):
        count.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(separation, "body_distance", counting)
    if separated is None:
        with pytest.raises(Inconclusive):
            separate_sym(C, K)
    else:
        assert (separate_sym(C, K) is not None) == separated
    assert len(count) == solves


def _thin_ray_pair(dim, seed):
    # two rays 3e-9 to 7e-9 rad apart, inside the tolerance dead band
    rng = np.random.default_rng([4, dim, seed])
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    p = rng.standard_normal(dim)
    p -= (p @ u) * u
    p /= np.linalg.norm(p)
    delta = rng.uniform(3e-9, 7e-9)
    w = math.cos(delta) * u + math.sin(delta) * p
    return ray_region(u), ray_region(w)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_dead_band_ray_pairs_stop_at_once(dim, seed, monkeypatch):
    # Each Frank-Wolfe iteration adds its support point to a persistent
    # corral, so once the oracle has nothing new to offer the solve stops
    # as a repeated point; it used to run 100 more iterations to "stalled".
    C, K = _thin_ray_pair(dim, seed)
    solves = []
    solve = separation.body_distance

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res)
        return res

    monkeypatch.setattr(separation, "body_distance", recording)
    with pytest.raises(Inconclusive):
        separate_sym(C, K)
    assert solves and all(r.iterations <= 3 for r in solves)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(3))
def test_dead_band_is_reported_whenever_a_bracket_shows_it(dim, seed, monkeypatch):
    # A bracket [lower_bound, distance] inside (tol, DEAD_BAND * tol] from
    # either orientation, certified or not, makes the message "dead-band";
    # on (2, 2), (3, 2) and (4, 1) the first orientation certifies it and
    # the second ends uncertified at lower bound 0.
    C, K = _thin_ray_pair(dim, seed)
    solves = []
    solve = separation.body_distance

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res)
        return res

    monkeypatch.setattr(separation, "body_distance", recording)
    with pytest.raises(Inconclusive) as exc:
        separate_sym(C, K)
    tol = separation.DEFAULT_TOL
    in_band = any(tol < r.lower_bound and r.distance <= distance.DEAD_BAND * tol
                  for r in solves)
    assert exc.value.dead_band == in_band
    assert ("dead-band" in str(exc.value)) == in_band
    assert in_band or (dim, seed) == (6, 0)


TWO_RAYS_3D = ConeRegion.piece(make_polycone([[1, 0, 1], [0, 1, 1]]))
HEXAGONAL_CAP = ConeRegion.piece(cone_about([0, 0, 1], 20.0, 6))


@pytest.mark.parametrize("C, K, separated, meet, solves", [
    (TWO_RAYS_3D, ConeRegion.piece(make_polycone([[-1, 0, 1], [0, -1, 1]])),
     True, True, 1),
    (HEXAGONAL_CAP, ConeRegion.piece(make_polycone([[1, 0, 0.2], [0, 1, 0.2]])),
     True, True, 1),
    (HEXAGONAL_CAP, ConeRegion.piece(cone_about([1, 0, 0], 20.0, 5)), True, True, 1),
    (HEXAGONAL_CAP, ConeRegion.piece(cone_about([0.3, 0, 1], 20.0, 5)), False, False, 2),
    (union_of_rays([[1.0, 1.0], [1.0, -1.0]]), ray_region([1.0, 0.0]), False, True, 3),
    (HALF_PLANE, ray_region([0.0, -1.0]), False, True, 3),
], ids=["no-solid-cone", "one-solid-cone", "two-solid-cones", "not-separated",
        "meet-at-origin-rays", "meet-at-origin-half-plane"])
def test_boundary_report_solves_each_pair_once(C, K, separated, meet, solves,
                                               monkeypatch):
    # A separated pair takes form 1's solve alone: its boundary forms are
    # derived, with no facet enumeration and no intersection test.  Cones
    # that meet beyond the origin add the intersection test (one solve) and
    # derive the boundary forms as well.  Only a pair that form 1 does not
    # separate, whose cones meet at the origin alone, builds the boundaries:
    # the intersection test (one solve per pair of pieces), then one solve
    # per distinct (region, region) pair of the five forms.  The union of
    # rays is its own boundary, so that is form 1's pair alone; the half
    # plane's boundary is a line, so (bd C, K) is the one more pair.
    count, facets, meets, built = [], [], [], []
    solve = separation.body_distance
    real_facets = separation.geometry.facets
    real_meet = separation.cones_meet_only_at_origin
    real_forms = separation.boundary_forms

    def counting(*args, **kwargs):
        count.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(separation, "body_distance", counting)
    monkeypatch.setattr(separation.geometry, "facets",
                        lambda *a, **k: facets.append(1) or real_facets(*a, **k))
    monkeypatch.setattr(separation, "cones_meet_only_at_origin",
                        lambda *a, **k: meets.append(1) or real_meet(*a, **k))
    monkeypatch.setattr(separation, "boundary_forms",
                        lambda *a, **k: built.append(1) or real_forms(*a, **k))
    report = boundary_equivalence_report(C, K)
    assert report.conditions == (separated,) * 5
    assert report.meet_only_at_origin is meet
    assert len(count) == solves
    assert len(meets) == (not separated)
    full_path = meet and not separated
    assert len(built) == full_path
    # of these, only the half plane's boundary needs its facets
    assert (len(facets) > 0) == (full_path and C is HALF_PLANE)
    if not full_path:
        assert set(report.lower_bounds.values()) == {report.lower_bounds["full"]}
    assert (report.distances["boundary_boundary"] is None) == (not full_path)


def test_boundary_report_inconclusive_form_1_is_solved_once(monkeypatch):
    # form 1's solve ends uncertified: the report still builds the boundary
    # forms and runs the intersection test (one solve) before it raises, and
    # it raises from the first solve rather than solving form 1 again
    C = ConeRegion.piece(sector_cone_2d(90.0, 10.0))
    K = ConeRegion.piece(sector_cone_2d(270.0, 10.0))
    calls = []
    solve = separation.body_distance

    def first_uncertified(*args, **kwargs):
        res = solve(*args, **kwargs)
        calls.append(res)
        if len(calls) == 1:
            return dataclasses.replace(res, certified=False, stop="max_iter")
        return res

    monkeypatch.setattr(separation, "body_distance", first_uncertified)
    with pytest.raises(Inconclusive,
                       match="^boundary-condition distance ended uncertified"):
        boundary_equivalence_report(C, K)
    assert len(calls) == 2


def test_boundary_report_reaches_pairs_whose_facets_are_out_of_reach():
    # a 30-ray cone at d = 10 has too many rays for facet enumeration, so its
    # boundary cannot be built; against the opposite ray form 1 separates,
    # and the report derives the boundary forms without it
    rng = np.random.default_rng(3)
    P = random_pointed_cone(rng, 10, n_rays=30)
    C = ConeRegion.piece(P)
    K = ConeRegion.piece(make_polycone([-P.generators.mean(axis=1)]))
    with pytest.raises(DimensionTooHigh):
        boundary_forms(C, K)
    report = boundary_equivalence_report(C, K)
    assert report.conditions == (True,) * 5
    assert report.meet_only_at_origin and report.consistent
    assert report.lower_bounds["boundary_boundary"] > 0.0


def _uncertified_zero_body_distance(monkeypatch, module):
    real = module.body_distance

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        assert res.kind == "zero" and res.certified
        return dataclasses.replace(res, certified=False, stop="max_iter")

    monkeypatch.setattr(module, "body_distance", stalled)


def test_uncertified_zero_is_inconclusive(monkeypatch):
    _uncertified_zero_body_distance(monkeypatch, separation)
    _uncertified_zero_body_distance(monkeypatch, basis)
    line = ConeRegion.piece(make_polycone([[1.0, 0.0], [-1.0, 0.0]]))
    for call in (lambda: separate_nonsym(ORTHANT, ORTHANT),
                 lambda: cones_meet_only_at_origin(ORTHANT, ORTHANT),
                 lambda: basis.is_well_based(line)):
        with pytest.raises(Inconclusive, match="did not certify"):
            call()
    # has_convex_base solves nothing itself: it reads is_well_based, whose
    # solve is patched above; distance.body_distance is patched as well so
    # that a solve through kernels.min_norm_point would be caught too
    _uncertified_zero_body_distance(monkeypatch, distance)
    with pytest.raises(Inconclusive, match="did not certify"):
        basis.has_convex_base(line)


def _solve_with_lmo_values(monkeypatch, values):
    # the real ORTHANT / NEG_ORTHANT solve, a certified gap of 1/sqrt(2),
    # with the LMO values at its deciding iterate replaced
    real = separation.body_distance
    monkeypatch.setattr(separation, "body_distance", lambda *a, **k: dataclasses.replace(
        real(*a, **k), lmo_values=values))
    return separate_nonsym(ORTHANT, NEG_ORTHANT)


@pytest.mark.parametrize("message, reach", [
    # an iterate negative on C: hi < 0 = lo
    ("threshold interval has no interior at the deciding bracket",
     lambda mp: _solve_with_lmo_values(mp, (-1.0, 0.0))),
])
def test_structural_inconclusive_is_not_a_dead_band(monkeypatch, message, reach):
    with pytest.raises(Inconclusive, match=f"^{re.escape(message)}$") as exc:
        reach(monkeypatch)
    assert exc.value.dead_band is False


# K holds (0, 1, 0) = (g1 + g2) / 1e-15, and so C's ray; no certificate
# exists, but the sampled check cannot see it
NEAR_LINE_C = [0.7, 1.3, 1.0]
NEAR_LINE_K = [[1.0, 0.0, 0.0], [-1.0, 1e-15, 0.0], [0.0, 0.0, 1.0]]


def test_cone_within_rounding_of_a_line_is_structurally_inconclusive():
    C = ray_region(NEAR_LINE_C)
    K = ConeRegion.piece(make_polycone(NEAR_LINE_K))
    for tol in (1e-6, 1e-9, 1e-15):
        for call in (separate_nonsym, separate_sym, boundary_equivalence_report):
            for pair in ((C, K), (K, C)):
                with pytest.raises(Inconclusive, match="within rounding of opposite") as exc:
                    call(*pair, tol=tol)
                assert exc.value.dead_band is False
    # its base hull reaches the origin: a certified "no"
    assert basis.is_well_based(K).kind is basis.BaseKind.NOT_WELL_BASED
    # an exact line is legal: (0, 1, 0) is off the half-plane y = 0, z >= 0
    line = ConeRegion.piece(make_polycone([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                           [0.0, 0.0, 1.0]]))
    cert = separate_nonsym(C, line)
    assert cert is not None and verify_certificate(cert, C, line).ok


def _ray_pair(theta):
    return ray_region([1.0, 0.0]), ray_region([math.cos(theta), math.sin(theta)])


def test_rays_1e13_apart_certify_at_tol_1e15():
    # The gap is 1e-13 and 1 - cos(1e-13) rounds to 0, so the witnesses'
    # difference would give x* = (0, -1) and hi = lo = 0; the certificate
    # reads the deciding iterate instead, and its threshold 5e-14 is checked
    # against its own interval, not against a fixed 1e-12.
    C, K = _ray_pair(1e-13)
    for enclosed, excluded in ((C, K), (K, C)):
        cert = separate_nonsym(enclosed, excluded, tol=1e-15)
        assert cert is not None
        assert cert.alpha_interval == pytest.approx((0.0, 1e-13), abs=1e-16)
        assert verify_certificate(cert, enclosed, excluded).ok
    cert = separate_sym(C, K, tol=1e-15)
    assert cert is not None
    assert verify_certificate(cert, C, K).ok


def test_sym_inconclusive_on_ray_pairs_is_always_dead_band():
    # ray pairs from wide to 1e-13 rad apart, under every tol down to 1e-15
    raised = 0
    for theta in (1e-3, 1e-6, 1e-9, 1e-11, 1e-13):
        C, K = _ray_pair(theta)
        for tol in (10.0 ** -k for k in range(3, 16)):
            try:
                separate_sym(C, K, tol=tol)
            except Inconclusive as exc:
                raised += 1
                assert exc.dead_band, (theta, tol, str(exc))
    assert raised >= 5


def test_certificate_interval_matches_the_lmos_at_its_functional():
    # The interval is read from the deciding bracket's LMO values at the
    # iterate v, each net of its error bound; re-evaluated at x* = v / |v|
    # as the same certified bounds it agrees to rounding.
    checked = 0
    rng = np.random.default_rng(3003)
    for dim in range(2, 7):
        for _ in range(12):
            C, K = random_region(rng, dim), random_region(rng, dim)
            for enclosed, excluded in ((C, K), (K, C)):
                try:
                    cert = separate_nonsym(enclosed, excluded)
                except Inconclusive:
                    continue
                if cert is None:
                    continue
                checked += 1
                sup = support_norm_base(excluded, cert.x_star)
                low = lmo_norm_base(enclosed, cert.x_star)
                lo, hi = max(0.0, sup.value + sup.error), low.value - low.error
                assert cert.alpha_interval == pytest.approx((lo, hi), abs=1e-14)
    assert checked >= 80


def test_certificate_family_agrees_with_augmented_dual_membership():
    # The family holds exactly, as lo < alpha < hi proves on the certified
    # bracket; augmented_dual_membership compares m at x* with alpha
    # exactly, so it finds the same classes, for the 1e-13 certificate at
    # tol 1e-15 (alpha 5e-14) as for random pairs.
    C, K = _ray_pair(1e-13)
    certs = [(C, separate_nonsym(C, K, tol=1e-15)), (K, separate_nonsym(K, C, tol=1e-15))]
    rng = np.random.default_rng(3005)
    for dim in range(2, 7):
        for _ in range(8):
            A, B = random_region(rng, dim), random_region(rng, dim)
            try:
                cert = separate_nonsym(A, B)
            except Inconclusive:
                continue
            if cert is not None:
                certs.append((A, cert))
    assert len(certs) >= 20
    for enclosed, cert in certs:
        flags = augmented_dual_membership(enclosed, cert.x_star, cert.alpha)
        assert {name for name, ok in flags.items() if ok} == cert.family - {"BP"} | {"a_plus"}
        assert bp_family_flags(cert.functional()) == {"BP"}


def test_certificates_make_no_lmo_call_after_the_solve(monkeypatch):
    # no region LMO is called between one solve and the next, or after the
    # last: bidir's linear separator is read from its union solve too
    solved = []
    real_solve, real_lmo = separation.body_distance, ConeRegion.lmo

    def solve(*args, **kwargs):
        solved.clear()
        res = real_solve(*args, **kwargs)
        solved.append(True)
        return res

    def lmo(self, direction):
        assert not solved, "ConeRegion.lmo called after body_distance returned"
        return real_lmo(self, direction)

    monkeypatch.setattr(separation, "body_distance", solve)
    monkeypatch.setattr(basis, "body_distance", solve)
    monkeypatch.setattr(ConeRegion, "lmo", lmo)
    rng = np.random.default_rng(3004)
    certs = bases = linear = 0
    for dim in range(2, 7):
        for _ in range(6):
            C, K = random_region(rng, dim), random_region(rng, dim)
            certs += separate_nonsym(C, K) is not None
            bases += basis.is_well_based(C).well_based
            C, K = (ConeRegion.piece(random_pointed_cone(rng, dim)) for _ in range(2))
            linear += separate_convex_bidirectional(C, K).linear is not None
    assert certs >= 20 and bases >= 25 and linear >= 10


def test_ray_inside_a_nearly_flat_cone_gets_no_certificate():
    # K is 2e-4 to 2e-10 rad short of a half-plane and holds C's ray, so no
    # certificate exists.  Its projections are ill-conditioned: a face of
    # both rays, or one ray with the other's dual left in the KKT slack.
    # The LMO's error bound on them keeps every bracket, at every tol down
    # to 1e-15, from giving a certificate, and most solves certify the zero.
    verdicts = []
    for eta in (1e-4, 1e-6, 1e-8, 1e-10):
        K = ConeRegion.piece(make_polycone([[1.0, eta], [-1.0, eta]]))
        for t in (0.3, 3e-2, 3e-4, -1e-3, 1e-6):
            for tol in (10.0 ** -k for k in range(9, 16)):
                verdicts.append(_verdict(lambda: separate_nonsym(ray_region([t, 1.0]), K,
                                                                 tol=tol)))
    assert all(v in (None, "inconclusive") for v in verdicts)
    assert verdicts.count(None) >= 100


def _nearly_flat_pair(rng, dim):
    # K: a ray g1, a ray eta short of -g1, and one or two rays on one side
    # of the plane of those two (in R^2, the pair alone); C: a ray inside K
    eta = 10.0 ** rng.uniform(-11, -4)
    g1 = rng.standard_normal(dim)
    g1 /= np.linalg.norm(g1)
    u = rng.standard_normal(dim)
    u -= (u @ g1) * g1
    u /= np.linalg.norm(u)
    gens = [g1, -math.cos(eta) * g1 + math.sin(eta) * u]
    if dim > 2:
        n = rng.standard_normal(dim)
        n -= (n @ g1) * g1 + (n @ u) * u
        n /= np.linalg.norm(n)
        extra = rng.standard_normal((int(rng.integers(1, 3)), dim))
        gens += list(extra + (np.abs(extra @ n) + 0.1)[:, None] * n)
    gens = np.array(gens)
    w = rng.uniform(0.1, 1.0, len(gens))
    w[:2] = rng.uniform(0.5, 1.0, 2)
    return ray_region(w @ gens), ConeRegion.piece(make_polycone(gens))


def _flat_pair_beside_a_ray(rng):
    # K: a flat pair g1 and a ray eta short of -g1, spanning a plane
    # orthogonal to a third ray g3; C = g3 + c u + a g1, inside K.  NNLS may
    # settle on g3 alone, both rays of the pair left out with duals about
    # eta c inside the slack.
    g1, u, g3 = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    eta, c = 10.0 ** rng.uniform(-10, -4), 10.0 ** rng.uniform(-9, -2)
    K = ConeRegion.piece(make_polycone([g1, -math.cos(eta) * g1 + math.sin(eta) * u, g3]))
    return ray_region(g3 + c * u + rng.uniform(-1, 1) * c * 10.0 ** rng.uniform(-6, 0) * g1), K


def _flat_pair_with_a_spread_ray(rng):
    # K: g1, a ray eta short of -g1, and g3 orthogonal to both; C = g3 + c u
    # + a g1, c and a in [0, 2], u the unit sum of K's first two rays: C
    # lies in K, so the answer is a certified "no"
    g1, w, g3 = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
    eta = 10.0 ** rng.uniform(-10, -4)
    cone = make_polycone([g1, -math.cos(eta) * g1 + math.sin(eta) * w, g3])
    u = cone.generators[:, 0] + cone.generators[:, 1]
    c, a = rng.uniform(0.0, 2.0, 2)
    return ray_region(g3 + c * u / np.linalg.norm(u) + a * g1), ConeRegion.piece(cone)


def test_ray_inside_a_nearly_flat_cone_is_never_called_disjoint_from_it():
    # through cones_meet_only_at_origin: a positive verdict read from a
    # bracket its LMO error bound swallows would call the two cones disjoint
    rng = np.random.default_rng(2025)
    verdicts = []
    for _ in range(80):
        C, K = _flat_pair_beside_a_ray(rng)
        tol = 10.0 ** -int(rng.integers(9, 16))
        verdicts.append(_verdict(lambda: cones_meet_only_at_origin(C, K, tol=tol)))
    assert all(v in (False, "inconclusive") for v in verdicts)
    assert verdicts.count(False) >= 30


def test_ray_inside_a_nearly_flat_cone_gets_no_certificate_in_random_draws():
    # C inside K again, drawn at random in R^2 to R^4 under tol 1e-9 to
    # 1e-15: none may be certified.  In R^3 and up the face NNLS settles
    # on often leaves out the ray nearly opposite g1, whose dual sits in the
    # KKT slack while it could add up to 1e-4 of |p|.
    rng = np.random.default_rng(2024)
    verdicts = []
    for k in range(150):
        C, K = _nearly_flat_pair(rng, 2 + k % 3)
        tol = 10.0 ** -int(rng.integers(9, 16))
        verdicts.append(_verdict(lambda: separate_nonsym(C, K, tol=tol)))
    for _ in range(90):
        C, K = _flat_pair_beside_a_ray(rng)
        tol = 10.0 ** -int(rng.integers(9, 16))
        verdicts.append(_verdict(lambda: separate_nonsym(C, K, tol=tol)))
    assert all(v in (None, "inconclusive") for v in verdicts)
    assert verdicts.count(None) >= 140
    # With eta from 1e-10 up, the LMOs' error bounds resolve the zero: a
    # stop test reading the value alone stopped "decided" on a bracket its
    # error swallowed, a structural or dead-band Inconclusive at distance 0.
    spread = [_verdict(lambda: separate_nonsym(*_flat_pair_with_a_spread_ray(rng)))
              for _ in range(120)]
    assert spread == [None] * len(spread)


def test_certified_zero_with_witnesses_a_hair_apart_is_a_no():
    # C's ray lies in K, two rays 6.4e-7 rad short of opposite.  The solve
    # certifies |v| <= tol = 1e-15, but its witnesses end 1.02e-15 apart;
    # the verdict is the certified "no", not a dead band at distance 0.
    C = ray_region([-0.5989140801988839, 0.8008132894373848])
    K = ConeRegion.piece(make_polycone([[0.8554343235980975, -0.5179113032269769],
                                        [-0.8554339914103246, 0.5179118519012678]]))
    res = body_distance(body(C, False), body(K, True), tol=1e-15, until_decided=True)
    assert res.stop == "certified_zero" and res.distance > 1e-15
    assert res.kind == distance.ZERO
    assert separate_nonsym(C, K, tol=1e-15) is None


def _recording_solves(monkeypatch):
    """Record every ConeRegion.lmo call and every solve separation makes."""
    lmo_calls, solves = [], []
    real_lmo, real_solve = ConeRegion.lmo, separation.body_distance

    def lmo(self, direction):
        lmo_calls.append(1)
        return real_lmo(self, direction)

    def solve(*args, **kwargs):
        res = real_solve(*args, **kwargs)
        solves.append(res)
        return res

    monkeypatch.setattr(ConeRegion, "lmo", lmo)
    monkeypatch.setattr(separation, "body_distance", solve)
    return lmo_calls, solves


def test_a_clearly_separated_pair_is_decided_by_the_start_bracket(monkeypatch):
    # the first LMO pair is aimed from K's start point (the origin, adjoined)
    # to C's (its generator mean); its bracket clears the dead band, so the
    # solve stops there, with those two points as witnesses
    C = ConeRegion.piece(sector_cone_2d(90.0, 20.0))
    K = ConeRegion.piece(sector_cone_2d(-90.0, 30.0))
    lmo_calls, solves = _recording_solves(monkeypatch)
    cert = separate_nonsym(C, K)
    assert len(lmo_calls) == 2
    (res,) = solves
    assert (res.stop, res.iterations, res.certified) == ("decided", 0, True)
    assert np.array_equal(res.witness_a, C.centroid())
    assert np.array_equal(res.witness_b, np.zeros(2))
    assert res.distance == np.linalg.norm(C.centroid())
    assert res.lower_bound > DEAD_BAND * DEFAULT_TOL
    assert cert.iterations == 0
    assert verify_certificate(cert, C, K, rng=np.random.default_rng(0)).ok


def test_interpolate_on_a_nested_pair_stops_at_the_start(monkeypatch):
    # the first pair is aimed from the complement body's start point (the
    # origin, adjoined) to the inner cone's generator mean; its bracket
    # decides, with those two points as the witnesses
    ax = [0.2, 0.5, 1.0]
    inner, outer = cone_about(ax, 20.0, 8), cone_about(ax, 50.0, 12)
    lmo_calls, solves = _recording_solves(monkeypatch)
    gamma = basis.interpolate(inner, outer)
    assert len(lmo_calls) == 2
    (res,) = solves
    assert (res.stop, res.iterations, res.certified) == ("decided", 0, True)
    assert np.array_equal(res.witness_a, ConeRegion.piece(inner).centroid())
    assert np.array_equal(res.witness_b, np.zeros(3))
    assert gamma.certificate.iterations == 0
    assert basis.verify_interpolation(gamma, inner, outer,
                                      rng=np.random.default_rng(0)).ok


def test_a_zero_alpha_is_the_linear_family():
    assert bp_family_flags(NormLinearFunctional(np.array([1.0, 2.0]), 0.0)) == {"Lin"}


def test_boundary_rays_in_closed_form_need_a_planar_proper_cone():
    with pytest.raises(DimensionNot2D):
        bp_boundary_rays_2d([1.0, 0.0, 0.0], 0.5)
    for x_star, alpha in (([1.0, 0.0], 1.0), ([1.0, 0.0], -2.0), ([0.0, 0.0], 0.0)):
        with pytest.raises(DegenerateCone):
            bp_boundary_rays_2d(x_star, alpha)


def _outcome(call, *args):
    try:
        return jsonable(call(*args))
    except Inconclusive as exc:
        return str(exc)


def test_piece_pairs_and_complement_meets_enumerate_no_facets(refuse_facets):
    # separation of pieces and unions reads their generators alone, and a
    # piece meets a complement only at the origin exactly when the
    # complement's membership test, on K's stored normals, holds none of
    # its generators: where the parent asked strictly_interior of each
    rng = np.random.default_rng(41)
    pairs = [(random_region(rng, d), random_region(rng, d))
             for d in (2, 3, 4, 6) for _ in range(5)]
    expected = [[_outcome(f, C, K) for f in (separate_nonsym, separate_sym)]
                for C, K in pairs]
    assert any(isinstance(out, dict) for got in expected for out in got)
    assert any(out is None for got in expected for out in got)
    meets = []
    for d in (2, 3, 4, 5):
        K = random_pointed_cone(rng, d, n_rays=2 * d, cap_half_angle_deg=60.0)
        m = K.generators.mean(axis=1)
        near = make_polycone(m + 0.01 * rng.standard_normal((3, d)))
        for P in (near, K, random_pointed_cone(rng, d)):
            inside = all(strictly_interior(K, g) for g in P.generators.T)
            meets.append((ConeRegion.piece(P), ConeRegion.complement(K), inside))
    assert {inside for _, _, inside in meets} == {True, False}
    refuse_facets()
    for (C, K), want in zip(pairs, expected):
        assert [_outcome(f, C, K) for f in (separate_nonsym, separate_sym)] == want
    for piece, hole, inside in meets:
        assert cones_meet_only_at_origin(piece, hole) is inside
        assert cones_meet_only_at_origin(hole, piece) is inside
