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
from conesep.errors import DegenerateCone, Inconclusive, NotConvex, TrivialRegion
from conesep.geometry import make_polycone
from conesep.instances import load_instance
from conesep.oracle import (
    cone_about,
    oracle_separation,
    random_pointed_cone,
    random_region,
    ray_region,
    sector_cone_2d,
    union_of_rays,
)
from conesep.regions import ConeRegion, body, support_norm_base
from conesep.separation import (
    Membership,
    NormLinearFunctional,
    Orientation,
    augmented_dual_membership,
    bishop_phelps,
    boundary_equivalence_report,
    bp_boundary_rays_2d,
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
    for val in report.distances.values():
        assert val == pytest.approx(np.cos(np.radians(10.0)), abs=1e-9)


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


def test_bidirectional_keeps_the_full_solve_certificates(monkeypatch):
    # separate_convex_bidirectional's linear functional is built from the
    # two max-margin functionals, so its certificates come from solves run
    # to the end, bit for bit, where separate_nonsym's stop early
    rng = np.random.default_rng(2102)
    pairs = [(ConeRegion.piece(random_pointed_cone(rng, d)),
              ConeRegion.piece(random_pointed_cone(rng, d)))
             for d in (2, 3, 4, 6) for _ in range(6)]
    pairs += [(NARROW_SECTOR, ConeRegion.piece(sector_cone_2d(-90.0, 10.0))),
              (ORTHANT, ray_region([-1.0, 1.0]))]
    real = separation.body_distance
    bidir = [separate_convex_bidirectional(C, K) for C, K in pairs]
    early = [separate_nonsym(C, K) for C, K in pairs]
    monkeypatch.setattr(separation, "body_distance",
                        lambda *a, until_decided=False, **k: real(*a, **k))
    compared = moved = 0
    for (C, K), res, first in zip(pairs, bidir, early):
        full = [separate_nonsym(C, K), separate_nonsym(K, C)]
        for got, want, orientation in ((res.cfromk, full[0], Orientation.C_FROM_K),
                                       (res.kfromc, full[1], Orientation.K_FROM_C)):
            assert (got is None) == (want is None)
            if got is None:
                continue
            compared += 1
            assert got.orientation is orientation
            for f in dataclasses.fields(got):
                if f.name != "orientation":
                    assert (_bits(getattr(got, f.name))
                            == _bits(getattr(want, f.name))), f.name
        moved += (first is not None
                  and first.x_star.tobytes() != res.cfromk.x_star.tobytes())
    assert compared >= 40 and moved >= 20


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
    (ORTHANT, ORTHANT, 3, False),
    (*TWO_CLOSE_RAYS, 2, None),
], ids=["c-from-k", "k-from-c", "not-separated", "dead-band"])
def test_sym_runs_each_solve_once(C, K, solves, separated, monkeypatch):
    # C from K, then K from C; the plain-body cross-check runs only when
    # both certified a zero gap.
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
    in_band = any(tol < r.lower_bound and r.distance <= separation.DEAD_BAND * tol
                  for r in solves)
    assert exc.value.dead_band == in_band
    assert ("dead-band" in str(exc.value)) == in_band
    assert in_band or (dim, seed) == (6, 0)


TWO_RAYS_3D = ConeRegion.piece(make_polycone([[1, 0, 1], [0, 1, 1]]))
HEXAGONAL_CAP = ConeRegion.piece(cone_about([0, 0, 1], 20.0, 6))


@pytest.mark.parametrize("C, K, solves", [
    (TWO_RAYS_3D, ConeRegion.piece(make_polycone([[-1, 0, 1], [0, -1, 1]])), 2),
    (HEXAGONAL_CAP, ConeRegion.piece(make_polycone([[1, 0, 0.2], [0, 1, 0.2]])), 3),
    (HEXAGONAL_CAP, ConeRegion.piece(cone_about([1, 0, 0], 20.0, 5)), 5),
], ids=["no-solid-cone", "one-solid-cone", "two-solid-cones"])
def test_boundary_report_solves_each_pair_once(C, K, solves, monkeypatch):
    # one intersection solve, then one per distinct (region, region) pair of
    # the five forms: a region without a solid cone is its own boundary
    count = []
    solve = separation.body_distance

    def counting(*args, **kwargs):
        count.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(separation, "body_distance", counting)
    report = boundary_equivalence_report(C, K)
    assert report.conditions == (True,) * 5
    assert len(count) == solves


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


NEG_ORTHANT = ConeRegion.piece(make_polycone([[-1.0, 0.0], [0.0, -1.0]]))


def _solve_with_functional(monkeypatch, f):
    # the real ORTHANT / NEG_ORTHANT solve, a certified gap of 1/sqrt(2),
    # with its displacement replaced by f
    real = separation.body_distance
    monkeypatch.setattr(separation, "body_distance", lambda *a, **k: dataclasses.replace(
        real(*a, **k), functional=np.asarray(f, dtype=float)))
    return separate_nonsym(ORTHANT, NEG_ORTHANT)


def _bidirectional_with_kfromc(monkeypatch, scale):
    # both orientations certified, the K-from-C x* being scale times the
    # C-from-K one: scale 1 cancels them, scale 2 leaves -x*, negative on C
    cert = separation._separate_one_sided(ORTHANT, NEG_ORTHANT, DEFAULT_TOL, False)
    monkeypatch.setattr(separation, "_separate_k_from_c", lambda *a, **k: dataclasses.replace(
        cert, orientation=Orientation.K_FROM_C, x_star=scale * cert.x_star))
    return separate_convex_bidirectional(ORTHANT, NEG_ORTHANT)


def _sym_with_no_orientation(monkeypatch):
    monkeypatch.setattr(separation, "separate_nonsym", lambda *a, **k: None)
    monkeypatch.setattr(separation, "_separate_k_from_c", lambda *a, **k: None)
    return separate_sym(ORTHANT, NEG_ORTHANT)


@pytest.mark.parametrize("message, reach", [
    # a functional negative on C: hi < 0 = lo
    ("support interval collapsed under the unit functional",
     lambda mp: _solve_with_functional(mp, [-1.0, -1.0])),
    # lo = 0 < hi = 1e-13, so alpha = hi / 2 is below DUAL_TOL
    ("threshold failed the augmented-dual interior check",
     lambda mp: _solve_with_functional(mp, [1.0, 1e-13])),
    ("certificate functionals cancelled",
     lambda mp: _bidirectional_with_kfromc(mp, 1.0)),
    ("linear functional failed the exact support check",
     lambda mp: _bidirectional_with_kfromc(mp, 2.0)),
    # the plain-body distance between the orthants is sqrt(2)
    ("symmetric distance is positive but neither orientation certified",
     _sym_with_no_orientation),
])
def test_structural_inconclusive_is_not_a_dead_band(monkeypatch, message, reach):
    with pytest.raises(Inconclusive, match=f"^{re.escape(message)}$") as exc:
        reach(monkeypatch)
    assert exc.value.dead_band is False
