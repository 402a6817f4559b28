"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run with -s to see them all);
the assertions carry the same message, so a plain pytest run reports the
failing criterion verbatim.
"""
import math
import time

import numpy as np

from conesep.basis import (
    BaseKind,
    has_convex_base,
    interpolate,
    is_well_based,
    verify_interpolation,
)
from conesep.distance import DEFAULT_TOL, body_distance, decide_gap, origin_body
from conesep.errors import Inconclusive
from conesep.geometry import make_polycone, pointedness, is_whole_space
from conesep.kernels import nnls, project_onto_cone
from conesep.oracle import (
    covering_bound,
    random_pointed_cone,
    random_region,
    random_unit,
    random_unpointed_cone,
    ray_region,
    sample_norm_base,
    sector_cone_2d,
    union_of_rays,
)
from conesep.regions import ConeRegion, body, lmo_norm_base, support_norm_base
from conesep.separation import (
    bp_boundary_rays_2d,
    boundary_equivalence_report,
    boundary_forms,
    cones_meet_only_at_origin,
    separate_convex_bidirectional,
    separate_nonsym,
    separate_sym,
    verify_certificate,
)
from conesep.svg import render_svg


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_ray_ray_exactness():
    C = ray_region([0.0, 1.0])
    K = ray_region([1.0, 0.0])
    separate_nonsym(C, K)  # warm-up so the timed call measures the solve
    t0 = time.perf_counter()
    cert = separate_nonsym(C, K)
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    ok = cert is not None
    if ok:
        lo, hi = cert.alpha_interval
        direction = cert.x_star / np.linalg.norm(cert.x_star)
        ok = (
            abs(cert.distance - 1.0) <= 1e-9
            and np.allclose(direction, [0.0, 1.0], atol=1e-9)
            and abs(lo - 0.0) <= 1e-9
            and abs(hi - 1.0) <= 1e-9
            and elapsed_ms < 10.0
        )
    _report(1, ok, f"ray-ray distance/functional/interval exact ({elapsed_ms:.2f} ms)")


def _one_sided_instances():
    sector = ConeRegion.piece(sector_cone_2d(90.0, 10.0))
    line_pair = union_of_rays([[1.0, 0.0], [-1.0, 0.0]])
    return sector, line_pair


def test_criterion_02_one_sided_patterns(tmp_path):
    t0 = time.perf_counter()
    sector, line_pair = _one_sided_instances()

    # left instance: sector-from-line-pair works, the reverse does not
    left_ck = separate_nonsym(sector, line_pair)
    left_kc = separate_nonsym(line_pair, sector)
    # mirrored instance: the patterns swap
    right_ck = separate_nonsym(line_pair, sector)
    right_kc = separate_nonsym(sector, line_pair)

    svg = render_svg({"C": sector, "K": line_pair}, order=["C", "K"],
                     certificate=left_ck)
    (tmp_path / "one_sided.svg").write_text(svg)
    elapsed = time.perf_counter() - t0

    ok = (
        left_ck is not None and left_kc is None
        and right_ck is None and right_kc is not None
        and svg.lstrip().startswith("<svg")
        and elapsed < 1.0
    )
    _report(2, ok, f"one-sided patterns match both orientations ({elapsed:.3f} s)")


def test_criterion_03_symmetric_mirrored():
    t0 = time.perf_counter()
    sector = ConeRegion.piece(sector_cone_2d(90.0, 25.0))
    fan = union_of_rays([
        [math.cos(math.radians(-60.0)), math.sin(math.radians(-60.0))],
        [math.cos(math.radians(-120.0)), math.sin(math.radians(-120.0))],
    ])

    ok = True
    for C, K in ((sector, fan), (fan, sector)):
        ok = ok and is_well_based(C).well_based and is_well_based(K).well_based
        cert = separate_sym(C, K)
        ok = ok and cert is not None
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(3, ok, f"symmetric separation on both mirrored instances ({elapsed:.3f} s)")


_SUITE = None


def _random_suite():
    """200 margin-filtered random pairs per dimension, shared by the
    existence/decomposition criteria."""
    global _SUITE
    if _SUITE is not None:
        return _SUITE
    rng = np.random.default_rng(20240814)
    cases = []
    for dim in (2, 3):
        made = 0
        while made < 200:
            C = random_region(rng, dim)
            K = random_region(rng, dim)
            res = body_distance(body(C, False), body(K, True))
            if not res.certified:
                continue
            if res.kind == "positive" and res.distance <= 1e-3:
                continue  # too close to call either way
            cases.append((dim, C, K, res.kind == "positive"))
            made += 1
    _SUITE = cases
    return _SUITE


def test_criterion_04_existence_matches_distance():
    t0 = time.perf_counter()
    cases = _random_suite()
    rng = np.random.default_rng(7)
    agree = 0
    verified = 0
    certs = 0
    for dim, C, K, positive in cases:
        cert = separate_nonsym(C, K)
        if (cert is not None) == positive:
            agree += 1
        if cert is not None:
            certs += 1
            rep = verify_certificate(cert, C, K, count=1000, rng=rng)
            if rep.ok and rep.enclosed_violations == 0 and rep.excluded_violations == 0:
                verified += 1
    elapsed = time.perf_counter() - t0
    ok = agree == len(cases) and verified == certs and elapsed < 60.0
    _report(4, ok,
            f"existence = distance positivity {agree}/{len(cases)}, "
            f"verified {verified}/{certs} certificates ({elapsed:.1f} s)")


def test_criterion_05_symmetric_is_or_of_one_sided():
    # The plain distance between conv B_C and conv B_K, solved to the end,
    # is the independent check: it is at most 2 tol when neither orientation
    # works, and at least a certificate's hi - lo, which bounds the
    # one-sided distance, when one does.
    cases = _random_suite()
    checked = 0
    agree = 0
    plain_ok = 0
    for dim, C, K, _ in cases:
        try:
            ck = separate_nonsym(C, K)
            kc = separate_nonsym(K, C)
            sym = separate_sym(C, K)
        except Inconclusive:
            continue
        checked += 1
        if (sym is not None) == ((ck is not None) or (kc is not None)):
            agree += 1
        plain = body_distance(body(C, False), body(K, False))
        if sym is None:
            plain_ok += plain.lower_bound <= 2 * DEFAULT_TOL
        else:
            lo, hi = sym.alpha_interval
            plain_ok += plain.distance + 1e-14 >= hi - lo
    ok = checked > 0 and agree == plain_ok == checked
    _report(5, ok, f"sym verdict = OR of one-sided verdicts {agree}/{checked}, "
                   f"plain-body distance brackets it {plain_ok}/{checked}")


def test_criterion_06_boundary_conditions_agree():
    # The independent check: each distinct pair of regions of the five forms
    # is solved to the end and judged on its own, with the intersection test.
    # The report derives the boundary forms from form 1 when it separates, so
    # its consistent flag holds by construction there; its conditions must
    # match these, and each of its brackets must hold the distance solved to
    # the end (1e-14 for the rounding of unit-vector products).
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    done = consistent = bracket_ok = separated = 0
    while done < 100:
        dim = int(rng.integers(2, 4))
        C = ConeRegion.piece(random_pointed_cone(rng, dim))
        K = ConeRegion.piece(random_pointed_cone(rng, dim))
        meet = cones_meet_only_at_origin(C, K)
        solved = {}
        forms = boundary_forms(C, K)
        for a, b in forms.values():
            if (a, b) not in solved:
                solved[a, b] = body_distance(body(a, False), body(b, True))
        gaps = [res.distance for res in solved.values() if res.kind == "positive"]
        if gaps and min(gaps) <= 1e-3:
            continue  # margin filter: keep clear of the sampling floor
        try:
            report = boundary_equivalence_report(C, K)
            c1, c2, s3, s4, s5 = (decide_gap(solved[pair], "form", DEFAULT_TOL)
                                  for pair in forms.values())
        except Inconclusive:
            continue
        done += 1
        conditions = (c1, c2, s3 and meet, s4 and meet, s5 and meet)
        separated += all(conditions)
        consistent += (len(set(conditions)) == 1
                       and report.conditions == conditions
                       and report.meet_only_at_origin == meet)
        for key, pair in forms.items():
            d, upper = solved[pair].distance, report.distances[key]
            bracket_ok += (report.lower_bounds[key] <= d + 1e-14
                           and (upper is None or d <= upper + 1e-14))
    elapsed = time.perf_counter() - t0
    ok = consistent == done == 100 and bracket_ok == 5 * done and elapsed < 60.0
    _report(6, ok,
            f"five conditions, solved to the end, agree with each other and "
            f"the report {consistent}/{done}, brackets hold {bracket_ok}/"
            f"{5 * done}, {separated} separated ({elapsed:.1f} s)")


def test_criterion_07_projection_residuals():
    rng = np.random.default_rng(77)
    worst_moreau = 0.0
    worst_kkt = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        cone = random_pointed_cone(rng, dim)
        y = rng.standard_normal(dim) * float(rng.uniform(0.1, 10.0))
        proj = project_onto_cone(cone.generators, y)
        worst_moreau = max(worst_moreau, proj.moreau_inner)
        worst_kkt = max(worst_kkt, nnls(cone.generators, y).kkt_residual)
    ok = worst_moreau < 1e-10 and worst_kkt < 1e-10
    _report(7, ok,
            f"worst Moreau residual {worst_moreau:.2e}, "
            f"worst KKT residual {worst_kkt:.2e} over 1000 projections")


def test_criterion_08_boundary_support_equals_alpha():
    rng = np.random.default_rng(8)
    done = 0
    worst = 0.0
    while done < 100:
        x_star = rng.standard_normal(2)
        n = float(np.linalg.norm(x_star))
        if n < 1e-3:
            continue
        alpha = float(rng.uniform(-0.95, 0.95)) * n
        rays = bp_boundary_rays_2d(x_star, alpha)
        region = union_of_rays(rays)
        xi = 1.0 if alpha >= 0 else -1.0
        sup = support_norm_base(region, xi * x_star).value
        worst = max(worst, abs(sup - abs(alpha)))
        done += 1
    ok = worst <= 1e-8
    _report(8, ok, f"boundary-base support = |alpha|, worst gap {worst:.2e}")


def test_criterion_09_well_based_iff_pointed():
    rng = np.random.default_rng(9)
    agree = 0
    for i in range(100):
        dim = int(rng.integers(2, 5))
        if i % 3 == 0:
            cone = random_unpointed_cone(rng, dim)
            while is_whole_space(cone):
                cone = random_unpointed_cone(rng, dim)
        else:
            cone = random_pointed_cone(rng, dim)
        region = ConeRegion.piece(cone)
        wb = is_well_based(region).well_based
        cb = has_convex_base(region).has_base
        if wb == pointedness(cone).pointed == cb:
            agree += 1

    half_plane = make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    cert = is_well_based(ConeRegion.piece(half_plane))
    w = np.asarray(cert.witness_weights)
    pts = np.asarray(cert.witness_points)
    witness_ok = (
        cert.kind is BaseKind.NOT_WELL_BASED
        and np.all(w >= -1e-12)
        and abs(w.sum() - 1.0) <= 1e-9
        and float(np.linalg.norm(w @ pts)) <= 1e-8
    )
    ok = agree == 100 and witness_ok
    _report(9, ok,
            f"well-based = pointed = convex-base {agree}/100, "
            f"half-plane zero-hull witness {'valid' if witness_ok else 'invalid'}")


def test_criterion_10_interpolation_interval():
    wedge = ConeRegion.piece(make_polycone([[1.0, 1.0], [-1.0, 1.0]]))
    upper = make_polycone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    gamma = interpolate(wedge, upper)
    ok = gamma is not None
    detail = "no interpolant"
    if ok:
        lo, hi = gamma.certificate.alpha_interval
        check = verify_interpolation(gamma, wedge, upper, count=1000,
                                     rng=np.random.default_rng(10))
        ok = (
            abs(lo) <= 1e-9
            and abs(hi - math.sqrt(0.5)) <= 1e-6
            and check.ok
            and check.inner_violations == 0
            and check.base_violations == 0
        )
        detail = (f"interval ({lo:.2e}, {hi:.10f}), "
                  f"{check.inner_count}+{check.base_count} samples, "
                  f"{check.inner_violations + check.base_violations} violations")
    _report(10, ok, detail)


def test_criterion_11_oracle_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    resolution = 0.25
    queries = 0
    within = 0
    for dim, n_regions, n_dirs in ((2, 10, 25), (3, 5, 50)):
        bound = covering_bound(dim, resolution)
        for _ in range(n_regions):
            region = random_region(rng, dim)
            cloud = sample_norm_base(region, resolution=resolution).points
            while len(cloud) < 100:
                region = random_region(rng, dim)
                cloud = sample_norm_base(region, resolution=resolution).points
            for _ in range(n_dirs):
                f = random_unit(rng, dim)
                vals = cloud @ f
                lo = lmo_norm_base(region, f).value
                hi = support_norm_base(region, f).value
                queries += 1
                if (-1e-9 <= vals.min() - lo <= bound
                        and -1e-9 <= hi - vals.max() <= bound):
                    within += 1
    elapsed = time.perf_counter() - t0
    ok = queries == 500 and within == queries
    _report(11, ok,
            f"engine within covering bound on {within}/{queries} queries "
            f"({elapsed:.1f} s)")


def _exact_margin(v, C, K):
    u = v / np.linalg.norm(v)
    return min(C.lmo(u).value, K.lmo(-u).value)


def test_criterion_12_bidirectional_linear_separator():
    # The independent check: both one-sided solves run to the end.  The
    # linear functional exists exactly when both separate.  Its exact margin
    # min(min_C v.c, min_K -v.k) is, to tol, at least that of x1 - x2 of
    # those solves, the construction it replaced, and of x1/hi1 - x2/hi2, a
    # separator for any two certificates: v is the max-margin functional to
    # within its solve's precision, and either construction can itself be
    # the max-margin one.
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    done = agree = linear = margin_ok = 0
    while done < 200:
        dim = int(rng.integers(2, 7))
        cones = [random_unpointed_cone(rng, dim) if rng.random() < 0.25
                 else random_pointed_cone(rng, dim) for _ in range(2)]
        if any(map(is_whole_space, cones)):
            continue
        C, K = map(ConeRegion.piece, cones)
        full = [body_distance(body(X, False), body(Y, True))
                for X, Y in ((C, K), (K, C))]
        if any(not r.certified or r.kind == "positive" and r.distance <= 1e-3
               for r in full):
            continue  # margin filter: keep clear of the dead band
        res = separate_convex_bidirectional(C, K)
        done += 1
        both = all(decide_gap(r, "one-sided", DEFAULT_TOL) for r in full)
        agree += (res.linear is not None) == both
        if res.linear is None or not both:
            continue
        linear += 1
        x1, x2 = (r.functional / np.linalg.norm(r.functional) for r in full)
        best = max(_exact_margin(x1 - x2, C, K),
                   _exact_margin(x1 / C.lmo(x1).value - x2 / K.lmo(x2).value, C, K))
        margin_ok += _exact_margin(res.linear, C, K) >= best - DEFAULT_TOL
    elapsed = time.perf_counter() - t0
    ok = agree == done and margin_ok == linear >= 50 and elapsed < 60.0
    _report(12, ok,
            f"linear separator exists = both one-sided solves separate "
            f"{agree}/{done}, margin at least the old and the two-certificate "
            f"constructions' to tol {margin_ok}/{linear} ({elapsed:.1f} s)")
