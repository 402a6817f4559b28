#!/usr/bin/env python3
"""Random-instance agreement study.

Draws random cone regions, filters out margin-degenerate pairs, and counts
how often the independent routes agree:

  * certificate existence vs. positivity of the hull-body distance,
  * the symmetric verdict vs. the OR of the two one-sided verdicts,
  * the symmetric verdict vs. the plain distance between conv B_C and
    conv B_K, solved to the end: at most 2 * tol when neither orientation
    works, at least the certificate's hi - lo when one does,
  * agreement of the five boundary-based conditions on convex pairs, each
    distinct pair of regions solved to the end and judged on its own with
    the intersection test, with each other and with the report (the report
    derives the boundary forms from form 1 when it separates, so its own
    consistent flag holds there by construction),
  * the certified bracket DEAD_BAND * tol < hi - lo <= distance of every
    certificate drawn: its threshold interval's width is a lower bound on
    the hull distance, its witnesses' gap an upper bound,
  * every certificate's threshold interval, which separate_nonsym reads
    from its deciding bracket, against the LMOs re-evaluated at its x* as
    the same certified bounds, each value net of its error bound:
    lo = max(0, sup of x* over the excluded base + error) and hi = min of
    x* over the enclosed base - error; and is_well_based's alpha against
    that certified minimum of its x* over the base, backed off by
    ALPHA_BACKOFF,
  * the bracket [lower_bounds, distances] of each of the five boundary
    forms, whose solves stop once decided, against the distance of the
    same pair solved to the end; a derived form has no distance, so only
    its lower bound is checked,
  * for every C drawn, is_well_based against has_convex_base and, for a
    single piece, pointedness; and, with a convex base, its x* positive on
    1000 sampled base points and its base vertices scoring 1,
  * on convex piece pairs, a quarter of the pieces unpointed,
    separate_convex_bidirectional's linear functional against the two
    one-sided solves run to the end: it exists exactly when both separate,
    and its exact margin min(min_C v.c, min_K -v.k) is, to tol, at least
    that of x1 - x2, the construction it replaced, and of x1/hi1 - x2/hi2,
    which separates for any two certificates.  v is the max-margin
    functional to within its solve's precision, tol, and either
    construction can itself be the max-margin one,
  * in R^2 and R^3, separate_nonsym with the boundary of a solid cone (the
    union of its facet cones) on one side and a random region on the
    other, against the grid search ``oracle_separation``; pairs whose
    distance is within 3 covering bounds of the sampled clouds are beyond
    the oracle's resolving power and are skipped,
  * in R^2 to R^4, separate_nonsym on flat pairs: a cone K with two rays
    eta = 10^U(-16, -4) rad short of opposite, and a ray C inside K.  C
    lies in K, so every certificate is false; an Inconclusive counts as no
    certificate.

Draws whose reference distance solve did not certify, and pairs that raise
Inconclusive, are counted and reported rather than compared.  Exits 1 when
any agreement count falls short of its total or any bracket is violated.
"""
import argparse
import math
import sys
import time

import numpy as np

from conesep.basis import ALPHA_BACKOFF, has_convex_base, is_well_based
from conesep.distance import DEAD_BAND, DEFAULT_TOL, body_distance, decide_gap
from conesep.errors import Inconclusive
from conesep.geometry import is_whole_space, make_polycone, pointedness, solidity
from conesep.oracle import (
    covering_bound,
    oracle_separation,
    random_pointed_cone,
    random_region,
    random_unpointed_cone,
    sample_norm_base,
)
from conesep.regions import ConeRegion, body, lmo_norm_base, support_norm_base
from conesep.separation import (
    Orientation,
    boundary_equivalence_report,
    boundary_forms,
    cones_meet_only_at_origin,
    separate_convex_bidirectional,
    separate_nonsym,
    separate_sym,
    verify_certificate,
)


# hi, lo and the distance each come out of products of unit vectors a few
# ulps off, so where a solve ends on the max-margin functional, hi - lo and
# the distance agree only to about 1e-16
ROUNDING = 1e-14
# a base vertex is g / (x* . g), so x* scores it 1 up to rounding
VERTEX_TOL = 1e-9


def bracketed(cert) -> bool:
    lo, hi = cert.alpha_interval
    return DEAD_BAND * DEFAULT_TOL < hi - lo <= cert.distance + ROUNDING


def certified_min(region, x_star) -> float:
    """The LMO's certified lower bound on the minimum of x_star over the base."""
    res = lmo_norm_base(region, x_star)
    return res.value - res.error


def reread(cert, C, K) -> bool:
    """Whether cert's threshold interval is the LMOs' certified bounds
    re-evaluated at its x*."""
    enclosed, excluded = (C, K) if cert.orientation is Orientation.C_FROM_K else (K, C)
    lo, hi = cert.alpha_interval
    sup = support_norm_base(excluded, cert.x_star)
    return (abs(lo - max(0.0, sup.value + sup.error)) <= ROUNDING
            and abs(hi - certified_min(enclosed, cert.x_star)) <= ROUNDING)


def base_check(C, rng):
    """Whether the base verdicts for C agree, and, when C is well-based,
    whether its alpha is the backed-off minimum of its x* over the base
    and whether its x* and base vertices check out (else None, None)."""
    wb = is_well_based(C)
    cb = has_convex_base(C, well_based=wb)
    verdicts = {wb.well_based, cb.has_base}
    if C.is_single_piece:
        verdicts.add(pointedness(C.single_cone()).pointed)
    if not cb.has_base:
        return len(verdicts) == 1, None, None
    alpha = (1.0 - ALPHA_BACKOFF) * certified_min(C, wb.x_star)
    pts = sample_norm_base(C, count=1000, rng=rng).points
    sound = ((pts @ cb.x_star > 0.0).all()
             and np.abs(cb.base_vertices @ cb.x_star - 1.0).max() <= VERTEX_TOL)
    return len(verdicts) == 1, abs(wb.alpha - alpha) <= ROUNDING, bool(sound)


def existence_study(dims, per_dim, margin, rng):
    total = agree = verified = certs = skipped = uncertified = 0
    brackets = bracket_ok = rereads = reread_ok = 0
    sym_total = sym_agree = sym_plain_ok = sym_inconclusive = 0
    bases = base_agree = base_inconclusive = convex = convex_ok = 0
    vrng = np.random.default_rng(rng.integers(2**32))
    for dim in dims:
        made = 0
        while made < per_dim:
            C = random_region(rng, dim)
            K = random_region(rng, dim)
            try:
                verdicts_agree, alpha_ok, sound = base_check(C, vrng)
            except Inconclusive:
                base_inconclusive += 1
            else:
                bases += 1
                base_agree += verdicts_agree
                if sound is not None:
                    convex += 1
                    convex_ok += sound
                    rereads += 1
                    reread_ok += alpha_ok
            res = body_distance(body(C, False), body(K, True))
            if not res.certified:
                # no reference verdict to compare against
                uncertified += 1
                continue
            if res.kind == "positive" and res.distance <= margin:
                skipped += 1
                continue
            made += 1
            positive = res.kind == "positive"
            cert = separate_nonsym(C, K)
            total += 1
            if (cert is not None) == positive:
                agree += 1
            if cert is not None:
                certs += 1
                if verify_certificate(cert, C, K, count=1000, rng=vrng).ok:
                    verified += 1
                brackets += 1
                bracket_ok += bracketed(cert)
                rereads += 1
                reread_ok += reread(cert, C, K)
            try:
                kc = separate_nonsym(K, C)
                sym = separate_sym(C, K)
            except Inconclusive:
                sym_inconclusive += 1
                continue
            drawn = [c for c in (kc, sym) if c is not None]
            brackets += len(drawn)
            bracket_ok += sum(map(bracketed, drawn))
            rereads += len(drawn)
            # kc's orientation reads C_FROM_K, for the pair (K, C)
            reread_ok += sum(reread(c, *pair) for c, pair in ((kc, (K, C)), (sym, (C, K)))
                             if c is not None)
            sym_total += 1
            if (sym is not None) == ((cert is not None) or (kc is not None)):
                sym_agree += 1
            plain = body_distance(body(C, False), body(K, False))
            if sym is None:
                sym_plain_ok += plain.lower_bound <= 2 * DEFAULT_TOL + ROUNDING
            else:
                lo, hi = sym.alpha_interval
                sym_plain_ok += plain.distance + ROUNDING >= hi - lo
    return {
        "pairs": total,
        "existence_agree": agree,
        "certificates": certs,
        "verified": verified,
        "brackets": brackets,
        "bracket_ok": bracket_ok,
        "rereads": rereads,
        "reread_ok": reread_ok,
        "sym_pairs": sym_total,
        "sym_agree": sym_agree,
        "sym_plain_ok": sym_plain_ok,
        "sym_inconclusive": sym_inconclusive,
        "bases": bases,
        "base_agree": base_agree,
        "base_inconclusive": base_inconclusive,
        "convex": convex,
        "convex_ok": convex_ok,
        "margin_skipped": skipped,
        "uncertified": uncertified,
    }


def boundary_study(dims, count, margin, rng):
    def draw(dim):
        # dim to 2 * dim rays, so that most cones are solid and their
        # boundaries are facet pieces
        n_rays = int(rng.integers(dim, 2 * dim + 1))
        return ConeRegion.piece(random_pointed_cone(rng, dim, n_rays=n_rays))

    done = consistent = separated = inconclusive = brackets = bracket_ok = 0
    while done < count:
        dim = int(rng.choice(dims))
        C, K = draw(dim), draw(dim)
        meet = cones_meet_only_at_origin(C, K)
        # each distinct pair of the five forms solved to the end
        to_the_end = {}
        forms = boundary_forms(C, K)
        for a, b in forms.values():
            if (a, b) not in to_the_end:
                to_the_end[a, b] = body_distance(body(a, False), body(b, True))
        gaps = [r.distance for r in to_the_end.values() if r.kind == "positive"]
        if gaps and min(gaps) <= margin:
            continue
        try:
            report = boundary_equivalence_report(C, K)
            c1, c2, s3, s4, s5 = (decide_gap(to_the_end[pair], "form", DEFAULT_TOL)
                                  for pair in forms.values())
        except Inconclusive:
            inconclusive += 1
            continue
        done += 1
        conditions = (c1, c2, s3 and meet, s4 and meet, s5 and meet)
        separated += all(conditions)
        consistent += (len(set(conditions)) == 1
                       and report.conditions == conditions
                       and report.meet_only_at_origin == meet)
        for key, pair in forms.items():
            full, upper = to_the_end[pair].distance, report.distances[key]
            brackets += 1
            bracket_ok += (report.lower_bounds[key] <= full + ROUNDING
                           and (upper is None or full <= upper + ROUNDING))
    return {"pairs": done, "consistent": consistent, "separated": separated,
            "inconclusive": inconclusive, "brackets": brackets,
            "bracket_ok": bracket_ok}


def exact_margin(v, C, K) -> float:
    """min(min_C u.c, min_K -u.k) over the two unit bases, u = v / |v|."""
    u = v / np.linalg.norm(v)
    return min(C.lmo(u).value, K.lmo(-u).value)


def bidir_study(dims, per_dim, margin, rng):
    done = agree = linear = margin_ok = inconclusive = 0
    for dim in dims:
        made = 0
        while made < per_dim:
            cones = [random_unpointed_cone(rng, dim) if rng.random() < 0.25
                     else random_pointed_cone(rng, dim) for _ in range(2)]
            if any(map(is_whole_space, cones)):
                continue
            C, K = map(ConeRegion.piece, cones)
            full = [body_distance(body(X, False), body(Y, True))
                    for X, Y in ((C, K), (K, C))]
            if any(not r.certified or r.kind == "positive" and r.distance <= margin
                   for r in full):
                continue
            try:
                res = separate_convex_bidirectional(C, K)
            except Inconclusive:
                inconclusive += 1
                continue
            made += 1
            done += 1
            both = all(decide_gap(r, "one-sided", DEFAULT_TOL) for r in full)
            agree += (res.linear is not None) == both
            if res.linear is None or not both:
                continue
            linear += 1
            x1, x2 = (r.functional / np.linalg.norm(r.functional) for r in full)
            best = max(exact_margin(x1 - x2, C, K),
                       exact_margin(x1 / C.lmo(x1).value - x2 / K.lmo(x2).value, C, K))
            margin_ok += exact_margin(res.linear, C, K) >= best - DEFAULT_TOL
    return {"pairs": done, "agree": agree, "linear": linear, "margin_ok": margin_ok,
            "inconclusive": inconclusive}


def boundary_oracle_study(dims, count, rng):
    dims = [d for d in dims if d <= 3]  # the covering bound's calibration
    done = agree = separated = skipped = inconclusive = 0
    while dims and done < count:
        dim = int(rng.choice(dims))
        cone = random_pointed_cone(rng, dim, n_rays=int(rng.integers(dim, 2 * dim + 1)))
        if not solidity(cone):
            continue
        pair = [ConeRegion.boundary(cone), random_region(rng, dim)]
        C, K = pair if done % 2 == 0 else pair[::-1]
        resolution = 0.5 if dim == 2 else 1.0
        full = body_distance(body(C, False), body(K, True))
        if not full.certified or (full.kind == "positive"
                                  and full.distance <= 3 * covering_bound(dim, resolution)):
            skipped += 1
            continue
        try:
            cert = separate_nonsym(C, K)
        except Inconclusive:
            inconclusive += 1
            continue
        done += 1
        separated += cert is not None
        agree += (cert is not None) == oracle_separation(C, K, resolution=resolution).separated
    return {"pairs": done, "agree": agree, "separated": separated, "skipped": skipped,
            "inconclusive": inconclusive}


def flat_pair(rng, dim):
    """K: a ray g1, a ray eta short of -g1, and in R^3 and up one or two rays
    on one side of the plane of those two; C: a positive combination of
    K's rays, so a ray inside K."""
    eta = 10.0 ** rng.uniform(-16, -4)
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    g1, u = Q[:, 0], Q[:, 1]
    gens = [g1, -math.cos(eta) * g1 + math.sin(eta) * u]
    if dim > 2:
        n = Q[:, 2]
        extra = rng.standard_normal((int(rng.integers(1, 3)), dim))
        gens += list(extra + (np.abs(extra @ n) + 0.1)[:, None] * n)
    gens = np.array(gens)
    w = rng.uniform(0.1, 1.0, len(gens))
    w[:2] = rng.uniform(0.5, 1.0, 2)
    return ConeRegion.piece(make_polycone([w @ gens])), ConeRegion.piece(make_polycone(gens))


def flat_study(dims, per_dim, rng):
    done = no_cert = inconclusive = 0
    for dim in (d for d in dims if 2 <= d <= 4):
        for _ in range(per_dim):
            C, K = flat_pair(rng, dim)
            done += 1
            try:
                no_cert += separate_nonsym(C, K) is None
            except Inconclusive:
                inconclusive += 1
                no_cert += 1
    return {"pairs": done, "no_certificate": no_cert, "inconclusive": inconclusive}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="2,3",
                    help="comma-separated ambient dimensions")
    ap.add_argument("--per-dim", type=int, default=200)
    ap.add_argument("--boundary-pairs", type=int, default=100)
    ap.add_argument("--margin", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    dims = [int(d) for d in args.dims.split(",")]
    rng = np.random.default_rng(args.seed)

    t0 = time.perf_counter()
    ex = existence_study(dims, args.per_dim, args.margin, rng)
    bd = boundary_study(dims, args.boundary_pairs, args.margin, rng)
    bi = bidir_study(dims, args.per_dim, args.margin, rng)
    bo = boundary_oracle_study(dims, args.boundary_pairs, rng)
    fl = flat_study(dims, args.per_dim, rng)
    elapsed = time.perf_counter() - t0

    print(f"dims {dims}, {args.per_dim} pairs per dim, margin {args.margin:g}, "
          f"seed {args.seed}")
    print(f"  existence = distance positivity: "
          f"{ex['existence_agree']}/{ex['pairs']}")
    print(f"  certificates verified (1000 samples): "
          f"{ex['verified']}/{ex['certificates']}")
    print(f"  DEAD_BAND * tol < hi - lo <= distance + {ROUNDING:g}: "
          f"{ex['bracket_ok']}/{ex['brackets']} certificates")
    print(f"  threshold interval (and well-based alpha) = certified LMO bounds at x* "
          f"(+- {ROUNDING:g}): {ex['reread_ok']}/{ex['rereads']}")
    print(f"  sym = OR of one-sided: {ex['sym_agree']}/{ex['sym_pairs']} "
          f"({ex['sym_inconclusive']} Inconclusive, not counted)")
    print(f"  sym = plain-body distance (<= 2 tol when None, >= hi - lo "
          f"otherwise, + {ROUNDING:g}): {ex['sym_plain_ok']}/{ex['sym_pairs']}")
    print(f"  well-based = convex base (= pointed, one piece): "
          f"{ex['base_agree']}/{ex['bases']} "
          f"({ex['base_inconclusive']} Inconclusive, not counted)")
    print(f"  convex-base x* > 0 on 1000 base samples, vertices at 1 "
          f"(+- {VERTEX_TOL:g}): {ex['convex_ok']}/{ex['convex']}")
    print(f"  boundary conditions solved to the end agree with each other "
          f"and the report: {bd['consistent']}/{bd['pairs']} "
          f"({bd['separated']} separated, "
          f"{bd['inconclusive']} Inconclusive, not counted)")
    print(f"  boundary forms, lower bound <= distance run to the end <= "
          f"distance where solved (+ {ROUNDING:g}): "
          f"{bd['bracket_ok']}/{bd['brackets']}")
    print(f"  bidir linear exists = both one-sided solves, run to the end, "
          f"separate: {bi['agree']}/{bi['pairs']} "
          f"({bi['inconclusive']} Inconclusive, not counted)")
    print(f"  bidir margin + tol >= that of x1 - x2 and of x1/hi1 - x2/hi2: "
          f"{bi['margin_ok']}/{bi['linear']}")
    print(f"  boundary region on either side (R^2, R^3): separate_nonsym = "
          f"oracle_separation: {bo['agree']}/{bo['pairs']} "
          f"({bo['separated']} separated; {bo['skipped']} within 3 covering "
          f"bounds or uncertified, {bo['inconclusive']} Inconclusive, not counted)")
    print(f"  flat pairs (R^2 to R^4, rays 10^U(-16, -4) rad short of opposite), "
          f"C inside K, no certificate: {fl['no_certificate']}/{fl['pairs']} "
          f"({fl['inconclusive']} of them Inconclusive)")
    print(f"  margin-filtered draws: {ex['margin_skipped']}")
    print(f"  uncertified distance solves (draw skipped): {ex['uncertified']}")
    print(f"  total time: {elapsed:.1f} s")
    short = (ex["existence_agree"] < ex["pairs"]
             or ex["verified"] < ex["certificates"]
             or ex["bracket_ok"] < ex["brackets"]
             or ex["reread_ok"] < ex["rereads"]
             or ex["sym_agree"] < ex["sym_pairs"]
             or ex["sym_plain_ok"] < ex["sym_pairs"]
             or ex["base_agree"] < ex["bases"]
             or ex["convex_ok"] < ex["convex"]
             or bd["consistent"] < bd["pairs"]
             or bd["bracket_ok"] < bd["brackets"]
             or bi["agree"] < bi["pairs"]
             or bi["margin_ok"] < bi["linear"]
             or bo["agree"] < bo["pairs"]
             or fl["no_certificate"] < fl["pairs"])
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
