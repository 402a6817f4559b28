#!/usr/bin/env python3
"""Random-instance agreement study.

Draws random cone regions, filters out margin-degenerate pairs, and counts
how often the independent routes agree:

  * certificate existence vs. positivity of the hull-body distance,
  * the symmetric verdict vs. the OR of the two one-sided verdicts,
  * pairwise agreement of the five boundary-based conditions on convex
    pairs that meet only at the origin,
  * the certified bracket DEAD_BAND * tol < hi - lo <= distance of every
    certificate drawn: its threshold interval's width is a lower bound on
    the hull distance, its witnesses' gap an upper bound,
  * the bracket [lower_bounds, distances] of each of the five boundary
    forms, whose solves stop once decided, against the distance of the
    same solve run to the end,
  * for every C drawn, is_well_based against has_convex_base and, for a
    single piece, pointedness; and, with a convex base, its x* positive on
    1000 sampled base points and its base vertices scoring 1.

Draws whose reference distance solve did not certify, and pairs that raise
Inconclusive, are counted and reported rather than compared.  Exits 1 when
any agreement count falls short of its total or any bracket is violated.
"""
import argparse
import sys
import time

import numpy as np

from conesep.basis import has_convex_base, is_well_based
from conesep.distance import DEAD_BAND, DEFAULT_TOL, body_distance
from conesep.errors import Inconclusive
from conesep.geometry import pointedness
from conesep.oracle import random_pointed_cone, random_region, sample_norm_base
from conesep.regions import ConeRegion, body
from conesep.separation import (
    boundary_equivalence_report,
    boundary_forms,
    cones_meet_only_at_origin,
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


def base_check(C, rng):
    """Whether the base verdicts for C agree, and, when C has a convex
    base, whether its x* and base vertices check out (else None)."""
    wb = is_well_based(C)
    cb = has_convex_base(C, well_based=wb)
    verdicts = {wb.well_based, cb.has_base}
    if C.is_single_piece:
        verdicts.add(pointedness(C.single_cone()).pointed)
    if not cb.has_base:
        return len(verdicts) == 1, None
    pts = sample_norm_base(C, count=1000, rng=rng).points
    sound = ((pts @ cb.x_star > 0.0).all()
             and np.abs(cb.base_vertices @ cb.x_star - 1.0).max() <= VERTEX_TOL)
    return len(verdicts) == 1, bool(sound)


def existence_study(dims, per_dim, margin, rng):
    total = agree = verified = certs = skipped = uncertified = 0
    brackets = bracket_ok = 0
    sym_total = sym_agree = sym_inconclusive = 0
    bases = base_agree = base_inconclusive = convex = convex_ok = 0
    vrng = np.random.default_rng(rng.integers(2**32))
    for dim in dims:
        made = 0
        while made < per_dim:
            C = random_region(rng, dim)
            K = random_region(rng, dim)
            try:
                verdicts_agree, sound = base_check(C, vrng)
            except Inconclusive:
                base_inconclusive += 1
            else:
                bases += 1
                base_agree += verdicts_agree
                if sound is not None:
                    convex += 1
                    convex_ok += sound
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
            try:
                kc = separate_nonsym(K, C)
                sym = separate_sym(C, K)
            except Inconclusive:
                sym_inconclusive += 1
                continue
            drawn = [c for c in (kc, sym) if c is not None]
            brackets += len(drawn)
            bracket_ok += sum(map(bracketed, drawn))
            sym_total += 1
            if (sym is not None) == ((cert is not None) or (kc is not None)):
                sym_agree += 1
    return {
        "pairs": total,
        "existence_agree": agree,
        "certificates": certs,
        "verified": verified,
        "brackets": brackets,
        "bracket_ok": bracket_ok,
        "sym_pairs": sym_total,
        "sym_agree": sym_agree,
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

    done = consistent = inconclusive = brackets = bracket_ok = 0
    while done < count:
        dim = int(rng.choice(dims))
        C, K = draw(dim), draw(dim)
        if not cones_meet_only_at_origin(C, K):
            continue
        try:
            report = boundary_equivalence_report(C, K)
        except Inconclusive:
            inconclusive += 1
            continue
        gaps = [d for d in report.distances.values() if d > 0.0]
        if gaps and min(gaps) <= margin:
            continue
        done += 1
        if report.consistent:
            consistent += 1
        to_the_end = {}
        for key, pair in boundary_forms(C, K).items():
            if pair not in to_the_end:
                a, b = pair
                to_the_end[pair] = body_distance(body(a, False),
                                                 body(b, True)).distance
            full = to_the_end[pair]
            brackets += 1
            bracket_ok += (report.lower_bounds[key] <= full + ROUNDING
                           and full <= report.distances[key] + ROUNDING)
    return {"pairs": done, "consistent": consistent,
            "inconclusive": inconclusive, "brackets": brackets,
            "bracket_ok": bracket_ok}


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
    elapsed = time.perf_counter() - t0

    print(f"dims {dims}, {args.per_dim} pairs per dim, margin {args.margin:g}, "
          f"seed {args.seed}")
    print(f"  existence = distance positivity: "
          f"{ex['existence_agree']}/{ex['pairs']}")
    print(f"  certificates verified (1000 samples): "
          f"{ex['verified']}/{ex['certificates']}")
    print(f"  DEAD_BAND * tol < hi - lo <= distance + {ROUNDING:g}: "
          f"{ex['bracket_ok']}/{ex['brackets']} certificates")
    print(f"  sym = OR of one-sided: {ex['sym_agree']}/{ex['sym_pairs']} "
          f"({ex['sym_inconclusive']} Inconclusive, not counted)")
    print(f"  well-based = convex base (= pointed, one piece): "
          f"{ex['base_agree']}/{ex['bases']} "
          f"({ex['base_inconclusive']} Inconclusive, not counted)")
    print(f"  convex-base x* > 0 on 1000 base samples, vertices at 1 "
          f"(+- {VERTEX_TOL:g}): {ex['convex_ok']}/{ex['convex']}")
    print(f"  boundary conditions consistent: "
          f"{bd['consistent']}/{bd['pairs']} "
          f"({bd['inconclusive']} Inconclusive, not counted)")
    print(f"  boundary forms, lower bound <= distance run to the end <= "
          f"distance (+ {ROUNDING:g}): {bd['bracket_ok']}/{bd['brackets']}")
    print(f"  margin-filtered draws: {ex['margin_skipped']}")
    print(f"  uncertified distance solves (draw skipped): {ex['uncertified']}")
    print(f"  total time: {elapsed:.1f} s")
    short = (ex["existence_agree"] < ex["pairs"]
             or ex["verified"] < ex["certificates"]
             or ex["bracket_ok"] < ex["brackets"]
             or ex["sym_agree"] < ex["sym_pairs"]
             or ex["base_agree"] < ex["bases"]
             or ex["convex_ok"] < ex["convex"]
             or bd["consistent"] < bd["pairs"]
             or bd["bracket_ok"] < bd["brackets"])
    return 1 if short else 0


if __name__ == "__main__":
    sys.exit(main())
