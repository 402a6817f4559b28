"""Strict separation of cone regions by Bishop-Phelps cones.

A Bishop-Phelps cone is the sublevel set C(x*, a) = {x : x*(x) >= a*|x|}.
This module decides whether two cone regions C and K admit such a cone G
with C \\ {0} inside its interior and K touching it only at the origin, and
when they do, it returns a checkable certificate: a functional x*, the
exact interval of thresholds a that work for it, and the augmented-dual
classes the pair (x*, a) lands in.  The criterion is reduced to a single
convex distance: a certificate exists exactly when the distance between the
hull body of C's norm-base and the origin-adjoined hull body of K's
norm-base is positive, and any displacement whose Frank-Wolfe lower bound
is positive is itself a functional.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import geometry
from .distance import (
    DEFAULT_TOL,
    POSITIVE,
    DistanceResult,
    PolytopeBody,
    body_distance,
    decide_gap,
    origin_body,
)
from .errors import (
    DegenerateCone,
    DimensionMismatch,
    DimensionNot2D,
    Inconclusive,
    NotConvex,
    TrivialRegion,
)
from .geometry import Norm, PolyCone, dual_norm, make_polycone, norm_value
from .regions import ConeRegion, body

# classification band for membership queries, scaled by 1 + |x|
MEMBERSHIP_BAND = 1e-10


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class Orientation(Enum):
    C_FROM_K = "CfromK"
    K_FROM_C = "KfromC"


@dataclass(frozen=True, eq=False)
class NormLinearFunctional:
    """x |-> x*(x) + a*|x|, the defining function of a Bishop-Phelps cone."""

    x_star: np.ndarray
    alpha: float
    norm: Norm = Norm.EUCLIDEAN

    @property
    def dim(self) -> int:
        return self.x_star.shape[0]

    @property
    def dual_norm_value(self) -> float:
        return dual_norm(self.x_star, self.norm)

    @property
    def is_trivial_cone(self) -> bool:
        """C(x*, a) reduced to rays of Cauchy-Schwarz equality or {0}."""
        return self.alpha >= self.dual_norm_value

    @property
    def is_whole_space(self) -> bool:
        return self.alpha <= -self.dual_norm_value


def eval_norm_linear(f: NormLinearFunctional, x) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise DimensionMismatch("point dimension does not match the functional")
    return float(f.x_star @ x) + f.alpha * norm_value(x, f.norm)


def bp_family_flags(f: NormLinearFunctional) -> frozenset[str]:
    flags = set()
    if 0.0 < f.alpha < f.dual_norm_value:
        flags.add("BP")
    if f.alpha == 0.0:
        flags.add("Lin")
    return frozenset(flags)


@dataclass(frozen=True, eq=False)
class BishopPhelpsCone:
    """C(x*, a) together with the separation families it belongs to.

    A cone built from a SeparationCertificate carries that certificate and
    its family flags ("BP" plus the augmented-dual classes cor_a_plus,
    a_sharp and aw_sharp that the threshold meets on the enclosed region);
    one built by bishop_phelps carries bp_family_flags alone.
    """

    functional: NormLinearFunctional
    family_flags: frozenset[str] = frozenset()
    certificate: "SeparationCertificate | None" = None

    @property
    def dim(self) -> int:
        return self.functional.dim


def bishop_phelps(x_star, alpha: float, norm: Norm = Norm.EUCLIDEAN) -> BishopPhelpsCone:
    f = NormLinearFunctional(np.asarray(x_star, dtype=float), float(alpha), norm)
    return BishopPhelpsCone(functional=f, family_flags=bp_family_flags(f))


def _classifiable(bp: BishopPhelpsCone) -> NormLinearFunctional:
    """bp's functional; DegenerateCone unless -|x*|_* < alpha < |x*|_*,
    where membership is defined."""
    f = bp.functional
    if f.is_trivial_cone or f.is_whole_space:
        raise DegenerateCone(
            "membership classification needs -|x*|_* < alpha < |x*|_*"
        )
    return f


def bp_membership(bp: BishopPhelpsCone, x) -> Membership:
    """Interior / boundary / exterior of C(x*, a), band +-1e-10*(1+|x|).

    Only defined for non-degenerate cones: a in (-|x*|_*, |x*|_*).
    """
    f = _classifiable(bp)
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise DimensionMismatch("point dimension does not match the cone")
    nx = norm_value(x, f.norm)
    score = float(f.x_star @ x) - f.alpha * nx
    band = MEMBERSHIP_BAND * (1.0 + nx)
    if score > band:
        return Membership.INTERIOR
    if score < -band:
        return Membership.EXTERIOR
    return Membership.BOUNDARY


def bp_boundary_rays_2d(x_star, alpha: float) -> np.ndarray:
    """The two boundary rays of a planar Euclidean Bishop-Phelps cone:
    the unit functional direction rotated by +-arccos(a/|x*|)."""
    xs = np.asarray(x_star, dtype=float)
    if xs.shape != (2,):
        raise DimensionNot2D("boundary rays in closed form need dimension 2")
    n = float(np.linalg.norm(xs))
    if n <= 1e-300 or not (-n < alpha < n):
        raise DegenerateCone("boundary rays need -|x*| < alpha < |x*|")
    theta = math.acos(alpha / n)
    base = math.atan2(xs[1], xs[0])
    return np.array(
        [
            [math.cos(base + theta), math.sin(base + theta)],
            [math.cos(base - theta), math.sin(base - theta)],
        ]
    )


def _check_nontrivial(region: ConeRegion) -> None:
    for cone in region.piece_cones():
        if geometry.is_whole_space(cone):
            raise TrivialRegion("a piece covers the whole space")


def _check_separable(C: ConeRegion, K: ConeRegion) -> None:
    """Reject regions in different dimensions or with a whole-space piece,
    and, structurally Inconclusive at any tol, a cone within rounding of a
    line (``geometry.nearly_a_line``), which no LMO error bound covers."""
    if C.dim != K.dim:
        raise DimensionMismatch("regions live in different dimensions")
    _check_nontrivial(C)
    _check_nontrivial(K)
    if any(geometry.nearly_a_line(leaf.cone) for leaf in C.leaves + K.leaves):
        raise Inconclusive("a cone's generators come within rounding of opposite")


def augmented_dual_membership(cone: ConeRegion, x_star, alpha: float) -> dict[str, bool]:
    """Membership of (x*, alpha) in the augmented dual classes of the cone.

    With m the exact minimum of x* over the cone's norm-base:
      a_plus      x*(x) >= alpha*|x| on the cone and alpha >= 0
      a_sharp     strict on the cone minus the origin (m > alpha)
      aw_sharp    strict on the closed norm-base; for the closed polyhedral
                  bases here this coincides with a_sharp
      cor_a_plus  m > alpha > 0, the interior condition driving separation
    Negative alpha is outside all four domains.  The comparisons are exact
    on the LMO's value of m, which a certificate's alpha clears by half its
    certified interval's width, so it lands in its family here.
    """
    _check_nontrivial(cone)
    m = cone.lmo(np.asarray(x_star, dtype=float)).value
    if alpha < 0.0:
        return {"a_plus": False, "a_sharp": False, "aw_sharp": False,
                "cor_a_plus": False}
    return {"a_plus": m >= alpha, "a_sharp": m > alpha, "aw_sharp": m > alpha,
            "cor_a_plus": m > alpha > 0.0}


CERTIFICATE_FAMILY = frozenset({"BP", "a_sharp", "aw_sharp", "cor_a_plus"})


@dataclass(frozen=True, eq=False)
class SeparationCertificate:
    """Witness that a Bishop-Phelps cone strictly separates two regions.

    x_star separates the two norm-base hulls, but for every certificate,
    bidirectional ones too, it is the unit iterate at the bracket that
    decided the distance solve, not the max-margin functional.
    alpha_interval is that bracket's exact threshold interval for x_star:
    any alpha in it works, and the stored alpha is the midpoint.  Its width
    is a certified lower bound on the distance between the hulls.
    witnesses are points of the two hull bodies near that iterate, and
    distance, their gap, is an upper bound.  family, CERTIFICATE_FAMILY,
    holds exactly, as 0 <= lo < alpha < hi proves on that certified bracket.
    """

    orientation: Orientation
    x_star: np.ndarray
    alpha: float
    alpha_interval: tuple[float, float]
    distance: float
    witnesses: tuple[np.ndarray, np.ndarray]
    family: frozenset[str]
    iterations: int

    @property
    def dim(self) -> int:
        return self.x_star.shape[0]

    def functional(self) -> NormLinearFunctional:
        return NormLinearFunctional(self.x_star, self.alpha)

    def bishop_phelps(self) -> BishopPhelpsCone:
        """The certified cone.  Its threshold satisfies 0 < alpha < hi <=
        |x*| = 1, so bp_family_flags would give exactly {"BP"}, which
        family already holds."""
        return BishopPhelpsCone(functional=self.functional(),
                                family_flags=self.family, certificate=self)


def separate_nonsym(C: ConeRegion, K: ConeRegion, tol: float = DEFAULT_TOL
                    ) -> SeparationCertificate | None:
    """Strict one-sided separation: find C(x*, a) whose interior swallows
    C minus the origin while K meets it only at the origin.

    Decided through a single distance: the gap between the hull body of
    C's norm-base and the origin-adjoined hull body of K's.  The solve stops
    at the first bracket that decides it, and the certificate is read from
    that certified bracket with no further LMO call: x* = v/|v| for its
    iterate v (not the max-margin functional), hi = min of x* over C's base
    and lo = max(0, sup of x* over K's).  A certified zero gap proves no
    certificate exists.  Gaps inside the tolerance dead-band raise
    Inconclusive, as does, structurally, an interval with no interior or a
    cone within rounding of a line (``_check_separable``).
    """
    _check_separable(C, K)
    res = body_distance(body(C, adjoin_origin=False), body(K, adjoin_origin=True),
                        tol=tol, until_decided=True)
    if not decide_gap(res, "distance", tol):
        return None
    x_star, hi, low_k = res.bracket()
    lo = max(0.0, -low_k)
    alpha = 0.5 * (lo + hi)
    if not lo < alpha < hi:
        raise Inconclusive("threshold interval has no interior at the deciding bracket")
    return SeparationCertificate(
        orientation=Orientation.C_FROM_K,
        x_star=x_star,
        alpha=alpha,
        alpha_interval=(lo, hi),
        distance=res.distance,
        witnesses=(res.witness_a, res.witness_b),
        family=CERTIFICATE_FAMILY,
        iterations=res.iterations,
    )


def _separate_k_from_c(C: ConeRegion, K: ConeRegion, tol: float
                       ) -> SeparationCertificate | None:
    """separate_nonsym(K, C), labelled as the K-from-C orientation of (C, K)."""
    cert = separate_nonsym(K, C, tol)
    if cert is None:
        return None
    return replace(cert, orientation=Orientation.K_FROM_C)


def separate_sym(C: ConeRegion, K: ConeRegion, tol: float = DEFAULT_TOL
                 ) -> SeparationCertificate | None:
    """Separation in either orientation: C from K first, then K from C.

    Each orientation is separate_nonsym's, and the first certificate is
    returned as it stands.  Without one, an Inconclusive from either
    orientation is re-raised, one inside the dead band before an
    uncertified one.  Two certified zero gaps, each at most tol, give None,
    and no third solve could overturn it: the plain distance d between
    conv B_C and conv B_K is then at most 2 tol, below DEAD_BAND * tol.
    For a unit u attaining d = m_c - m_k (u.c >= m_c on conv B_C and
    u.k <= m_k on conv B_K): if m_k >= 0 the origin is on K's side and the
    C-from-K gap is at least d; if m_c <= 0 the K-from-C gap is; otherwise
    they are at least m_c and -m_k.
    """
    pending: Inconclusive | None = None
    for one_sided in (separate_nonsym, _separate_k_from_c):
        try:
            cert = one_sided(C, K, tol=tol)
        except Inconclusive as exc:
            if pending is None or not pending.dead_band:
                pending = exc
            continue
        if cert is not None:
            return cert
    if pending is not None:
        raise pending
    return None


@dataclass(frozen=True, eq=False)
class BidirectionalResult:
    """separate_nonsym's certificates both ways (None where one fails) and
    the max-margin linear separator, present exactly when both are."""

    cfromk: SeparationCertificate | None
    kfromc: SeparationCertificate | None
    linear: np.ndarray | None


def separate_convex_bidirectional(C: ConeRegion, K: ConeRegion,
                                  tol: float = DEFAULT_TOL) -> BidirectionalResult:
    """Both one-sided certificates for a convex pair, separate_nonsym's in
    each orientation, plus the max-margin linear separator when both exist.

    The separator comes from one solve run to the end: the near point x of
    conv(B_C u -B_K) to the origin, B the unit generators.  For a piece, a
    positive near point x of conv(B_C) has x.c >= |x|^2 on the whole unit
    base (a unit c combines unit generators with weights summing to >= 1),
    so x / |x| maximises min(min_C v.c, min_K -v.k) over unit v.  The solve
    needs no structural guard: a point p = lam c - (1 - lam) k of the hull
    |p| >= delta_1 / 2 if lam >= 1/2 and |p| >= delta_2 / 2 otherwise, so
    with both one-sided gaps certified the union distance exceeds 5 tol.
    The separator's existence is then decided, wherever that distance
    lies, dead band included: a solve certified positive gives v, and only
    one that ends uncertified raises Inconclusive.  No LMO is called after
    it: certified, its last bracket has min over the union of x.p above 0
    (at the iterate -x), so v is positive on C's generators, negative on K's.
    """
    if not (C.is_single_piece and K.is_single_piece):
        raise NotConvex("bidirectional separation needs single convex pieces")
    cfromk = separate_nonsym(C, K, tol)
    kfromc = _separate_k_from_c(C, K, tol)
    linear = None
    if cfromk is not None and kfromc is not None:
        union = PolytopeBody(np.concatenate([C.single_cone().generators,
                                             -K.single_cone().generators], axis=1).T)
        res = body_distance(origin_body(C.dim), union, tol=tol)
        if not (res.kind == POSITIVE and res.certified):
            raise Inconclusive(
                f"linear separator distance was not certified positive ({res.stop}); it "
                f"lies in [{res.lower_bound:.3e}, {res.distance:.3e}]"
            )
        v = res.witness_b / np.linalg.norm(res.witness_b)
        v.setflags(write=False)
        linear = v
    return BidirectionalResult(cfromk=cfromk, kfromc=kfromc, linear=linear)


def boundary_region(region: ConeRegion) -> ConeRegion:
    """Region whose pieces are the boundaries of the input's leaf cones:
    the facet cones of each solid one.

    A non-solid cone is its own boundary, so a region without a solid leaf
    cone, a boundary region among them, is returned unchanged; the
    boundary of a complement region is the boundary of the underlying cone.
    """
    if not any(geometry.solidity(leaf.cone) for leaf in region.leaves):
        return region
    return ConeRegion.union(
        *(ConeRegion.boundary(leaf.cone) for leaf in region.leaves)
    )


def _pieces_meet_only_at_origin(P: PolyCone, Q: PolyCone, tol: float) -> bool:
    """Whether pieces P and Q meet only at the origin.

    When one piece is pointed: the ``decide_gap`` verdict on the distance
    from hull(its unit generators) to the other piece; the solve stops at
    the first bracket that decides it.  Otherwise exactly through the duals:
    P and Q meet only at the origin iff P* + Q* is the whole space.
    """
    if geometry.pointedness(P).pointed:
        hull, other = P, Q
    elif geometry.pointedness(Q).pointed:
        hull, other = Q, P
    else:
        rows = np.concatenate([geometry.dual_generators(P),
                               geometry.dual_generators(Q)])
        # no rows: both pieces are the whole space
        return len(rows) > 0 and geometry.is_whole_space(make_polycone(rows))
    res = body_distance(
        PolytopeBody(hull.generators.T.copy()),
        body(ConeRegion.piece(other), adjoin_origin=True),
        tol=tol,
        until_decided=True,
    )
    return decide_gap(res, "intersection distance", tol)


def _inside_interior(P: PolyCone, cone: PolyCone) -> bool:
    return all(geometry.strictly_interior(cone, g) for g in P.generators.T)


def cones_meet_only_at_origin(C: ConeRegion, K: ConeRegion,
                              tol: float = DEFAULT_TOL) -> bool:
    """Exact triviality test for the intersection of two regions, leaf by
    leaf through their pieces.

    Every ray of a cone crosses the convex hull of its unit generators, and
    for a pointed cone that hull misses the origin; so piece P meets piece Q
    beyond the origin exactly when hull(P's generators) touches Q.  A pair
    of non-pointed pieces is decided through their duals instead.  A piece
    meets the closed complement of a solid cone only at the origin exactly
    when its generators are interior to that cone.  Two closed complements
    always meet beyond the origin in d >= 2: each excluded cone lies in a
    half-space a.x >= 0, and some x != 0 has a.x <= 0 and b.x <= 0.  In
    R^1 they are the rays opposite the excluded ones, and meet only at the
    origin when those are opposite.
    """
    for a in C.leaves:
        for b in K.leaves:
            if not (a.pieces or b.pieces):
                ok = C.dim == 1 and float(
                    a.cone.generators[0, 0] * b.cone.generators[0, 0]) < 0.0
            elif not b.pieces:
                ok = all(_inside_interior(P, b.cone) for P in a.pieces)
            elif not a.pieces:
                ok = all(_inside_interior(Q, a.cone) for Q in b.pieces)
            else:
                ok = all(_pieces_meet_only_at_origin(P, Q, tol)
                         for P in a.pieces for Q in b.pieces)
            if not ok:
                return False
    return True


@dataclass(frozen=True, eq=False)
class BoundaryEquivalenceReport:
    """Five equivalent one-sided separation conditions.

    conditions[0]: bases of the full cones are hull-separated
    conditions[1]: same for their closures (identical for closed cones)
    conditions[2]: boundary vs boundary separation and trivial intersection
    conditions[3]: boundary vs closure separation and trivial intersection
    conditions[4]: closure vs boundary separation and trivial intersection
    consistent records whether all five agreed, as equivalent forms must.

    distances and lower_bounds, keyed as FORM_KEYS, hold the ends of the
    certified bracket [lower_bound, distance] on each form's hull distance.
    Where form 1 separates or the cones meet beyond the origin, the three
    boundary forms take form 1's lower bound, and no solve's distance: None.
    """

    conditions: tuple[bool, bool, bool, bool, bool]
    meet_only_at_origin: bool
    distances: dict[str, float | None]
    lower_bounds: dict[str, float]
    consistent: bool


FORM_KEYS = ("full", "closure", "boundary_boundary", "boundary_closure",
             "closure_boundary")


def boundary_forms(C: ConeRegion, K: ConeRegion
                   ) -> dict[str, tuple[ConeRegion, ConeRegion]]:
    """The pair of regions whose hull distance decides each of the five
    forms, keyed as FORM_KEYS.  Forms naming one pair hold the same tuple."""
    bd_c, bd_k = boundary_region(C), boundary_region(K)
    return dict(zip(FORM_KEYS, ((C, K),) * 2 + ((bd_c, bd_k), (bd_c, K), (C, bd_k))))


def boundary_equivalence_report(C: ConeRegion, K: ConeRegion,
                                tol: float = DEFAULT_TOL
                                ) -> BoundaryEquivalenceReport:
    """Evaluate the five equivalent forms of one-sided base separation and
    flag any disagreement.  Each solve stops at its first deciding bracket.

    Form 1 is solved first.  If it separates, so does every form: bd C is in
    C and bd K in K, so conv B_bdC is in conv B_C and conv(B_bdK u {0}) in
    conv(B_K u {0}), which bounds each boundary form's hull distance by form
    1's lower bound; disjoint bases give C n K = {0}.  Otherwise the
    intersection is tested, and cones that meet beyond the origin, which
    fail forms 3 to 5, take form 1's bracket too (in R^2 and up).  Else
    each distinct pair of regions takes one solve: a closed cone is its own
    closure, and a region without a solid leaf cone is its own boundary."""
    _check_separable(C, K)

    @functools.cache
    def solve(a: ConeRegion, b: ConeRegion) -> DistanceResult:
        return body_distance(body(a, False), body(b, True), tol=tol,
                             until_decided=True)

    def gap(a: ConeRegion, b: ConeRegion) -> tuple[bool, DistanceResult]:
        res = solve(a, b)
        return decide_gap(res, "boundary-condition distance", tol), res

    try:
        # in R^1 every boundary is {0}, whose empty base boundary_forms rejects
        derived = C.dim > 1 and gap(C, K)[0]
    except Inconclusive:
        derived = False  # raised again below, after the checks that come first
    meet = derived or cones_meet_only_at_origin(C, K, tol=tol)
    derived = derived or (C.dim > 1 and not meet)
    pairs = dict.fromkeys(FORM_KEYS, (C, K)) if derived else boundary_forms(C, K)
    forms = {key: gap(a, b) for key, (a, b) in pairs.items()}
    c1, c2, s3, s4, s5 = (ok for ok, _ in forms.values())
    conditions = (c1, c2, s3 and meet, s4 and meet, s5 and meet)
    return BoundaryEquivalenceReport(
        conditions=conditions,
        meet_only_at_origin=meet,
        distances={k: None if derived and k in FORM_KEYS[2:] else res.distance
                   for k, (_, res) in forms.items()},
        lower_bounds={k: res.lower_bound for k, (_, res) in forms.items()},
        consistent=all(conditions) or not any(conditions),
    )


@dataclass(frozen=True, eq=False)
class VerificationReport:
    ok: bool
    enclosed_count: int
    excluded_count: int
    enclosed_violations: int
    excluded_violations: int
    min_enclosed_margin: float
    min_excluded_margin: float


def verify_certificate(cert: SeparationCertificate, C: ConeRegion,
                       K: ConeRegion, count: int = 1000,
                       rng: np.random.Generator | None = None
                       ) -> VerificationReport:
    """Sampled soundness check of the separation inequalities.

    On the enclosed side's base every sample must satisfy x*(x) > alpha,
    on the excluded side's base x*(x) < alpha; the margins are reported so
    near-misses are visible even when the verdict is clean.
    """
    from .oracle import sample_norm_base

    enclosed, excluded = (
        (C, K) if cert.orientation == Orientation.C_FROM_K else (K, C)
    )
    pc = sample_norm_base(enclosed, count=count, rng=rng).points
    pk = sample_norm_base(excluded, count=count, rng=rng).points
    vc = pc @ cert.x_star - cert.alpha
    vk = cert.alpha - (pk @ cert.x_star)
    return VerificationReport(
        ok=bool((vc > 0.0).all() and (vk > 0.0).all()),
        enclosed_count=len(pc),
        excluded_count=len(pk),
        enclosed_violations=int((vc <= 0.0).sum()),
        excluded_violations=int((vk <= 0.0).sum()),
        min_enclosed_margin=float(vc.min()),
        min_excluded_margin=float(vk.min()),
    )
