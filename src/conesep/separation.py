"""Strict separation of cone regions by Bishop-Phelps cones.

A Bishop-Phelps cone is the sublevel set C(x*, a) = {x : x*(x) >= a*|x|}.
This module decides whether two cone regions C and K admit such a cone G
with C \\ {0} inside its interior and K touching it only at the origin, and
when they do, it returns a checkable certificate: the functional x*, the
whole admissible interval of thresholds a, and the augmented-dual classes
the pair (x*, a) lands in.  The criterion is reduced to a single convex
distance: a certificate exists exactly when the distance between the hull
body of C's norm-base and the origin-adjoined hull body of K's norm-base is
positive, and the optimal displacement is itself the functional.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import geometry
from .distance import (
    DEAD_BAND,
    DEFAULT_TOL,
    PolytopeBody,
    body_distance,
    decide_gap,
)
from .errors import (
    DegenerateCone,
    DimensionMismatch,
    DimensionNot2D,
    Inconclusive,
    NotConvex,
    TrivialRegion,
)
from .geometry import Norm, PolyCone, dual_norm, norm_value
from .regions import ConeRegion, body

# classification band for membership queries, scaled by 1 + |x|
MEMBERSHIP_BAND = 1e-10
# strictness tolerance for augmented-dual flags
DUAL_TOL = 1e-12


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


def _bp_score(f: NormLinearFunctional, x: np.ndarray) -> tuple[float, float]:
    nx = norm_value(x, f.norm)
    return float(f.x_star @ x) - f.alpha * nx, nx


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

    family_flags may also carry augmented-dual classes (cor_a_plus, a_sharp,
    aw_sharp) relative to the reference region the cone was built to
    enclose.
    """

    functional: NormLinearFunctional
    family_flags: frozenset[str] = frozenset()
    reference: ConeRegion | None = None
    certificate: "SeparationCertificate | None" = None

    @property
    def dim(self) -> int:
        return self.functional.dim

    def membership(self, x) -> Membership:
        return bp_membership(self, x)

    def boundary_rays_2d(self) -> np.ndarray:
        return bp_boundary_rays_2d(self.functional.x_star, self.functional.alpha)


def bishop_phelps(x_star, alpha: float, norm: Norm = Norm.EUCLIDEAN,
                  reference: ConeRegion | None = None) -> BishopPhelpsCone:
    f = NormLinearFunctional(np.asarray(x_star, dtype=float), float(alpha), norm)
    flags = set(bp_family_flags(f))
    if reference is not None:
        dual = augmented_dual_membership(reference, f.x_star, f.alpha)
        flags.update(k for k, v in dual.items() if v and k != "a_plus")
    return BishopPhelpsCone(functional=f, family_flags=frozenset(flags),
                            reference=reference)


def bp_membership(bp: BishopPhelpsCone, x) -> Membership:
    """Interior / boundary / exterior of C(x*, a), band +-1e-10*(1+|x|).

    Only defined for non-degenerate cones: a in (-|x*|_*, |x*|_*).
    """
    f = bp.functional
    if f.is_trivial_cone or f.is_whole_space:
        raise DegenerateCone(
            "membership classification needs -|x*|_* < alpha < |x*|_*"
        )
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dim,):
        raise DimensionMismatch("point dimension does not match the cone")
    score, nx = _bp_score(f, x)
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


def augmented_dual_membership(cone: ConeRegion, x_star, alpha: float) -> dict[str, bool]:
    """Membership of (x*, alpha) in the augmented dual classes of the cone.

    With m the exact minimum of x* over the cone's norm-base:
      a_plus      x*(x) >= alpha*|x| on the cone and alpha >= 0
      a_sharp     strict on the cone minus the origin (m > alpha)
      aw_sharp    strict on the closed norm-base; for the closed polyhedral
                  bases here this coincides with a_sharp
      cor_a_plus  m > alpha > 0, the interior condition driving separation
    Negative alpha is outside all four domains.
    """
    _check_nontrivial(cone)
    m = cone.lmo(np.asarray(x_star, dtype=float)).value
    return _dual_flags(m, alpha)


def _dual_flags(m: float, alpha: float) -> dict[str, bool]:
    """augmented_dual_membership's flags, given m = min of x* over the base."""
    if alpha < 0.0:
        return {"a_plus": False, "a_sharp": False, "aw_sharp": False,
                "cor_a_plus": False}
    strict = m > alpha + DUAL_TOL
    return {
        "a_plus": m >= alpha - DUAL_TOL,
        "a_sharp": strict,
        "aw_sharp": strict,
        "cor_a_plus": strict and alpha > DUAL_TOL,
    }


@dataclass(frozen=True, eq=False)
class SeparationCertificate:
    """Witness that a Bishop-Phelps cone strictly separates two regions.

    Any alpha in the open alpha_interval works; the stored alpha is the
    midpoint.  witnesses are the nearest points of the two hull bodies whose
    gap produced x_star.
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

    def bishop_phelps(self, reference: ConeRegion | None = None) -> BishopPhelpsCone:
        f = self.functional()
        flags = set(bp_family_flags(f)) | {
            fl for fl in self.family if fl not in ("BP", "Lin")
        }
        return BishopPhelpsCone(functional=f, family_flags=frozenset(flags),
                                reference=reference, certificate=self)


def separate_nonsym(C: ConeRegion, K: ConeRegion, tol: float = DEFAULT_TOL
                    ) -> SeparationCertificate | None:
    """Strict one-sided separation: find C(x*, a) whose interior swallows
    C minus the origin while K meets it only at the origin.

    Decided through a single distance: the gap between the hull body of
    C's norm-base and the origin-adjoined hull body of K's.  A positive gap
    yields the functional (the optimal displacement) and the full interval
    of admissible thresholds; a certified zero gap proves no certificate
    exists.  Gaps inside the tolerance dead-band raise Inconclusive.
    """
    if C.dim != K.dim:
        raise DimensionMismatch("regions live in different dimensions")
    _check_nontrivial(C)
    _check_nontrivial(K)
    body_c = body(C, adjoin_origin=False)
    body_k0 = body(K, adjoin_origin=True)
    res = body_distance(body_c, body_k0, tol=tol)
    if not decide_gap(res, "distance", tol):
        return None
    x_star = res.functional / np.linalg.norm(res.functional)
    x_star.setflags(write=False)
    lo = max(0.0, body_k0.support(x_star).value)
    hi = C.lmo(x_star).value
    if not lo < hi:
        raise Inconclusive("support interval collapsed under the unit functional")
    alpha = 0.5 * (lo + hi)
    dual = _dual_flags(hi, alpha)
    if not dual["cor_a_plus"]:
        raise Inconclusive("threshold failed the augmented-dual interior check")
    family = {"BP"} | {k for k, v in dual.items() if v and k != "a_plus"}
    return SeparationCertificate(
        orientation=Orientation.C_FROM_K,
        x_star=x_star,
        alpha=alpha,
        alpha_interval=(lo, hi),
        distance=res.distance,
        witnesses=(res.witness_a, res.witness_b),
        family=frozenset(family),
        iterations=res.iterations,
    )


def _separate_k_from_c(C: ConeRegion, K: ConeRegion, tol: float
                       ) -> SeparationCertificate | None:
    """separate_nonsym(K, C), labelled as the K-from-C orientation of (C, K)."""
    cert = separate_nonsym(K, C, tol=tol)
    if cert is None:
        return None
    return replace(cert, orientation=Orientation.K_FROM_C)


def separate_sym(C: ConeRegion, K: ConeRegion, tol: float = DEFAULT_TOL
                 ) -> SeparationCertificate | None:
    """Separation in either orientation: C from K first, then K from C.

    The first certificate is returned as it stands: with exact LMOs its
    non-empty threshold interval (lo, hi) puts the two norm-base hulls at
    least hi - lo apart, so no cross-check could overturn it.  Without one,
    an Inconclusive from either orientation is re-raised.  Only when both
    certified a zero gap is the verdict cross-checked against the plain-body
    distance between the hulls, which is positive exactly when some
    orientation works; a clear positive distance raises Inconclusive.
    """
    pending: Inconclusive | None = None
    for one_sided in (separate_nonsym, _separate_k_from_c):
        try:
            cert = one_sided(C, K, tol=tol)
        except Inconclusive as exc:
            pending = exc
            continue
        if cert is not None:
            return cert
    if pending is not None:
        raise pending
    sym = body_distance(body(C, False), body(K, False), tol=tol)
    if sym.kind == "positive" and sym.distance > DEAD_BAND * tol:
        raise Inconclusive(
            "symmetric distance is positive but neither orientation certified"
        )
    return None


@dataclass(frozen=True, eq=False)
class BidirectionalResult:
    cfromk: SeparationCertificate | None
    kfromc: SeparationCertificate | None
    linear: np.ndarray | None


def separate_convex_bidirectional(C: ConeRegion, K: ConeRegion,
                                  tol: float = DEFAULT_TOL) -> BidirectionalResult:
    """Both one-sided certificates for a convex pair, plus the strictly
    separating linear functional their difference induces when both exist.

    The linear part is verified exactly: its infimum over C's base hull must
    be positive and its supremum over K's base hull negative.
    """
    if not (C.is_single_piece and K.is_single_piece):
        raise NotConvex("bidirectional separation needs single convex pieces")
    cfromk = separate_nonsym(C, K, tol=tol)
    kfromc = _separate_k_from_c(C, K, tol=tol)
    linear = None
    if cfromk is not None and kfromc is not None:
        v = cfromk.x_star - kfromc.x_star
        n = float(np.linalg.norm(v))
        if n <= 1e-300:
            raise Inconclusive("certificate functionals cancelled")
        v /= n
        inf_c = C.lmo(v).value
        sup_k = -K.lmo(-v).value
        if not (sup_k < 0.0 < inf_c):
            raise Inconclusive("linear functional failed the exact support check")
        v.setflags(write=False)
        linear = v
    return BidirectionalResult(cfromk=cfromk, kfromc=kfromc, linear=linear)


def boundary_region(region: ConeRegion) -> ConeRegion:
    """Region whose pieces are the boundaries of the input's leaf cones.

    A non-solid cone is its own boundary, so a region without a solid leaf
    cone is returned unchanged; the boundary of a complement region is the
    boundary of the underlying cone; boundary leaves map to themselves.
    """
    if not any(geometry.solidity(leaf.cone) for leaf in region.leaves):
        return region
    return ConeRegion.union(
        *(ConeRegion.boundary(leaf.cone) for leaf in region.leaves)
    )


def _pieces_meet_only_at_origin(P: PolyCone, Q: PolyCone, tol: float) -> bool:
    if geometry.pointedness(P).pointed:
        hull, other = P, Q
    elif geometry.pointedness(Q).pointed:
        hull, other = Q, P
    else:
        raise Inconclusive("intersection test needs a pointed piece in each pair")
    res = body_distance(
        PolytopeBody(hull.generators.T.copy()),
        body(ConeRegion.piece(other), adjoin_origin=True),
        tol=tol,
    )
    return decide_gap(res, "intersection distance", tol)


def _inside_interior(P: PolyCone, cone: PolyCone) -> bool:
    return all(geometry.strictly_interior(cone, g) for g in P.generators.T)


def cones_meet_only_at_origin(C: ConeRegion, K: ConeRegion,
                              tol: float = DEFAULT_TOL) -> bool:
    """Exact triviality test for the intersection of two regions, leaf by
    leaf through their pieces (a boundary leaf's are its facet cones).

    Every ray of a cone crosses the convex hull of its unit generators, and
    for a pointed cone that hull misses the origin; so piece P meets piece Q
    beyond the origin exactly when hull(P's generators) touches Q.  One of
    the two pieces in each pair must be pointed for the reduction to apply.
    A piece meets the closed complement of a solid cone only at the origin
    exactly when its generators are interior to that cone; two complements
    raise Inconclusive.
    """
    for a in C.leaves:
        for b in K.leaves:
            if not (a.pieces or b.pieces):
                raise Inconclusive("intersection test cannot pair two complements")
            if not b.pieces:
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
    """Five equivalent one-sided separation conditions evaluated separately.

    conditions[0]: bases of the full cones are hull-separated
    conditions[1]: same for their closures (identical for closed cones)
    conditions[2]: boundary vs boundary separation and trivial intersection
    conditions[3]: boundary vs closure separation and trivial intersection
    conditions[4]: closure vs boundary separation and trivial intersection
    consistent records whether all five agreed, as equivalent forms must.
    """

    conditions: tuple[bool, bool, bool, bool, bool]
    meet_only_at_origin: bool
    distances: dict[str, float]
    consistent: bool


def boundary_equivalence_report(C: ConeRegion, K: ConeRegion,
                                tol: float = DEFAULT_TOL
                                ) -> BoundaryEquivalenceReport:
    """Evaluate the five equivalent forms of one-sided base separation and
    flag any disagreement.  Each distinct pair of regions takes one distance
    solve: a closed cone is its own closure, and a region without a solid
    leaf cone is its own boundary, so forms naming one pair share a solve."""
    _check_nontrivial(C)
    _check_nontrivial(K)
    bd_c = boundary_region(C)
    bd_k = boundary_region(K)

    @functools.cache
    def gap(a: ConeRegion, b: ConeRegion) -> tuple[bool, float]:
        res = body_distance(body(a, False), body(b, True), tol=tol)
        return decide_gap(res, "boundary-condition distance", tol), res.distance

    meet = cones_meet_only_at_origin(C, K, tol=tol)
    c1, d1 = gap(C, K)
    c2, d2 = gap(C, K)
    s3, d3 = gap(bd_c, bd_k)
    s4, d4 = gap(bd_c, K)
    s5, d5 = gap(C, bd_k)
    conditions = (c1, c2, s3 and meet, s4 and meet, s5 and meet)
    return BoundaryEquivalenceReport(
        conditions=conditions,
        meet_only_at_origin=meet,
        distances={
            "full": d1,
            "closure": d2,
            "boundary_boundary": d3,
            "boundary_closure": d4,
            "closure_boundary": d5,
        },
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
    report = VerificationReport(
        ok=bool((vc > 0.0).all() and (vk > 0.0).all()),
        enclosed_count=len(pc),
        excluded_count=len(pk),
        enclosed_violations=int((vc <= 0.0).sum()),
        excluded_violations=int((vk <= 0.0).sum()),
        min_enclosed_margin=float(vc.min()),
        min_excluded_margin=float(vk.min()),
    )
    return report
