"""Convex bases of cones: well-basedness, base construction, interpolation.

A cone is well-based when some functional stays uniformly positive on its
norm-base -- equivalently, when the hull of the base misses the origin by a
positive distance.  That distance doubles as the certificate threshold, and
its vanishing produces an explicit zero hull combination disproving the
property.  Interpolation squeezes a Bishop-Phelps cone strictly between a
nested pair of cones by separating the inner cone from the closed
complement of the outer one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import geometry
from .distance import (
    DEAD_BAND,
    DEFAULT_TOL,
    body_distance,
    decide_gap,
    origin_body,
)
from .errors import Inconclusive, NonPositiveRay, NotNested, TrivialRegion
from .geometry import PolyCone, cone_membership
from .kernels import min_norm_point
from .regions import ConeRegion, body
from .separation import (
    BishopPhelpsCone,
    Membership,
    Orientation,
    _check_nontrivial,
    bp_membership,
    separate_nonsym,
    separate_sym,
)

# relative back-off applied to a certified positive distance before it is
# used as a well-basedness threshold
ALPHA_BACKOFF = 1e-6


class BaseKind(Enum):
    WELL_BASED = "WellBased"
    CONVEX_BASE = "ConvexBase"
    NOT_WELL_BASED = "NotWellBased"
    NO_CONVEX_BASE = "NoConvexBase"


@dataclass(frozen=True, eq=False)
class BaseCertificate:
    """Outcome of a base-existence query, with a checkable witness either way.

    Positive outcomes carry the functional (and for WellBased the uniform
    threshold alpha, plus scaled base vertices when the region is convex).
    Negative outcomes carry unit points of the region with convex weights
    whose combination is (numerically) zero; witness_pair additionally names
    an antipodal ray pair inside the region when one exists.
    """

    kind: BaseKind
    x_star: np.ndarray | None = None
    alpha: float | None = None
    base_vertices: np.ndarray | None = None
    witness_points: np.ndarray | None = None
    witness_weights: np.ndarray | None = None
    witness_pair: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def well_based(self) -> bool:
        return self.kind is BaseKind.WELL_BASED

    @property
    def has_base(self) -> bool:
        return self.kind is BaseKind.CONVEX_BASE


def make_base(cone: PolyCone, x_star) -> np.ndarray:
    """Vertices of the convex base cut out by {x : x*(x) = 1}: each stored
    unit generator rescaled to functional value one."""
    xs = np.asarray(x_star, dtype=float)
    vals = xs @ cone.generators
    if not (vals > 0.0).all():
        raise NonPositiveRay("every generator needs a positive functional value")
    return (cone.generators / vals).T


def _maybe_pair(region: ConeRegion, points: np.ndarray, weights: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    j = int(np.argmax(weights))
    p = points[j]
    if region.contains_unit_batch(np.stack([-p]), tol=geometry.MEMBERSHIP_TOL)[0]:
        return (p, -p)
    return None


def is_well_based(region: ConeRegion, tol: float = DEFAULT_TOL) -> BaseCertificate:
    """Decide whether some functional is uniformly positive on the norm-base.

    The question is the distance from the origin to the hull of the base:
    a certified positive gap yields the functional (the near point's
    direction) and threshold alpha just inside the gap; a certified zero
    yields the vanishing hull combination.
    """
    _check_nontrivial(region)
    res = body_distance(origin_body(region.dim), body(region, False), tol=tol)
    if not decide_gap(res, "origin-to-base distance", tol):
        return BaseCertificate(
            kind=BaseKind.NOT_WELL_BASED,
            witness_points=res.support_b,
            witness_weights=res.weights,
            witness_pair=_maybe_pair(region, res.support_b, res.weights, tol),
        )
    x_star = res.witness_b / np.linalg.norm(res.witness_b)
    x_star.setflags(write=False)
    alpha = res.distance * (1.0 - ALPHA_BACKOFF)
    base_vertices = None
    if region.is_single_piece:
        base_vertices = make_base(region.single_cone(), x_star)
    return BaseCertificate(
        kind=BaseKind.WELL_BASED,
        x_star=x_star,
        alpha=alpha,
        base_vertices=base_vertices,
    )


def has_convex_base(region: ConeRegion, tol: float = DEFAULT_TOL) -> BaseCertificate:
    """Decide whether the norm-base fits in an open half-space {x* > 0}.

    For piece/union regions this reduces to the pooled generators: a
    functional is positive on the base exactly when it is positive on every
    generator, so the verdict is whether the origin lies in their convex
    hull (solved by the min-norm-point kernel, independently of the
    distance engine used by is_well_based).  Regions with complement or
    boundary leaves fall back to the hull-body distance.
    """
    _check_nontrivial(region)
    if region.has_compound_leaves:
        probe = is_well_based(region, tol=tol)
        if probe.well_based:
            return BaseCertificate(kind=BaseKind.CONVEX_BASE, x_star=probe.x_star)
        return BaseCertificate(
            kind=BaseKind.NO_CONVEX_BASE,
            witness_points=probe.witness_points,
            witness_weights=probe.witness_weights,
            witness_pair=probe.witness_pair,
        )
    pooled = np.concatenate([c.generators.T for c in region.piece_cones()], axis=0)
    res = min_norm_point(pooled)
    if not res.certified:
        raise Inconclusive("min-norm solve over the generators did not certify")
    t = float(np.linalg.norm(res.point))
    if t <= tol:
        return BaseCertificate(
            kind=BaseKind.NO_CONVEX_BASE,
            witness_points=pooled,
            witness_weights=res.weights,
            witness_pair=_maybe_pair(region, pooled, res.weights, tol),
        )
    if t <= DEAD_BAND * tol:
        raise Inconclusive("generator hull distance is inside the dead-band")
    x_star = res.point / t
    x_star.setflags(write=False)
    vals = pooled @ x_star
    return BaseCertificate(
        kind=BaseKind.CONVEX_BASE,
        x_star=x_star,
        base_vertices=(pooled / vals[:, None]),
    )


def interpolate(C: ConeRegion | PolyCone, K: PolyCone,
                tol: float = DEFAULT_TOL) -> BishopPhelpsCone | None:
    """Squeeze a Bishop-Phelps cone G strictly between nested cones:
    C minus the origin inside the interior of G and G inside K.

    Works by separating C from the closed complement of K; the resulting
    certificate (attached to the returned cone) carries the whole interval
    of admissible thresholds.  Returns None when the hull bodies of C and
    of the complement's base touch, which happens exactly when C reaches
    the boundary of K.
    """
    region = ConeRegion.piece(C) if isinstance(C, PolyCone) else C
    if region.has_compound_leaves:
        raise NotNested("only piece or union regions can be nested in a cone")
    pieces = region.piece_cones()
    if not pieces:
        raise TrivialRegion("the inner region has no pieces")
    for cone in pieces:
        for g in cone.generators.T:
            if not cone_membership(g, K):
                raise NotNested("an inner generator lies outside the outer cone")
    k_hat = ConeRegion.complement(K)
    cert = separate_nonsym(region, k_hat, tol=tol)
    if cert is None:
        return None
    return cert.bishop_phelps(reference=region)


def interpolate_sym(C: ConeRegion | PolyCone, K: ConeRegion | PolyCone,
                    tol: float = DEFAULT_TOL
                    ) -> tuple[Orientation, BishopPhelpsCone] | None:
    """Bishop-Phelps cone enclosing one of the two cones while the other
    meets it only at the origin, in whichever orientation works."""
    rc = ConeRegion.piece(C) if isinstance(C, PolyCone) else C
    rk = ConeRegion.piece(K) if isinstance(K, PolyCone) else K
    cert = separate_sym(rc, rk, tol=tol)
    if cert is None:
        return None
    enclosed = rc if cert.orientation == Orientation.C_FROM_K else rk
    return cert.orientation, cert.bishop_phelps(reference=enclosed)


@dataclass(frozen=True, eq=False)
class InterpolationCheck:
    ok: bool
    inner_count: int
    base_count: int
    inner_violations: int
    base_violations: int
    min_inner_margin: float


def _bp_base_samples(gamma: BishopPhelpsCone, count: int,
                     rng: np.random.Generator | None) -> np.ndarray:
    """Unit vectors in the base of a Euclidean Bishop-Phelps cone: closed
    form fan in 2-D, rejection from a sphere cloud otherwise."""
    f = gamma.functional
    xs = f.x_star / np.linalg.norm(f.x_star)
    a = f.alpha / np.linalg.norm(f.x_star)
    if gamma.dim == 2:
        theta = math.acos(max(-1.0, min(1.0, a)))
        base = math.atan2(xs[1], xs[0])
        ang = base + np.linspace(-theta, theta, count)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    from .oracle import sphere_grid

    rng = rng if rng is not None else np.random.default_rng(7)
    out = []
    got = 0
    for _ in range(64):
        cand = sphere_grid(gamma.dim, count=4 * count, rng=rng)
        keep = cand[cand @ xs >= a]
        out.append(keep)
        got += len(keep)
        if got >= count:
            break
    pts = np.concatenate(out, axis=0)
    return pts[:count]


def verify_interpolation(gamma: BishopPhelpsCone, C: ConeRegion | PolyCone,
                         K: PolyCone, count: int = 1000,
                         rng: np.random.Generator | None = None
                         ) -> InterpolationCheck:
    """Sampled check of the interpolation inclusions: base points of C are
    strictly interior to gamma, base points of gamma belong to K."""
    from .oracle import sample_norm_base

    region = ConeRegion.piece(C) if isinstance(C, PolyCone) else C
    inner = sample_norm_base(region, count=count, rng=rng).points
    inner_bad = sum(
        1 for x in inner if bp_membership(gamma, x) is not Membership.INTERIOR
    )
    f = gamma.functional
    margins = inner @ (f.x_star / np.linalg.norm(f.x_star)) - (
        f.alpha / np.linalg.norm(f.x_star)
    )
    base_pts = _bp_base_samples(gamma, count, rng)
    base_bad = sum(1 for x in base_pts if not cone_membership(x, K))
    return InterpolationCheck(
        ok=inner_bad == 0 and base_bad == 0,
        inner_count=len(inner),
        base_count=len(base_pts),
        inner_violations=inner_bad,
        base_violations=base_bad,
        min_inner_margin=float(margins.min()),
    )
