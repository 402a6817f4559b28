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
from .distance import DEFAULT_TOL, body_distance, decide_gap, origin_body
from .errors import NonPositiveRay, NotNested
from .geometry import Norm, PolyCone
# unused here; kept bound because the benchmark tracer wraps it by this name
from .kernels import min_norm_point
from .regions import ConeRegion, body
from .separation import (
    MEMBERSHIP_BAND,
    BishopPhelpsCone,
    Orientation,
    _check_nontrivial,
    _classifiable,
    separate_nonsym,
    separate_sym,
)

# relative back-off applied to the minimum of x* over the base before it is
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


def _maybe_pair(region: ConeRegion, points: np.ndarray, weights: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray] | None:
    j = int(np.argmax(weights))
    p = points[j]
    if region.contains_unit_batch(np.stack([-p]), tol=geometry.MEMBERSHIP_TOL)[0]:
        return (p, -p)
    return None


def is_well_based(region: ConeRegion, tol: float = DEFAULT_TOL) -> BaseCertificate:
    """Decide whether some functional is uniformly positive on the norm-base.

    The question is the distance from the origin to the hull of the base,
    and the solve stops at the first bracket that decides it, often the
    start bracket, aimed along minus the base's generator mean.  A positive
    gap yields, read from that bracket with no further LMO call, the
    functional x* = -v/|v| for its direction v, the iterate or that start
    direction (not the max-margin one), and
    threshold alpha, the bracket's certified lower bound on the minimum of
    x* over the base, backed off by ALPHA_BACKOFF; a certified zero yields
    the vanishing hull combination.
    """
    _check_nontrivial(region)
    res = body_distance(origin_body(region.dim), body(region, False), tol=tol,
                        until_decided=True)
    if not decide_gap(res, "origin-to-base distance", tol):
        return BaseCertificate(
            kind=BaseKind.NOT_WELL_BASED,
            witness_points=res.support_b,
            witness_weights=res.weights,
            witness_pair=_maybe_pair(region, res.support_b, res.weights),
        )
    u, _, low = res.bracket()
    x_star = -u
    x_star.setflags(write=False)
    alpha = low * (1.0 - ALPHA_BACKOFF)
    base_vertices = None
    if region.is_single_piece:
        base_vertices = make_base(region.single_cone(), x_star)
    return BaseCertificate(
        kind=BaseKind.WELL_BASED,
        x_star=x_star,
        alpha=alpha,
        base_vertices=base_vertices,
    )


def has_convex_base(region: ConeRegion, tol: float = DEFAULT_TOL,
                    well_based: BaseCertificate | None = None) -> BaseCertificate:
    """Decide whether the norm-base fits in an open half-space {x* > 0}.

    In finite dimension a closed cone has a convex base exactly when it is
    well-based, so this reads ``is_well_based``'s certificate: a caller
    that already holds it for this region and tol passes it as well_based,
    and no distance is solved here.  For piece and union regions the two
    verdicts coincide on the same solve: a functional positive on a piece
    attains its base minimum at a unit extreme ray (``regions._lmo_piece``),
    so the origin's distance to the hull of the base equals its distance
    to the hull of the unit generators whenever either is positive.  A
    boundary region is the union of its facet cones, so it is one of these.
    ConvexBase carries is_well_based's x*, plus, for a region without a
    complement leaf, the base vertices ``make_base`` cuts from each piece.  A
    NoConvexBase witness is the solve's corral: unit base points and their
    convex weights.
    """
    _check_nontrivial(region)
    probe = well_based or is_well_based(region, tol=tol)
    if not probe.well_based:
        return BaseCertificate(
            kind=BaseKind.NO_CONVEX_BASE,
            witness_points=probe.witness_points,
            witness_weights=probe.witness_weights,
            witness_pair=probe.witness_pair,
        )
    base_vertices = None
    if not region.has_compound_leaves:
        base_vertices = np.concatenate(
            [make_base(c, probe.x_star) for c in region.piece_cones()], axis=0)
    return BaseCertificate(kind=BaseKind.CONVEX_BASE, x_star=probe.x_star,
                           base_vertices=base_vertices)


def interpolate(C: ConeRegion | PolyCone, K: PolyCone,
                tol: float = DEFAULT_TOL) -> BishopPhelpsCone | None:
    """Squeeze a Bishop-Phelps cone G strictly between nested cones:
    C minus the origin inside the interior of G and G inside K.

    C is a piece, a union, or a boundary (a union of facet cones); a
    complement cannot be nested.  Works by separating C from the closed
    complement of K with separate_nonsym, whose certificate the returned
    cone carries.  Returns None when the hull bodies of C and of the
    complement's base touch, which happens exactly when C reaches the
    boundary of K.
    """
    region = ConeRegion.piece(C) if isinstance(C, PolyCone) else C
    if region.has_compound_leaves:
        raise NotNested("a complement region cannot be nested in a cone")
    for cone in region.piece_cones():
        if not geometry.cone_membership_batch(cone.generators.T, K).all():
            raise NotNested("an inner generator lies outside the outer cone")
    k_hat = ConeRegion.complement(K)
    cert = separate_nonsym(region, k_hat, tol=tol)
    if cert is None:
        return None
    return cert.bishop_phelps()


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
    return cert.orientation, cert.bishop_phelps()


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
    """count unit vectors in the base of a Euclidean Bishop-Phelps cone,
    drawn directly.

    With x^ = x*/|x*| and rim angle t^ = arccos(alpha/|x*|), point i is
    cos(t_i) x^ + sin(t_i) w_i, where w_i is a Gaussian direction with its
    x^ component removed, normalized.  The first ceil(count/2) points take
    t_i = t^ and lie on the rim, where inclusion in an outer cone is
    tightest; the rest take t_i = t^ u_i with u_i uniform in [0, 1].  In
    R^1 no direction is orthogonal to x^, and the base is the point x^.
    """
    f = gamma.functional
    n = np.linalg.norm(f.x_star)
    xs = f.x_star / n
    if gamma.dim == 1:
        return np.tile(xs, (count, 1))
    rng = rng if rng is not None else np.random.default_rng(7)
    W = rng.standard_normal((count, gamma.dim))
    W -= np.outer(W @ xs, xs)
    W /= np.linalg.norm(W, axis=1)[:, None]
    t = np.full(count, math.acos(max(-1.0, min(1.0, f.alpha / n))))
    t[(count + 1) // 2:] *= rng.uniform(size=count // 2)
    return np.cos(t)[:, None] * xs + np.sin(t)[:, None] * W


def verify_interpolation(gamma: BishopPhelpsCone, C: ConeRegion | PolyCone,
                         K: PolyCone, count: int = 1000,
                         rng: np.random.Generator | None = None
                         ) -> InterpolationCheck:
    """Sampled check of the interpolation inclusions: base points of C are
    strictly interior to gamma, base points of gamma belong to K.  gamma
    must be Euclidean, since its base is drawn on the Euclidean rim."""
    from .oracle import sample_norm_base

    f = _classifiable(gamma)
    if f.norm is not Norm.EUCLIDEAN:
        raise ValueError(f"gamma must be Euclidean, got {f.norm.value}")
    region = ConeRegion.piece(C) if isinstance(C, PolyCone) else C
    inner = sample_norm_base(region, count=count, rng=rng).points
    # bp_membership of every sample at once: interior iff score > band
    nx = np.linalg.norm(inner, axis=1)
    scores = inner @ f.x_star - f.alpha * nx
    inner_bad = int((scores <= MEMBERSHIP_BAND * (1.0 + nx)).sum())
    xn = np.linalg.norm(f.x_star)
    margins = inner @ (f.x_star / xn) - f.alpha / xn
    base_pts = _bp_base_samples(gamma, count, rng)
    base_bad = int((~geometry.cone_membership_batch(base_pts, K)).sum())
    return InterpolationCheck(
        ok=inner_bad == 0 and base_bad == 0,
        inner_count=len(inner),
        base_count=len(base_pts),
        inner_violations=inner_bad,
        base_violations=base_bad,
        min_inner_margin=float(margins.min()),
    )
