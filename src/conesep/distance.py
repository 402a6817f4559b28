"""Distance between convex bodies with certified witnesses.

GJK-flavoured fully corrective Frank-Wolfe on the Minkowski difference:
each iteration adds the support point of A - B against the current iterate
and recomputes the exact min-norm point of the collected difference points
(Wolfe's algorithm), so polytopal contact terminates finitely and curved
spherical-cap contact converges geometrically.  Positive outcomes carry the
separating functional a - b; zero outcomes carry the common point and the
convex combination that realizes it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, Inconclusive
from .regions import LmoResult

DEFAULT_TOL = 1e-9
MAX_ITER = 100_000
# Numerical floor for the termination gap, relative to |v|^2: below this the
# duality gap cannot be resolved in double precision anyway.
GAP_REL_FLOOR = 1e-14
# Distances in (tol, DEAD_BAND * tol] are treated as inconclusive by the
# separation predicates built on top of this engine.
DEAD_BAND = 10.0

POSITIVE = "positive"
ZERO = "zero"


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    kind: str
    witness_a: np.ndarray
    witness_b: np.ndarray
    functional: np.ndarray | None
    gap: float
    lower_bound: float
    iterations: int
    certified: bool
    support_a: np.ndarray
    support_b: np.ndarray
    weights: np.ndarray
    # why the solve ended: "certified_zero", "certified_gap", "stalled",
    # "repeat_point" or "max_iter"
    stop: str
    # inner Wolfe solves (one per FW iteration) that ended uncertified
    wolfe_uncertified: int

    @property
    def common_point(self) -> np.ndarray:
        return 0.5 * (self.witness_a + self.witness_b)


def decide_gap(res: DistanceResult, what: str, tol: float) -> bool:
    """The verdict ``res`` supports: False for a certified zero, True for a
    certified gap beyond the dead band.  Anything else raises Inconclusive,
    saying whether the solve ended uncertified or inside the dead band."""
    if not res.certified:
        if res.kind == ZERO:
            raise Inconclusive(f"{what} did not certify the zero verdict")
        raise Inconclusive(
            f"{what} ended uncertified ({res.stop}); it lies in "
            f"[{res.lower_bound:.3e}, {res.distance:.3e}]"
        )
    if res.kind == ZERO:
        return False
    if res.distance <= DEAD_BAND * tol:
        raise Inconclusive(
            f"{what} {res.distance:.3e} is inside the tolerance dead-band"
        )
    return True


def _support_difference(A, B, v: np.ndarray):
    """Support point of A - B against direction v: min over the difference."""
    ra = A.lmo(v)
    rb = B.lmo(-v)
    return ra.value + rb.value, ra.witness, rb.witness


def body_distance(A, B, tol: float = DEFAULT_TOL) -> DistanceResult:
    """Distance between conv bodies A and B with witnesses.

    A and B expose ``dim`` and ``lmo(direction) -> (value, witness)`` over
    their closures.  Terminates when |v| <= tol certifies contact or when
    the duality gap certifies the distance to within tol: the true distance
    lies in [sval/|v|, |v|], an interval of width gap/|v|, so
    gap <= tol * |v| pins it.  A solve whose gap stops improving before
    reaching that target exits uncertified instead of spinning.
    """
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    d = A.dim
    tol2 = tol * tol

    d0 = np.asarray(A.centroid(), dtype=float) - np.asarray(B.centroid(), dtype=float)
    if float(np.linalg.norm(d0)) <= 1e-12:
        d0 = np.zeros(d)
        d0[0] = 1.0
    _, a0, b0 = _support_difference(A, B, d0)
    pts = [a0 - b0]
    parents_a = [a0]
    parents_b = [b0]
    w = np.array([1.0])
    v = pts[0].copy()

    lower = 0.0
    gap = float("inf")
    best_gap = float("inf")
    stalled = 0
    certified = False
    stop = "max_iter"
    wolfe_uncertified = 0
    it = 0
    while it < MAX_ITER:
        it += 1
        nv2 = float(v @ v)
        if nv2 <= tol2:
            certified = True
            stop = "certified_zero"
            gap = 0.0
            break
        sval, wa, wb = _support_difference(A, B, v)
        nv = float(np.sqrt(nv2))
        if sval > 0.0:
            lower = max(lower, sval / nv)
        gap = nv2 - sval
        done = max(tol * nv, tol2, GAP_REL_FLOOR * nv2)
        if gap <= done:
            certified = True
            stop = "certified_gap"
            break
        if gap < 0.99 * best_gap:
            best_gap = gap
            stalled = 0
        else:
            stalled += 1
            if stalled >= 100:
                # the oracle's precision is exhausted short of the target
                stop = "stalled"
                break
        s = wa - wb
        dists = [float(np.linalg.norm(s - p)) for p in pts]
        if min(dists) <= 1e-15 * (1.0 + float(np.linalg.norm(s))):
            # The oracle repeats a known point: numerically stalled.
            certified = gap <= max(done, 100.0 * GAP_REL_FLOOR * nv2)
            stop = "repeat_point"
            break
        pts.append(s)
        parents_a.append(wa)
        parents_b.append(wb)
        mnp = kernels.min_norm_point(np.stack(pts, axis=0))
        wolfe_uncertified += not mnp.certified
        v = mnp.point
        keep = mnp.weights > kernels.WEIGHT_FLOOR
        if not keep.any():
            keep[int(np.argmax(mnp.weights))] = True
        w = mnp.weights[keep]
        w = w / w.sum()
        pts = [p for p, k in zip(pts, keep) if k]
        parents_a = [p for p, k in zip(parents_a, keep) if k]
        parents_b = [p for p, k in zip(parents_b, keep) if k]

    Pa = np.stack(parents_a, axis=0)
    Pb = np.stack(parents_b, axis=0)
    a = w @ Pa
    b = w @ Pb
    v = a - b
    dist = float(np.linalg.norm(v))
    kind = ZERO if dist <= tol else POSITIVE
    return DistanceResult(
        distance=dist,
        kind=kind,
        witness_a=a,
        witness_b=b,
        functional=v.copy() if kind == POSITIVE else None,
        gap=max(gap, 0.0) if np.isfinite(gap) else 0.0,
        lower_bound=lower,
        iterations=it,
        certified=certified,
        support_a=Pa,
        support_b=Pb,
        weights=w,
        stop=stop,
        wolfe_uncertified=wolfe_uncertified,
    )


@dataclass(frozen=True)
class PointBody:
    """Degenerate one-point body (used for origin-to-body distances)."""

    point: np.ndarray

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def lmo(self, direction):
        f = np.asarray(direction, dtype=float)
        return LmoResult(float(f @ self.point), self.point)

    def centroid(self) -> np.ndarray:
        return self.point


def origin_body(dim: int) -> PointBody:
    p = np.zeros(dim)
    p.setflags(write=False)
    return PointBody(p)


@dataclass(frozen=True)
class PolytopeBody:
    """Convex hull of finitely many explicit points."""

    points: np.ndarray

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def lmo(self, direction):
        f = np.asarray(direction, dtype=float)
        vals = self.points @ f
        j = int(np.argmin(vals))
        return LmoResult(float(vals[j]), self.points[j])

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)
