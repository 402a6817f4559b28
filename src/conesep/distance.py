"""Distance between convex bodies with certified witnesses.

Wolfe's min-norm-point method on the Minkowski difference A - B with the
LMOs as its vertex oracle, as GJK does for convex bodies: each iteration
adds the support point of A - B against the iterate to a persistent
corral, and Wolfe's minor cycles (``kernels.corral_step``) move the
iterate to the min-norm point of the corral's hull.  The first LMO pair
is aimed from B's start point to A's, points each body names at no LMO
cost, and its bracket alone may decide.  Positive outcomes carry the
deciding direction (an iterate, or that start direction) and the
certified LMO values at it; zero outcomes carry the common point and the
convex combination realizing it.
"""
from __future__ import annotations

import math
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
    # the last bracket's direction v (None for a zero outcome): the iterate, or
    # the start direction v0 where its bracket decided; and its certified LMO
    # values, each net of its error bound, whose sum over |v| is the bracket's lower
    # bound (None at "certified_zero" and "max_iter")
    functional: np.ndarray | None
    lmo_values: tuple[float, float] | None
    gap: float
    lower_bound: float
    # Frank-Wolfe iterations after the start pair: 0 when its bracket decided
    iterations: int
    certified: bool
    support_a: np.ndarray
    support_b: np.ndarray
    weights: np.ndarray
    # why the solve ended: "certified_zero", "certified_gap", "decided" (the
    # lower bound cleared DEAD_BAND * tol in a solve run until decided),
    # "inconsistent" (LMO values above |v|^2), "stalled", "repeat_point" or "max_iter"
    stop: str

    def bracket(self) -> tuple[np.ndarray, float, float]:
        """The positive outcome's iterate as the read-only unit u = v/|v|, and
        certified lower bounds on the minima of u over A and -u over B."""
        nv = float(np.linalg.norm(self.functional))
        u = self.functional / nv
        u.setflags(write=False)
        return u, self.lmo_values[0] / nv, self.lmo_values[1] / nv


def decide_gap(res: DistanceResult, what: str, tol: float) -> bool:
    """The verdict ``res`` supports: False for a certified zero, True for a
    certified gap beyond the dead band.  Anything else raises Inconclusive:
    a dead-band one when the distance surely lies in (tol, DEAD_BAND * tol],
    because the solve certified a gap there or its bracket
    [lower_bound, distance] lies inside it, and otherwise one saying that
    the solve ended uncertified.  The bracket is certified throughout."""
    if res.kind == ZERO:
        if not res.certified:
            raise Inconclusive(f"{what} did not certify the zero verdict")
        return False
    if res.distance <= DEAD_BAND * tol and (res.certified or res.lower_bound > tol):
        raise Inconclusive(
            f"{what} {res.distance:.3e} is inside the tolerance dead-band",
            dead_band=True,
        )
    if not res.certified:
        raise Inconclusive(
            f"{what} ended uncertified ({res.stop}); it lies in "
            f"[{res.lower_bound:.3e}, {res.distance:.3e}]"
        )
    return True


def _support_difference(A, B, v: np.ndarray):
    """Support point of A - B against v, and certified lower bounds on the
    minima of v over A and -v over B: each LMO's value less its error bound."""
    ra = A.lmo(v)
    rb = B.lmo(-v)
    return (ra.value - ra.error, rb.value - rb.error), ra.witness, rb.witness


def _start(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The direction v0 = pA - pB of a solve's first LMO pair, aimed from
    B's start point pB to A's pA; e_1 where the two lie within 1e-12."""
    pa, pb = A.start_point(), B.start_point()
    v0 = pa - pb
    if math.sqrt(float(v0 @ v0)) <= 1e-12:
        v0 = np.eye(A.dim)[0]
    return v0, pa, pb


def body_distance(A, B, tol: float = DEFAULT_TOL,
                  until_decided: bool = False) -> DistanceResult:
    """Distance between conv bodies A and B with witnesses.

    A and B expose ``dim``, ``lmo(direction) -> LmoResult`` over their
    closures, and ``start_point()``, a point of the body that costs no LMO
    call; sval sums the LMO values at the iterate v net of their error
    bounds.

    The first LMO pair is aimed at v0 = pA - pB for the start points pA
    and pB, or at e_1 where the two lie within 1e-12.  Its bracket's lower
    bound sval/|v0| holds for any direction.  With ``until_decided``, for
    callers that read only the ``decide_gap`` verdict, a lower bound that
    clears DEAD_BAND * tol ends the solve there, certified, with stop
    "decided" and 0 iterations: the functional is v0 and the witnesses are
    (pA, pB).  LMO values summing above v0 . (a0 - b0) for that pair's
    support points a0 and b0 bound nothing, and the solve goes on instead.
    Every other solve goes on from the corral {a0 - b0}; the start points
    never enter it.

    The solve terminates when |v| <= tol certifies contact or when the
    duality gap certifies the distance to within tol: the true distance
    lies in [sval/|v|, |v|], an interval of width gap/|v|, so
    gap <= tol * |v| pins it.  A solve whose gap stops improving, or whose
    new support point repeats or leaves the corral again, stops there
    instead of spinning.  With ``until_decided`` it also stops, certified,
    with stop "decided" once the lower bound clears DEAD_BAND * tol: the
    distance is then surely beyond the dead band, though not pinned to
    within tol.

    The corral lives in buffers of d + 2 rows: the support points of A and
    of B, and their differences, each formed once.  A new point is written
    into the next row, and the rows are compacted in place only when the
    minor cycles drop a vertex.
    """
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    tol2 = tol * tol

    v0, pa, pb = _start(A, B)
    lmo_values, a0, b0 = _support_difference(A, B, v0)
    sval = lmo_values[0] + lmo_values[1]
    nv2 = float(v0 @ v0)
    nv = math.sqrt(nv2)
    lower = sval / nv
    v = a0 - b0
    # v is a point of A - B, so the exact minimum against v0 is at most v0 . v
    if (until_decided and lower > DEAD_BAND * tol
            and sval - float(v0 @ v) <= max(tol * nv, tol2, GAP_REL_FLOOR * nv2)):
        a, b = pa.copy(), pb.copy()
        return DistanceResult(
            distance=math.sqrt(float((a - b) @ (a - b))),
            kind=POSITIVE,
            witness_a=a,
            witness_b=b,
            functional=v0,
            lmo_values=lmo_values,
            gap=max(nv2 - sval, 0.0),
            lower_bound=lower,
            iterations=0,
            certified=True,
            support_a=a[None, :],
            support_b=b[None, :],
            weights=np.array([1.0]),
            stop="decided",
        )
    # The first k rows hold the corral, with weights w.  A corral of d + 1
    # affinely independent points and a new point fill the d + 2 rows; the
    # buffers double should a degenerate corral keep more.
    Pa, Pb, S = (np.empty((A.dim + 2, A.dim)) for _ in range(3))
    Pa[0], Pb[0], S[0] = a0, b0, v
    k = 1
    w = np.array([1.0])

    lower = 0.0
    lmo_values = None
    gap = float("inf")
    best_gap = float("inf")
    stalled = 0
    certified = False
    stop = "max_iter"
    it = 0
    while it < MAX_ITER:
        it += 1
        nv2 = float(v @ v)
        if nv2 <= tol2:
            certified = True
            stop = "certified_zero"
            gap = 0.0
            break
        lmo_values, wa, wb = _support_difference(A, B, v)
        sval = lmo_values[0] + lmo_values[1]
        nv = math.sqrt(nv2)
        gap = nv2 - sval
        done = max(tol * nv, tol2, GAP_REL_FLOOR * nv2)
        if gap < -done:  # v is in A - B, so the exact minimum is at most |v|^2
            stop = "inconsistent"
            break
        if sval > 0.0:
            lower = max(lower, sval / nv)
        if gap <= done:
            certified = True
            stop = "certified_gap"
            break
        if until_decided and lower > DEAD_BAND * tol:
            certified = True
            stop = "decided"
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
        D = S[:k] - s
        # the nearest corral point, compared by its squared distance: the
        # square root is monotone and correctly rounded, so the minimum's
        # root is the minimum of the roots
        fresh = math.sqrt(float(np.add.reduce(D * D, axis=1).min())) > 1e-15 * (
            1.0 + math.sqrt(float(s @ s)))
        if fresh:
            if k == len(S):
                Pa, Pb, S = (np.concatenate((X, np.empty_like(X))) for X in (Pa, Pb, S))
            Pa[k], Pb[k], S[k] = wa, wb, s
            w_next, keep = kernels.corral_step(S[:k + 1], w)
        if not fresh or (keep is not None and keep[:-1].all() and not keep[-1]):
            # The oracle repeats a corral point, or the minor cycles drop
            # the new one again: either way the next iteration repeats this.
            certified = gap <= max(done, 100.0 * GAP_REL_FLOOR * nv2)
            stop = "repeat_point"
            break
        w = w_next
        if keep is None:
            k += 1
        else:
            # a vertex left: close the gaps, in order
            for X in (Pa, Pb, S):
                X[:len(w)] = X[:k + 1][keep]
            k = len(w)
        v = w @ S[:k]

    Pa, Pb = Pa[:k], Pb[:k]
    bracket = stop not in ("certified_zero", "max_iter")  # no LMO call at the last v
    a = w @ Pa
    b = w @ Pb
    dist = math.sqrt(float((a - b) @ (a - b)))
    # |v| <= tol certified contact, though rounding may leave the witnesses'
    # distance a hair above tol
    kind = ZERO if stop == "certified_zero" or dist <= tol else POSITIVE
    return DistanceResult(
        distance=dist,
        kind=kind,
        witness_a=a,
        witness_b=b,
        functional=v.copy() if kind == POSITIVE else None,
        lmo_values=lmo_values if bracket else None,
        gap=max(gap, 0.0) if np.isfinite(gap) else 0.0,
        lower_bound=lower,
        iterations=it,
        certified=certified,
        support_a=Pa,
        support_b=Pb,
        weights=w,
        stop=stop,
    )


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

    def start_point(self) -> np.ndarray:
        """The mean of the points, a point of their hull."""
        return self.points.mean(axis=0)


def origin_body(dim: int) -> PolytopeBody:
    """The origin as a one-point body, for origin-to-body distances."""
    p = np.zeros((1, dim))
    p.setflags(write=False)
    return PolytopeBody(p)
