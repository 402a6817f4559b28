"""Dense numerical kernels: NNLS, conic projection, Wolfe's minor cycles.

Everything in this module works on raw numpy arrays so the geometric layers
above stay free of solver detail.  All solvers return a ``certified`` flag;
callers must treat non-certified results as best-effort iterates.

Wolfe's minor cycles (``corral_step``) serve the one major loop,
``distance.body_distance``; ``min_norm_point`` is that loop run from the
origin to the hull of explicit rows until its verdict is decided.  Its one
caller is ``geometry.pointedness``; the name stays, in this module and in
``basis``, because the benchmark tracer wraps it in both.  Least
squares on one column has a closed form (``_ray_coeff``), used in place of
``np.linalg.lstsq`` in Wolfe's affine step on a corral of two points and in
Lawson-Hanson's first step (``first_step``).  That step has two callers:
``nnls`` takes it before its active-set loop, and the piece LMO
(``regions._lmo_piece``) takes it in place, calling ``nnls`` only when the
projection lies on a face of two or more rays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroDirection

# Relative KKT slack accepted as "solved" by the active-set NNLS.
KKT_TOL = 1e-12
# Convex weights at or below this are dropped from working sets.
WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class NnlsResult:
    coeffs: np.ndarray
    residual: float
    kkt_residual: float
    certified: bool
    iterations: int


def _ray_coeff(ab: float, aa: float) -> float:
    """Least squares on one column a: argmin_x |x a - b| = (a . b) / (a . a).

    Takes the two inner products.  a = 0 gives x = 0, which is what
    ``np.linalg.lstsq`` returns there.  The column alone has condition
    number 1, so this form squares no conditioning.
    """
    return ab / aa if aa > 0.0 else 0.0


def first_step(G: np.ndarray, y: np.ndarray, wj: float,
               j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lawson-Hanson's first step from lam = 0, in closed form.

    wj is the dual coordinate (G.T @ y)_j of the column j that turns
    passive, the largest one, and a positive one.  Least squares on that
    column alone gives lam_j = wj / (g_j . g_j) > 0, which needs no walk
    back.  Returns lam, zero but for lam_j, the residual y - lam_j g_j and
    the dual vector G.T @ (y - lam_j g_j).  The step is the whole solve
    when no other coordinate of that dual vector exceeds the KKT slack.
    """
    g = G[:, j]
    lam = np.zeros(G.shape[1])
    lam[j] = _ray_coeff(wj, float(g @ g))
    resid = y - lam[j] * g
    return lam, resid, G.T @ resid


def nnls(G: np.ndarray, y: np.ndarray) -> NnlsResult:
    """Solve min ||G @ lam - y||_2 subject to lam >= 0 (Lawson-Hanson).

    Active-set method: repeatedly move the most violated dual coordinate into
    the passive set, solve the unconstrained least squares on the passive
    columns, and walk back to feasibility when that solution leaves the
    nonnegative orthant.  At lam = 0 the dual vector is w0 = G.T @ y,
    already formed for the scale; if w0_j = max w0 exceeds the KKT slack,
    ``first_step`` takes column j in closed form.  The solve ends there,
    after one iteration, when no other dual coordinate exceeds the slack;
    otherwise the loop continues it, solving on two or more passive columns
    with ``np.linalg.lstsq``.
    The KKT slack, and the KKT residual reported, are relative to the
    terms that form the dual vector w = G.T @ y - G.T @ (G @ lam): the
    scale is max(|y|, |G.T @ y|, max_j |g_j| * sum_i lam_i |g_i|), so
    ``certified`` means the stationarity and complementarity conditions
    hold to roughly machine precision.  On a point deep in the cone, with
    coefficients far larger than |G.T @ y|, w's rounding error outgrows a
    slack set by |G.T @ y| alone, and the loop would cycle to its cap.  A
    non-finite target, or one whose dual vector overflows, raises
    ZeroDirection.
    """
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    if G.ndim != 2 or y.ndim != 1 or G.shape[0] != y.shape[0]:
        raise ValueError("nnls expects G with shape (d, n) and y with shape (d,)")
    d, n = G.shape
    # tested before G.T @ y, where inf times a zero entry would form a NaN
    if not np.isfinite(y).all():
        raise ZeroDirection("nnls needs a finite target")
    resid = y
    w = G.T @ y
    scale_y = float(np.abs(w).max(initial=0.0))
    if not scale_y < np.inf:
        raise ZeroDirection("nnls needs a target whose dual vector is finite")
    scale_y = max(math.sqrt(float(y @ y)), scale_y) or 1.0  # y = 0: lam = 0 at any slack
    # gmax * (lam @ gnorm) bounds every term of G.T @ (G @ lam)
    gnorm = np.sqrt(np.einsum("ij,ij->j", G, G))
    gmax = float(gnorm.max(initial=0.0))
    tol_w = KKT_TOL * scale_y

    lam = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    outer = 0
    certified = True
    j = int(np.argmax(w))
    if w[j] > tol_w:
        lam, resid, w = first_step(G, y, float(w[j]), j)
        passive[j] = True
        outer = 1
    while True:
        scale = max(scale_y, gmax * float(lam @ gnorm))
        tol_w = KKT_TOL * scale
        # w is the dual vector G.T @ (y - G @ lam) at the current lam
        w_free = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_free))
        if w_free[j] <= tol_w:
            break
        if outer >= 3 * n + 30:
            certified = False
            break
        outer += 1
        passive[j] = True
        # Inner loop: restore nonnegativity of the passive least squares solve.
        for _ in range(n + 1):
            idx = np.flatnonzero(passive)
            sol, *_ = np.linalg.lstsq(G[:, idx], y, rcond=None)
            z = np.zeros(n)
            z[idx] = sol
            if sol.min(initial=np.inf) > 0.0:
                lam = z
                break
            blocking = passive & (z <= 0.0)
            steps = lam[blocking] / (lam[blocking] - z[blocking])
            theta = float(steps.min())
            lam = lam + theta * (z - lam)
            drop = passive & (lam <= WEIGHT_FLOOR * max(1.0, lam.max(initial=0.0)))
            lam[drop] = 0.0
            passive[drop] = False
            if not passive.any():
                lam = np.zeros(n)
                break
        resid = y - G @ lam
        w = G.T @ resid

    kkt = max(float(w.max(initial=0.0)), float(np.abs(w[lam > 0.0]).max(initial=0.0)))
    kkt = max(kkt, 0.0) / scale
    certified = certified and kkt <= 10.0 * KKT_TOL
    return NnlsResult(
        coeffs=lam,
        residual=math.sqrt(float(resid @ resid)),
        kkt_residual=kkt,
        certified=certified,
        iterations=outer,
    )


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    coeffs: np.ndarray
    moreau_inner: float
    polar_slack: float
    certified: bool

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.point))


def project_onto_cone(G: np.ndarray, y: np.ndarray) -> ProjectionResult:
    """Euclidean projection of y onto cone(G) via NNLS.

    The Moreau decomposition certifies the result: the projection p must
    satisfy <p, y - p> = 0 and y - p must lie in the polar cone, i.e.
    <y - p, g> <= 0 for every generator g.  Both residuals are reported.
    """
    res = nnls(G, y)
    p = G @ res.coeffs
    r = y - p
    scale = max(1.0, float(np.linalg.norm(y)))
    moreau = abs(float(p @ r)) / scale**2 if scale > 0 else 0.0
    polar = float((G.T @ r).max(initial=0.0)) / scale
    return ProjectionResult(
        point=p,
        coeffs=res.coeffs,
        moreau_inner=moreau,
        polar_slack=max(polar, 0.0),
        certified=res.certified,
    )


def _affine_min_norm(Q: np.ndarray) -> np.ndarray:
    """Weights of the min-norm point in the affine hull of the rows of Q.

    The point is q_0 + D mu with D = (q_i - q_0)^T, and mu solves the least
    squares problem min |q_0 + D mu|.  Solving it on D directly keeps the
    error proportional to cond(D); the bordered Gram system [QQ^T 1; 1^T 0]
    squares that condition number, which on a nearly flat corral (support
    points 1e-4 apart on a curved cap) flips the sign of a weight and makes
    the minor cycle drop and re-add the same vertex until the cycle cap.
    A corral of two points has the one column D = q_1 - q_0 and the closed
    form mu = -(D . q_0) / (D . D), with mu = 0 for duplicate points.
    """
    if len(Q) == 2:
        D = Q[1] - Q[0]
        mu = _ray_coeff(-float(D @ Q[0]), float(D @ D))
        return np.array([1.0 - mu, mu])
    D = (Q[1:] - Q[0]).T
    mu, *_ = np.linalg.lstsq(D, -Q[0], rcond=None)
    return np.concatenate(([1.0 - mu.sum()], mu))


def corral_step(Q: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Wolfe's minor cycles on the corral Q (rows), the last row just added
    at weight 0 and the others at convex weights w: project onto the affine
    hull and, while that point leaves the simplex, walk toward it until a
    weight hits zero and drop that vertex.  Returns the new weights and the
    mask of the rows that stay, or None when all stay: the first
    projection, on the whole corral, usually lies in the simplex, and then
    neither the mask nor the walk's weights are made.  Each cycle drops a
    vertex, so at most len(Q) run.
    """
    keep = None
    for _ in range(len(Q)):
        a = _affine_min_norm(Q if keep is None else Q[keep])
        if a.min() >= -WEIGHT_FLOOR:
            w = np.maximum(a, 0.0)
            s = w.sum()
            w = w / s if s > 0 else np.full(len(w), 1.0 / len(w))
            break
        if keep is None:
            keep = np.ones(len(Q), dtype=bool)
            w = np.append(w, 0.0)
        shrink = a < WEIGHT_FLOOR
        steps = w[shrink] / (w[shrink] - a[shrink])
        theta = float(steps.min())
        w = (1.0 - theta) * w + theta * a
        stay = w > WEIGHT_FLOOR
        if not stay.any():
            stay[int(np.argmax(w))] = True
        keep[keep] = stay
        w = w[stay]
        w = w / w.sum()
    return w, keep


def min_norm_point(P: np.ndarray, tol: float):
    """The near point of conv(rows of P) to the origin, as the
    ``distance.DistanceResult`` of the engine's origin-to-polytope solve,
    stopped at its first deciding bracket: ``witness_b`` is the point,
    ``distance`` its norm, an upper bound on the hull distance, and
    ``support_b`` and ``weights`` the corral that forms it.  The first
    bracket is aimed at minus the mean of the rows; where it decides,
    that mean is the point, with weight 1.  Its one
    caller, ``geometry.pointedness``, reads only the verdict; the name is
    kept for the benchmark tracer, which wraps it."""
    # imported here: distance imports this module
    from .distance import PolytopeBody, body_distance, origin_body

    P = np.asarray(P, dtype=float)
    return body_distance(origin_body(P.shape[1]), PolytopeBody(P), tol,
                         until_decided=True)
