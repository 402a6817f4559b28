"""Dense numerical kernels: NNLS, conic projection, min-norm point.

Everything in this module works on raw numpy arrays so the geometric layers
above stay free of solver detail.  All solvers return a ``certified`` flag;
callers must treat non-certified results as best-effort iterates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroDirection

# Relative KKT slack accepted as "solved" by the active-set NNLS.
KKT_TOL = 1e-12
# Relative optimality slack accepted by the min-norm-point loop.
MNP_TOL = 1e-14
# Convex weights at or below this are dropped from working sets.
WEIGHT_FLOOR = 1e-14


@dataclass(frozen=True)
class NnlsResult:
    coeffs: np.ndarray
    residual: float
    kkt_residual: float
    certified: bool
    iterations: int


def nnls(G: np.ndarray, y: np.ndarray) -> NnlsResult:
    """Solve min ||G @ lam - y||_2 subject to lam >= 0 (Lawson-Hanson).

    Active-set method: repeatedly move the most violated dual coordinate into
    the passive set, solve the unconstrained least squares on the passive
    columns, and walk back to feasibility when that solution leaves the
    nonnegative orthant.  The KKT residual reported is relative to the data
    scale, so ``certified`` means the stationarity and complementarity
    conditions hold to roughly machine precision.  A non-finite target
    raises ZeroDirection.
    """
    G = np.asarray(G, dtype=float)
    y = np.asarray(y, dtype=float)
    if G.ndim != 2 or y.ndim != 1 or G.shape[0] != y.shape[0]:
        raise ValueError("nnls expects G with shape (d, n) and y with shape (d,)")
    d, n = G.shape
    scale = float(np.abs(G.T @ y).max(initial=0.0))
    if not scale < np.inf:
        raise ZeroDirection("nnls needs a finite target")
    scale = max(1.0, scale)
    tol_w = KKT_TOL * scale

    lam = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    outer = 0
    certified = True
    while outer < 3 * n + 30:
        w = G.T @ (y - G @ lam)
        w_free = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_free))
        if w_free[j] <= tol_w:
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
    else:
        certified = False

    resid_vec = y - G @ lam
    w = G.T @ resid_vec
    kkt = max(float(w.max(initial=0.0)), float(np.abs(w[lam > 0.0]).max(initial=0.0)))
    kkt = max(kkt, 0.0) / scale
    certified = certified and kkt <= 10.0 * KKT_TOL
    return NnlsResult(
        coeffs=lam,
        residual=float(np.linalg.norm(resid_vec)),
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


@dataclass(frozen=True)
class MinNormResult:
    point: np.ndarray
    weights: np.ndarray
    gap: float
    certified: bool
    iterations: int

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.point))


def _affine_min_norm(Q: np.ndarray) -> np.ndarray:
    """Weights of the min-norm point in the affine hull of the rows of Q.

    The point is q_0 + D mu with D = (q_i - q_0)^T, and mu solves the least
    squares problem min |q_0 + D mu|.  Solving it on D directly keeps the
    error proportional to cond(D); the bordered Gram system [QQ^T 1; 1^T 0]
    squares that condition number, which on a nearly flat corral (support
    points 1e-4 apart on a curved cap) flips the sign of a weight and makes
    the minor cycle drop and re-add the same vertex until the cycle cap.
    """
    D = (Q[1:] - Q[0]).T
    mu, *_ = np.linalg.lstsq(D, -Q[0], rcond=None)
    return np.concatenate(([1.0 - mu.sum()], mu))


def min_norm_point(P: np.ndarray) -> MinNormResult:
    """Wolfe's algorithm for the least-norm point of conv(rows of P).

    Maintains a corral of affinely independent points; each major cycle pulls
    in the vertex most aligned against the current iterate, each minor cycle
    projects onto the affine hull of the corral and walks back into the
    simplex, dropping vertices whose weight hits zero.  Terminates when
    <x, x - p_j> is below a relative tolerance for every vertex p_j, which
    certifies x as the minimum-norm point up to that gap.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2:
        raise ValueError("min_norm_point expects points as rows of a 2-D array")
    m, _ = P.shape
    if m == 0:
        raise ValueError("min_norm_point needs at least one point")

    norms2 = np.einsum("ij,ij->i", P, P)
    scale = max(1.0, float(norms2.max()))
    tol = MNP_TOL * scale

    corral = [int(np.argmin(norms2))]
    w = np.array([1.0])
    x = P[corral[0]].copy()
    gap = float(x @ x) - float((P @ x).min(initial=0.0))
    certified = False
    it = 0
    while it < 16 * m + 64:
        it += 1
        scores = P @ x
        j = int(np.argmin(scores))
        gap = float(x @ x) - float(scores[j])
        if gap <= tol:
            certified = True
            break
        if j in corral:
            # No vertex improves on the corral: numerically stalled.
            certified = gap <= 100.0 * tol
            break
        before = list(corral)
        corral.append(j)
        w = np.append(w, 0.0)
        for _ in range(m + 1):
            Q = P[corral]
            a = _affine_min_norm(Q)
            if a.min() >= -WEIGHT_FLOOR:
                w = np.clip(a, 0.0, None)
                s = w.sum()
                w = w / s if s > 0 else np.full(len(corral), 1.0 / len(corral))
                break
            shrink = a < WEIGHT_FLOOR
            steps = w[shrink] / (w[shrink] - a[shrink])
            theta = float(steps.min())
            w = (1.0 - theta) * w + theta * a
            keep = w > WEIGHT_FLOOR
            if not keep.any():
                keep[int(np.argmax(w))] = True
            corral = [c for c, k in zip(corral, keep) if k]
            w = w[keep]
            w = w / w.sum()
        x = w @ P[corral]
        if corral == before:
            # The minor cycles dropped j again: the next major cycle would
            # pick the same j and repeat this one exactly.
            certified = gap <= 100.0 * tol
            break
    weights = np.zeros(m)
    weights[corral] = w
    return MinNormResult(
        point=x,
        weights=weights,
        gap=max(gap, 0.0),
        certified=certified,
        iterations=it,
    )
