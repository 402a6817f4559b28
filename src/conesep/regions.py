"""Cone regions and the convex bodies spanned by their norm-bases.

A region denotes a (possibly nonconvex) cone assembled from two leaf
kinds: convex polyhedral pieces, and the closed complement (X \\ K) united
with {0}.  A finite union is a region of several leaves, and the boundary
of a solid cone is the union of its facet cones.  All analytic access goes
through the linear minimization oracle (LMO) over the closure of the
region's norm-base B = region intersect unit sphere; the convex body used
by the distance engine is conv(B), optionally with the origin adjoined (the
S vs S0 hull of the base).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, kernels
from .errors import (
    DimensionMismatch,
    NotConvex,
    NotSolid,
    TrivialRegion,
    ZeroDirection,
)
from .geometry import PolyCone

# Projections with norm below this (relative to the direction) count as zero,
# i.e. the direction is taken to lie in the dual cone.
PROJ_ZERO_TOL = 1e-11


@dataclass(frozen=True)
class LmoResult:
    value: float
    witness: np.ndarray
    # a bound on value's error: the true minimum is at least value - error
    error: float = 0.0


class _Leaf:
    """The protocol every leaf kind shares; no other module tells them apart.

    ``cone`` is the cone the leaf is built from.  ``pieces`` are the convex
    cones whose union is the base closure: a piece leaf's is ``cone``
    itself.  Only the complement leaf has no pieces; its base closure is
    the unit sphere outside the interior of ``cone``.
    """

    __slots__ = ("cone", "pieces")

    @property
    def dim(self) -> int:
        return self.cone.dim


class _PieceLeaf(_Leaf):
    __slots__ = ()

    def __init__(self, cone: PolyCone):
        self.cone = cone
        self.pieces = (cone,)

    def lmo(self, f: np.ndarray) -> LmoResult:
        return _lmo_piece(self.cone, f)

    def contains_unit_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        """``geometry.cone_membership`` of each row, NNLS on the generators;
        a non-finite row is in no cone."""
        return np.array([bool(np.isfinite(x).all())
                         and geometry.cone_membership(x, self.cone, tol) for x in X],
                        dtype=bool)

    def anchor_points(self) -> np.ndarray:
        return self.cone.generators.T

    def centroid(self) -> np.ndarray:
        return geometry.generator_mean(self.cone)


class _ComplementLeaf(_Leaf):
    """The closure of X \\ K with {0}, for a solid K other than the whole
    space.  It keeps only the unit facet normals of K, from the cached
    ``_inspan_hrep``: the LMO's closed form and membership read nothing
    else, ``anchor_points`` K's generators on them, and ``centroid`` K's
    cached generator mean.  It is the one test of "strictly inside K".
    """

    __slots__ = ("normals",)

    def __init__(self, cone: PolyCone):
        if not geometry.solidity(cone):
            # The complement of a non-solid cone has the whole sphere in its
            # closure; the body degenerates to the unit ball.
            raise NotSolid("complement regions need a solid excluded cone")
        if geometry.is_whole_space(cone):
            raise TrivialRegion("cannot take the complement of the whole space")
        self.cone = cone
        self.pieces = ()
        self.normals = geometry.facet_normals(cone)

    def lmo(self, f: np.ndarray) -> LmoResult:
        """Minimum over the closed base, the unit sphere minus int K.

        The free minimizer u = -f/|f| wins unless it is strictly interior
        to K (``contains_unit_batch`` rejects it); then the minimum is the
        closed form of ``_lmo_across_facet``, one product N @ u for all
        facets.  A half-space K with inward normal n = u, a ray in R^1
        included, has its closed form there too.
        """
        N = self.normals
        fn = math.sqrt(float(f @ f))
        u = -f / fn
        s = N @ u
        if float(s.min()) <= geometry.MEMBERSHIP_TOL:
            return LmoResult(-fn, u)
        return _lmo_across_facet(N, s, u, fn)

    def contains_unit_batch(self, X: np.ndarray, tol: float) -> np.ndarray:
        N = self.normals
        scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
        return (X @ N.T).min(axis=1) <= tol * scale

    def anchor_points(self) -> np.ndarray:
        """The generators on each facet, normal by normal: the rows of
        ``geometry.facets(K).pieces``.  A ray in R^1 has none on its one
        facet {0}, and its base is the point -n."""
        G = self.cone.generators
        pts = np.concatenate([G[:, np.abs(n @ G) <= 1e-9].T for n in self.normals])
        return pts if len(pts) else -self.normals

    def centroid(self) -> np.ndarray:
        return -geometry.generator_mean(self.cone)


class ConeRegion:
    """Union-of-leaves view of a cone region; LMO = min over the leaves."""

    __slots__ = ("leaves", "dim")

    def __init__(self, leaves):
        leaves = tuple(leaves)
        if not leaves:
            raise TrivialRegion("a region needs at least one leaf")
        dim = leaves[0].dim
        if any(leaf.dim != dim for leaf in leaves):
            raise DimensionMismatch("region leaves live in different dimensions")
        self.leaves = leaves
        self.dim = dim

    # -- constructors -----------------------------------------------------
    @staticmethod
    def piece(cone: PolyCone) -> "ConeRegion":
        return ConeRegion([_PieceLeaf(cone)])

    @staticmethod
    def union(*parts: "ConeRegion") -> "ConeRegion":
        leaves = []
        for part in parts:
            leaves.extend(part.leaves)
        return ConeRegion(leaves)

    @staticmethod
    def complement(cone: PolyCone) -> "ConeRegion":
        return ConeRegion([_ComplementLeaf(cone)])

    @staticmethod
    def boundary(cone: PolyCone) -> "ConeRegion":
        """The boundary of a cone: the union of its facet cones, or the cone
        itself when it is not solid."""
        pieces = geometry.facets(cone).pieces
        if not pieces:
            raise TrivialRegion("the boundary of a ray in R^1 is {0}, whose base is empty")
        return ConeRegion([_PieceLeaf(p) for p in pieces])

    # -- structure --------------------------------------------------------
    @property
    def is_single_piece(self) -> bool:
        return len(self.leaves) == 1 and isinstance(self.leaves[0], _PieceLeaf)

    def single_cone(self) -> PolyCone:
        if not self.is_single_piece:
            raise NotConvex("a single convex piece is required here")
        return self.leaves[0].cone

    def piece_cones(self) -> list[PolyCone]:
        """Cones of the piece leaves (complement leaves excluded)."""
        return [leaf.cone for leaf in self.leaves if isinstance(leaf, _PieceLeaf)]

    @property
    def has_compound_leaves(self) -> bool:
        return any(not isinstance(leaf, _PieceLeaf) for leaf in self.leaves)

    # -- analytic access ---------------------------------------------------
    def lmo(self, direction) -> LmoResult:
        f = np.asarray(direction, dtype=float)
        if f.shape != (self.dim,):
            raise DimensionMismatch("direction dimension does not match the region")
        fn = math.sqrt(float(f @ f))
        if not 1e-300 < fn < math.inf:
            raise ZeroDirection(
                "LMO needs a nonzero direction" if fn <= 1e-300
                else "LMO needs a finite direction"
            )
        if len(self.leaves) == 1:
            return self.leaves[0].lmo(f)
        return _least([leaf.lmo(f) for leaf in self.leaves])

    def contains_unit_batch(self, X, tol: float = geometry.MEMBERSHIP_TOL) -> np.ndarray:
        """Membership of unit vectors in the closure of the region's base."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        ok = np.zeros(X.shape[0], dtype=bool)
        for leaf in self.leaves:
            ok |= leaf.contains_unit_batch(X, tol)
        return ok

    def anchor_points(self) -> np.ndarray:
        """Unit rays guaranteed to lie in the base closure (leaf generators)."""
        return np.concatenate([leaf.anchor_points() for leaf in self.leaves], axis=0)

    def centroid(self) -> np.ndarray:
        """Mean of the leaf centroids, a point of the base hull (see
        ``ConvexBody.start_point``); one leaf's is returned as it is, the
        mean of one item being that item, bit for bit."""
        if len(self.leaves) == 1:
            return self.leaves[0].centroid()
        return np.mean([leaf.centroid() for leaf in self.leaves], axis=0)


def _lmo_piece(cone: PolyCone, f: np.ndarray) -> LmoResult:
    """LMO over the norm-base of a convex piece, exact but for its error.

    Dichotomy: if the projection p of -f onto the cone is nonzero, the
    minimum of <f, x> over unit x in the cone equals -|p| at p/|p|; otherwise
    f lies in the dual cone and the minimum is attained at a unit extreme
    ray, hence at a stored generator (triangle inequality argument).

    The projection is Lawson-Hanson NNLS of -f on the generators, whose
    dual vector at its start, lambda = 0, is G.T @ -f = -(f @ G), bit for
    bit.  When no generator scores below -KKT_TOL * max(|f|, max |f @ G|),
    NNLS would return lambda = 0 and p = 0, so f is taken to be in the dual
    cone with no solve.  A best score of 0 or more settles that before the
    slack is formed; most calls end there.  Otherwise the best-scoring
    generator j turns passive: NNLS's closed-form first step
    (``kernels.first_step``) is taken here, and when no other generator's
    dual then exceeds the KKT slack, lambda is that one coefficient, as
    NNLS would return it.  Only a projection onto a face of two or more
    rays calls ``kernels.nnls``.  Either way the coefficients, and so p,
    are NNLS's to the bit.

    The result's error bounds what rounding and the KKT slack may hide,
    wherever some score is negative; a minimum taken with every score 0 or
    more is exact.  After an NNLS solve, p sums terms of total size
    sum(lambda), which exceeds |p| by up to the face's condition number
    (about 1/eta for two rays eta short of opposite), so |p| is known to
    KKT_TOL * sum(lambda), NNLS's precision; the one-ray step is exact to
    rounding.  Then ``_slack_gap`` adds what the generators the slack left
    out could add, from lambda = 0 when f is in the dual cone to the slack,
    unless |f| - |p|, which bounds it as well, is within the slack.
    """
    G = cone.generators
    vals = f @ G
    j = int(vals.argmin())
    vj = float(vals[j])
    if vj < 0.0:
        fn = math.sqrt(float(f @ f))
        tol_w = kernels.KKT_TOL * max(fn, float(np.abs(vals).max()))
        y = -f
        pn = err = 0.0
        if -vj > tol_w:
            lam, _, w = kernels.first_step(G, y, -vj, j)
            w[j] = -np.inf
            wmax = float(w.max())
            if wmax > tol_w:
                # kernels.project_onto_cone would also form the Moreau
                # residuals, which this hot path never reads
                lam = kernels.nnls(G, y).coeffs
                # the duals at NNLS's end; p's terms sum to sum(lambda), the
                # generators being unit
                w = np.where(lam > 0.0, -np.inf, G.T @ (y - G @ lam))
                wmax, err = float(w.max()), kernels.KKT_TOL * float(lam.sum())
            p = G @ lam
            pn = math.sqrt(float(p @ p))
        else:  # f in the dual cone to the slack: NNLS stays at lambda = 0
            lam, w, wmax = np.zeros(len(vals)), -vals, -vj
        if wmax > -tol_w:
            # no projection is longer than y, so fn - pn bounds the gap too;
            # within the slack it is tight enough
            gap = fn - pn
            err += max(gap, 0.0) if gap <= tol_w else _slack_gap(G, y, lam, w,
                                                                   tol_w, pn)
        if pn > PROJ_ZERO_TOL * fn:
            return LmoResult(-pn, p / pn, err)
        # the best generator stands for a projection at zero, or none: the
        # minimum is at least -(pn + err)
        return LmoResult(vj, G[:, j].copy(), vj + pn + err)
    return LmoResult(vj, G[:, j].copy())


def _slack_gap(G: np.ndarray, y: np.ndarray, lam: np.ndarray, w: np.ndarray,
               tol_w: float, pn: float) -> float:
    """What the generators off the face of lam could add to |p| = pn.

    w holds their duals g_j . (y - p), the passive entries -inf.  A dual
    within the KKT slack tol_w of 0 may still hide a generator that adds
    much: a ray eta short of opposite a face ray adds up to w_j / eta, and
    a nearly opposite pair off the face more together than either alone.
    So the bound is the length of y's projection onto the span of the face
    and every such generator (some dual is above -tol_w), less pn.  An SVD
    gives that span, singular values under d eps of the largest dropped,
    so a generator in the face's span adds nothing.
    """
    near = w > -tol_w
    U, sv, _ = np.linalg.svd(G[:, (lam > 0.0) | near], full_matrices=False)
    z = U[:, sv > sv[0] * len(y) * np.finfo(float).eps].T @ y
    return max(0.0, math.sqrt(float(z @ z)) - pn)


def _least(results: list[LmoResult]) -> LmoResult:
    """The least value, the earliest on a tie as with min(), for a union;
    its error widens to cover every result's lower bound value - error."""
    best = results[0]
    low = best.value - best.error
    for res in results[1:]:
        if res.value < best.value:
            best = res
        low = min(low, res.value - res.error)
    if low < best.value - best.error:
        best = LmoResult(best.value, best.witness, best.value - low)
    return best


def _lmo_across_facet(N: np.ndarray, s: np.ndarray, u: np.ndarray,
                      fn: float) -> LmoResult:
    """min of <f, x> over unit x outside int K, for u = -f/|f| strictly
    inside K = {x : N x >= 0} with unit rows N and slacks s = N @ u > 0.

    Unit x with n_i . x <= 0 has <u, x> <= |p_i|, where p_i = u - s_i n_i
    is the projection of u onto that half-space (|p_i|^2 = 1 - s_i^2), with
    equality at p_i/|p_i|.  So the smallest slack s_i wins: the value is
    -|f| |p_i| at p_i/|p_i|, which lies in K (n_j . p_i >= s_j - s_i >= 0
    when n_i . n_j >= 0, and > 0 otherwise), hence on its facet i.  p_i is
    zero only when s_i = 1, that is when every unit n_j has n_j . u >= 1
    and so equals u: K is the half-space of inward normal n = n_i.  In R^1
    the base is then the single point -n, where <f, -n> = |f|.  Otherwise
    the minimum, -|f| |p_i| >= -|f| PROJ_ZERO_TOL, is nearly attained at
    any unit x orthogonal to n: e_k - n_k n, normalized, for the least
    |n_k| (n_k^2 <= 1/d <= 1/2, so one pass is exact to rounding).  The
    error takes value - error down to that bound.
    """
    i = int(np.argmin(s))
    n = N[i]
    p = u - s[i] * n
    # Projecting twice leaves n_i . p at rounding relative to |p|, not to
    # |u| = 1, which matters when u is close to n_i: one pass left a
    # witness 8e-8 outside the base 2e-11 rad off a half-plane's normal.
    p -= float(n @ p) * n
    pn = math.sqrt(float(p @ p))
    if pn > PROJ_ZERO_TOL:
        return LmoResult(-fn * pn, p / pn)
    if len(n) == 1:
        return LmoResult(fn, -n)
    k = int(np.abs(n).argmin())
    x = -n[k] * n
    x[k] += 1.0
    x /= math.sqrt(float(x @ x))
    value = -fn * float(u @ x)
    return LmoResult(value, x, max(0.0, value + fn * PROJ_ZERO_TOL))


def lmo_norm_base(region: ConeRegion, direction) -> LmoResult:
    """min over cl(B_region) of <direction, x> with an attaining witness."""
    return region.lmo(direction)


def support_norm_base(region: ConeRegion, functional) -> LmoResult:
    """sup over cl(B_region) of <functional, x> with an attaining witness."""
    f = np.asarray(functional, dtype=float)
    res = region.lmo(-f)
    return LmoResult(-res.value, res.witness, res.error)


@dataclass(frozen=True)
class ConvexBody:
    """conv(base closure), with the origin optionally adjoined (S vs S0)."""

    region: ConeRegion
    adjoin_origin: bool

    @property
    def dim(self) -> int:
        return self.region.dim

    def lmo(self, direction) -> LmoResult:
        res = self.region.lmo(direction)
        if self.adjoin_origin and res.value > 0.0:
            return LmoResult(0.0, np.zeros(self.dim))
        return res

    def start_point(self) -> np.ndarray:
        """A point of the body that costs no LMO call: the origin when it
        is adjoined, else the region's centroid, the mean of its leaves'.
        A piece's is its generator mean, a convex combination of unit
        generators.  A complement's is -m for the generator mean m of its
        solid cone K other than the whole space: K lies in a closed
        half-space {a . x >= 0}, so the base holds the closed hemisphere
        a . x <= 0, whose hull, the half-ball, holds -m (|m| <= 1 and
        a . m >= 0)."""
        return np.zeros(self.dim) if self.adjoin_origin else self.region.centroid()


def body(region: ConeRegion, adjoin_origin: bool) -> ConvexBody:
    return ConvexBody(region, adjoin_origin)
