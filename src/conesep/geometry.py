"""Euclidean norms and polyhedral convex cones given by generator rays.

A ``PolyCone`` is its unit, deduplicated generator columns and nothing
else.  Its one outer description, derived from them and cached, is
``_inspan_hrep``: inward facet normals within the generators' span; batch
membership, facet normals, facets and the interior test all read it.
A candidate facet normal is the unit cofactor vector of an (r-1)-subset of
the n rays (r the span dimension), or its SVD null direction when the
subset spans little volume.
Enumeration takes one of two paths by the count C(n, r-1) of subsets.  Up
to SUBSET_CROSSOVER (SUBSET_CROSSOVER_3D in 3-D) it tests every subset in
one stacked call.  Over it the double-description method finds the facets,
one ray at a time, and each facet's normal comes from its first subset of
tight rays; a cone whose enumeration would hold over MAX_DD_RAYS rays raises
DimensionTooHigh.  Both paths give the normals of testing every subset, bit
for bit and in the same order.

A fresh cone pays for this set-up once, so its cheap cases take shortcuts,
each of which keeps every output bit: a dedupe that keeps every row returns
the rows as they are; a solid cone's membership skips the span test, which
X @ identity passes exactly; and a batch all inside at tolerance 0 needs no
second pass.  Each docstring says why.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatch,
    DimensionTooHigh,
    EmptyCone,
    NotSolid,
    TrivialRegion,
    ZeroGenerator,
)

# Pointedness margin on the generator hull: distances at or below this mean
# the hull of the normalized rays reaches the origin.
TOL_POINT = 1e-9
# Relative singular value cutoff used for rank decisions.
RANK_REL = 1e-10
# Rays whose cosine reaches this collapse to a single generator.
DEDUP_COS = 1.0 - 1e-12
# Unit generators whose nonzero sum is this short are within rounding of a line.
NEAR_LINE = 64 * np.finfo(float).eps
# Norms within this of 1 count as unit: such rays stay untouched.
_UNIT_SLACK = 8 * np.finfo(float).eps
# Smallest normal float: a squared norm below it has lost precision.
_TINY = np.finfo(float).tiny
# Facet normals whose cosine reaches this collapse to the first one.
FACET_DEDUP_COS = 1.0 - 1e-9
# Default membership tolerance (distance of x to the cone).
MEMBERSHIP_TOL = 1e-9
# Sign slack for facet normal tests.
FACET_TOL = 1e-10
# A facet subset of d-1 unit columns whose cofactor is longer than this
# takes its unit cofactor as its normal; a shorter one takes its SVD's.
COFACTOR_MIN = 1e-3
# Facet enumeration tests every (r-1)-subset of a cone's n rays in one
# stacked call while C(n, r-1) is at most this, and runs the
# double-description method over it.  Measured on random cones (CHANGES.md
# has the tables): double description wins from about 500 to 1100 subsets
# in 4-D to 6-D; in 3-D, where a subset's normal is a cross product, from
# about 6000 (110 rays) when few rays are facets, and between 20000 and
# 31000 when every ray is one.
SUBSET_CROSSOVER = 1000
SUBSET_CROSSOVER_3D = 6000
# Most rays the double-description method may hold at one step; over it
# facet enumeration raises DimensionTooHigh.  Random 50-ray cones in 8-D
# have about 4700 facets and take 0.2 s; 60 rays in 6-D have 642 and take
# 0.04 s.
MAX_DD_RAYS = 4096
# Rows per block in the pairwise products of facet enumeration, so that no
# product holds more than BLOCK * MAX_DD_RAYS entries.
BLOCK = 256
# Row i of a block is compared with the rows before it: the strict lower
# triangle of its own columns.
_EARLIER = np.tri(BLOCK, k=-1, dtype=bool)


class Norm(Enum):
    EUCLIDEAN = "euclidean"
    L1 = "l1"
    LINF = "linf"


def norm_value(x: np.ndarray, norm: Norm = Norm.EUCLIDEAN) -> float:
    x = np.asarray(x, dtype=float)
    if norm is Norm.EUCLIDEAN:
        return float(np.linalg.norm(x))
    if norm is Norm.L1:
        return float(np.abs(x).sum())
    return float(np.abs(x).max(initial=0.0))


def dual_norm(x_star: np.ndarray, norm: Norm = Norm.EUCLIDEAN) -> float:
    """Dual norm of a functional: l2 <-> l2, l1 <-> linf."""
    x_star = np.asarray(x_star, dtype=float)
    if norm is Norm.EUCLIDEAN:
        return float(np.linalg.norm(x_star))
    if norm is Norm.L1:
        return float(np.abs(x_star).max(initial=0.0))
    return float(np.abs(x_star).sum())


class PolyCone:
    """Convex polyhedral cone spanned by unit generator rays.

    Immutable after construction; use :func:`make_polycone`.
    """

    __slots__ = ("generators", "_cache")

    def __init__(self, generators: np.ndarray):
        self.generators = generators
        self._cache: dict[str, object] = {}

    @property
    def dim(self) -> int:
        return self.generators.shape[0]

    @property
    def n_rays(self) -> int:
        return self.generators.shape[1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PolyCone(dim={self.dim}, rays={self.n_rays})"


@dataclass(frozen=True)
class PointednessResult:
    """Whether a cone is pointed, from the distance between the origin and
    the hull of its unit rays.  For a pointed cone that solve stops at its
    first deciding bracket, so hull_distance is an upper bound on the hull
    distance; otherwise it is at most TOL_POINT, and witness is a ray
    whose negation is also in the cone."""

    pointed: bool
    hull_distance: float
    witness: np.ndarray | None


@dataclass(frozen=True)
class BoundaryDecomposition:
    pieces: tuple[PolyCone, ...]


def make_polycone(generators) -> PolyCone:
    """Build a cone from generator rays (one vector per row or sequence item).

    Rays are normalized and near-duplicates collapsed.  The norms are
    ``np.linalg.norm(G, axis=1)``'s own operations on a real array, so
    they carry its bits.  A row whose squared norm overflows, or falls
    below the normal floats, would lose its direction that way: such a row
    alone is divided by its largest |entry| first.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G[None, :]
    if G.ndim != 2 or G.size == 0:
        raise EmptyCone("a cone needs at least one generator ray")
    if not np.isfinite(G).all():
        raise ZeroGenerator("generator rays must be nonzero finite vectors")
    with np.errstate(over="ignore", under="ignore"):
        sq = np.add.reduce(G * G, axis=1)
    lost = ~((sq >= _TINY) & (sq < np.inf))
    if lost.any():
        big = np.abs(G[lost]).max(axis=1)
        if not big.all():
            raise ZeroGenerator("generator rays must be nonzero finite vectors")
        G = G.copy()
        G[lost] /= big[:, None]
        sq[lost] = np.add.reduce(G[lost] * G[lost], axis=1)
    norms = np.sqrt(sq)
    # vectors already unit to machine precision stay untouched, so that
    # serialized cones re-parse to the same bits (renormalizing can flip
    # the last ulp back and forth)
    scale = np.where(np.abs(norms - 1.0) <= _UNIT_SLACK, 1.0, norms)
    U = G / scale[:, None]
    if len(U) > 1:
        U = _first_distinct(U, DEDUP_COS)
    cols = np.ascontiguousarray(U.T)
    cols.setflags(write=False)
    return PolyCone(cols)


def cone_membership(x, cone: PolyCone, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff the distance from x to the cone is at most tol (via NNLS)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.dim,):
        raise DimensionMismatch("point dimension does not match the cone")
    res = kernels.nnls(cone.generators, x)
    return res.residual <= tol * max(1.0, float(np.linalg.norm(x)))


def cone_membership_batch(X, cone: PolyCone) -> np.ndarray:
    """cone_membership of every row of X, deciding the clear rows at once.

    With enumerated facet normals, contains_batch brackets the NNLS verdict:
    a row it accepts at tolerance 0 is in the cone, and one it rejects at
    MEMBERSHIP_TOL is farther than that from it, since the distance to the
    cone is at least the distance to its span and to each facet's
    half-space.  The rows in between, and non-finite rows (where NNLS
    raises), go to NNLS.  When every row is accepted at tolerance 0 the
    second pass would find no row in between, so it is skipped.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != cone.dim:
        raise DimensionMismatch("point dimension does not match the cone")
    inside = contains_batch(cone, X, 0.0)
    if inside.all():
        return inside
    band = ~inside & (contains_batch(cone, X) | ~np.isfinite(X).all(axis=1))
    inside[band] = [cone_membership(x, cone) for x in X[band]]
    return inside


def _span_basis(cone: PolyCone) -> np.ndarray:
    """Orthonormal basis (d, r) of the linear span of the generators."""
    b = cone._cache.get("span")
    if b is None:
        U, s, _ = np.linalg.svd(cone.generators, full_matrices=False)
        r = int(np.sum(s > RANK_REL * s[0])) if s.size else 0
        b = U[:, :r]
        cone._cache["span"] = b
    return b


def solidity(cone: PolyCone) -> bool:
    """True iff the cone has nonempty interior (generators span the space)."""
    return _span_basis(cone).shape[1] == cone.dim


def pointedness(cone: PolyCone) -> PointednessResult:
    """Decide pointedness via the distance from 0 to conv(normalized rays).

    The solve stops once its lower bound clears ``distance.DEAD_BAND`` *
    TOL_POINT: the cone is then pointed, and the norm of the hull point
    it ends on, above that bound, is the reported hull_distance.  That
    point is often the generator mean, whose direction's bracket decides
    before any corral is formed.  When the hull reaches the
    origin, the zero convex combination yields a witness ray x with both x
    and -x in the cone.  The result is cached on the cone, with a
    read-only witness.
    """
    out = cone._cache.get("pointed")
    if out is None:
        res = kernels.min_norm_point(cone.generators.T, TOL_POINT)
        dist = res.distance
        if dist > TOL_POINT:
            out = PointednessResult(True, dist, None)
        else:
            witness = res.support_b[int(np.argmax(res.weights))].copy()
            witness.setflags(write=False)
            out = PointednessResult(False, dist, witness)
        cone._cache["pointed"] = out
    return out


def generator_mean(cone: PolyCone) -> np.ndarray:
    """The mean of the cone's generator columns, computed once and cached
    read-only: add.reduce over the columns divided by their count, the
    operations of ``generators.mean(axis=1)``, so the same bits."""
    m = cone._cache.get("mean")
    if m is None:
        G = cone.generators
        m = np.add.reduce(G, axis=1) / G.shape[1]
        m.setflags(write=False)
        cone._cache["mean"] = m
    return m


def is_whole_space(cone: PolyCone) -> bool:
    """True iff the cone is solid and every +-e_i is a member (within
    MEMBERSHIP_TOL, through NNLS).

    One product decides most cones first: when the generator mean y has
    y . g > 0 on every generator g, the cone lies in the half-space
    y . x >= 0, and so cannot be the whole space.  The member test would
    say no as well: for each i one of +-e_i lies |y_i| / |y| from that
    half-space, so at least as far from the cone, and these distances
    cannot all be within MEMBERSHIP_TOL, since their squares sum to 1.
    Every other cone takes the solidity and membership test.
    """
    v = cone._cache.get("whole")
    if v is None:
        G = cone.generators
        in_half_space = float((generator_mean(cone) @ G).min()) > 0.0
        v = not in_half_space and solidity(cone) and all(
            cone_membership(sgn * e, cone)
            for e in np.eye(cone.dim)
            for sgn in (1.0, -1.0)
        )
        cone._cache["whole"] = v
    return bool(v)


def nearly_a_line(cone: PolyCone) -> bool:
    """True iff two unit generators have 0 < |g_i + g_j| <= NEAR_LINE (an
    exact line, a sum of 0, is legal); cached.  Such a pair's scores under
    the generator mean y sum to at most NEAR_LINE |y|, so only generators
    scoring that or less are summed with every generator."""
    v = cone._cache.get("near_line")
    if v is None:
        G, y = cone.generators, generator_mean(cone)
        scores, bound = (y @ G).tolist(), NEAR_LINE * math.hypot(*y.tolist())
        v = cone._cache["near_line"] = min(scores) <= bound and any(
            ((s > 0.0) & (s <= NEAR_LINE)).any()
            for s in (np.linalg.norm(G + g[:, None], axis=0)
                      for g, score in zip(G.T, scores) if score <= bound))
    return v


def _oriented_normals(points: np.ndarray, idx: np.ndarray):
    """The normals of the column subsets idx (k, d-1), with a mask of those
    that are facet normals.

    The cofactor vector of d-1 columns is normal to them, and its length is
    their (d-1)-volume: in 3-D the pair's cross product, written out, else
    the signed determinants of the minors.  Over COFACTOR_MIN the normal is
    the unit cofactor, within a few eps / COFACTOR_MIN of the null
    direction, and the (d-1)-th singular value is at least the length over
    sqrt(d-1), so the subset has full rank.  The rest take one stacked SVD
    (the same bits per matrix as one call each): the null direction, and
    full rank when the (d-1)-th singular value exceeds RANK_REL * max(1,
    largest).  A subset counts when it has full rank and its normal, or the
    negation (the one returned), has every column at or above -FACET_TOL.
    """
    d = points.shape[0]
    if d == 3:
        (ax, ay, az), (bx, by, bz) = points[:, idx[:, 0]], points[:, idx[:, 1]]
        cof = np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=1)
    else:
        minors, signs = _minors(d)
        cof = signs * np.linalg.det(points.T[idx][:, :, minors].transpose(0, 2, 1, 3))
    length = np.linalg.norm(cof, axis=1)
    ok = length > COFACTOR_MIN
    nrm = cof / np.where(ok, length, 1.0)[:, None]
    if not ok.all():
        low = np.flatnonzero(~ok)
        _, s, Vt = np.linalg.svd(points.T[idx[low]])
        nrm[low] = Vt[:, d - 1]
        ok[low] = s[:, d - 2] > RANK_REL * np.maximum(1.0, s[:, 0])
    slack = nrm @ points
    lower = slack.min(axis=1) >= -FACET_TOL
    upper = slack.max(axis=1) <= FACET_TOL
    return np.where(lower[:, None], nrm, -nrm), ok & (lower | upper)


def _first_distinct(rows: np.ndarray, cos: float = FACET_DEDUP_COS) -> np.ndarray:
    """The unit rows whose cosine with every earlier row kept is below cos,
    compared BLOCK rows at a time.  Most blocks hold no near pair, and one
    product with the rows up to the block's end settles them.  When every
    row is kept the rows are returned as they are: the same bits, without
    the copy ``rows[keep]`` makes."""
    keep = np.ones(len(rows), dtype=bool)
    for lo in range(0, len(rows), BLOCK):
        near = rows[lo:lo + BLOCK] @ rows[:lo + BLOCK].T >= cos
        m = len(near)
        near[:, lo:] &= _EARLIER[:m, :m]
        if near.any():
            for i in np.flatnonzero(near.any(axis=1)):
                keep[lo + i] = not (near[i] & keep[:lo + m]).any()
    return rows if keep.all() else rows[keep]


@functools.lru_cache(maxsize=64)
def _subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), one row each in lexicographic order.
    The array depends on (n, k) alone and is read-only, since every caller
    shares it."""
    idx = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    idx.setflags(write=False)
    return idx


@functools.cache
def _minors(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i: the d-1 columns left when column i is struck out; and the
    cofactor signs (-1)^i."""
    minors = np.array([[j for j in range(d) if j != i] for i in range(d)])
    return minors, (-1.0) ** np.arange(d)


def _subset_facets(points: np.ndarray) -> np.ndarray:
    """Candidate normals from every (d-1)-subset of the columns, in subset
    order, in one stacked call to ``_oriented_normals``."""
    d, n = points.shape
    nrm, ok = _oriented_normals(points, _subsets(n, d - 1))
    return nrm[ok]


def _dd_tight_sets(points: np.ndarray) -> np.ndarray:
    """The tight columns (m, n) of each extreme ray of the dual cone
    {y : points.T @ y >= 0}, by the double-description method.

    The columns are added one at a time.  d of them, chosen by pivoted
    Gram-Schmidt, make the first (simplicial) cone.  Each further column
    keeps the rays on its nonnegative side and joins every adjacent pair
    across it; two rays are adjacent when no third ray is tight on every
    column both are tight on (with at least d-2 of those).  A ray counts as
    tight on a column within FACET_TOL.  Over MAX_DD_RAYS rays at any step
    it raises DimensionTooHigh.
    """
    d, n = points.shape
    A = points.T
    first: list[int] = []
    R = A.copy()
    for _ in range(d):
        res = np.linalg.norm(R, axis=1)
        res[first] = -1.0
        j = int(np.argmax(res))
        first.append(j)
        unit = R[j] / res[j]
        R -= np.outer(R @ unit, unit)
    rays = np.linalg.inv(A[first]).T
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    # tight[k, i]: ray k is tight on column i, as 0/1 so that products count
    tight = np.zeros((d, n), dtype=np.float32)
    tight[:, first] = 1.0 - np.eye(d, dtype=np.float32)
    for i in np.setdiff1d(np.arange(n), first):
        s = rays @ A[i]
        pos = s > FACET_TOL
        neg = s < -FACET_TOL
        tight[~pos & ~neg, i] = 1.0
        if not neg.any():
            continue
        P, Q = np.flatnonzero(pos), np.flatnonzero(neg)
        p, q = np.nonzero(tight[P] @ tight[Q].T >= d - 2)
        p, q = P[p], Q[q]
        adj = np.zeros(len(p), dtype=bool)
        for lo in range(0, len(p), BLOCK):
            common = tight[p[lo:lo + BLOCK]] * tight[q[lo:lo + BLOCK]]
            # ray k holds the common set when their overlap is its size;
            # the pair itself always does
            holders = (common @ tight.T == common.sum(axis=1)[:, None]).sum(axis=1)
            adj[lo:lo + BLOCK] = holders == 2
        p, q = p[adj], q[adj]
        common = tight[p] * tight[q]
        new = s[p, None] * rays[q] - s[q, None] * rays[p]
        new /= np.linalg.norm(new, axis=1)[:, None]
        common[:, i] = 1.0
        rays = np.concatenate([rays[~neg], new])
        tight = np.concatenate([tight[~neg], common])
        if len(rays) > MAX_DD_RAYS:
            raise DimensionTooHigh(
                f"facet enumeration holds over {MAX_DD_RAYS} rays"
            )
    return tight.astype(bool)


def _dd_facets(points: np.ndarray) -> np.ndarray:
    """Candidate normals, one a double-description facet, each from the
    lexicographically first (d-1)-subset of the facet's tight columns that
    passes ``_oriented_normals``, in the order of those subsets.  That is
    the first subset of the facet that subset enumeration accepts, and the
    same function forms its normal, so the candidates carry its bits."""
    d = points.shape[0]
    pending = [combinations(np.flatnonzero(t), d - 1) for t in _dd_tight_sets(points)]
    found: list[tuple[tuple, np.ndarray]] = []
    while pending:
        live = [(h, it) for it in pending if (h := next(it, None)) is not None]
        if not live:
            break
        heads = np.array([h for h, _ in live], dtype=np.intp)
        nrm, ok = _oriented_normals(points, heads)
        found += [(h, v) for (h, _), v, k in zip(live, nrm, ok) if k]
        pending = [it for (_, it), k in zip(live, ok) if not k]
    found.sort(key=lambda hv: hv[0])
    return np.array([v for _, v in found]).reshape(-1, d)


def _enumerate_facet_normals(points: np.ndarray) -> np.ndarray:
    """Inward facet normals (m, d) of cone(columns) in its own (solid) space.

    Every facet of a finitely generated solid cone is spanned by d-1
    linearly independent generators, so its normal shows up as the normal
    of some (d-1)-subset with all generators on one side.  The
    columns are unit vectors.  Up to SUBSET_CROSSOVER subsets (in 3-D,
    SUBSET_CROSSOVER_3D) are all tested; over it the double-description
    method finds the facets and each is tested on its first subsets only.
    Either way a candidate within cosine FACET_DEDUP_COS of a normal kept
    earlier in subset order is dropped, so both give the normals of testing
    every subset, bit for bit and in order.
    """
    d, n = points.shape
    if d == 1:
        if points[0].min() > 0:
            return np.array([[1.0]])
        if points[0].max() < 0:
            return np.array([[-1.0]])
        return np.zeros((0, 1))
    if math.comb(n, d - 1) <= (SUBSET_CROSSOVER_3D if d == 3 else SUBSET_CROSSOVER):
        return _first_distinct(_subset_facets(points))
    return _first_distinct(_dd_facets(points))


def _inspan_hrep(cone: PolyCone) -> tuple[np.ndarray, np.ndarray]:
    """The cone's cached outer description (B, N).

    B (d, r) is an orthonormal basis of the generators' span, the identity
    when the cone is solid, and N (m, r) holds the inward facet normals of
    the cone within that span: x is in the cone iff x lies in the span and
    N @ (B.T @ x) >= 0.  N has zero rows when the cone fills its span.
    Enumeration raises DimensionTooHigh when it would hold over MAX_DD_RAYS
    rays.
    """
    cached = cone._cache.get("hrep")
    if cached is not None:
        return cached
    B = _span_basis(cone)
    r = B.shape[1]
    solid = r == cone.dim
    N = _enumerate_facet_normals(cone.generators if solid else B.T @ cone.generators)
    N.setflags(write=False)
    if solid:
        B = np.eye(r)
    cone._cache["hrep"] = (B, N)
    return B, N


def dual_generators(cone: PolyCone) -> np.ndarray:
    """Rows generating the dual cone {y : y . x >= 0 on the cone}: the
    inward facet normals within the span, and +- a basis of the span's
    orthogonal complement when the cone is not solid."""
    B, N = _inspan_hrep(cone)
    rows = [N @ B.T]
    r = B.shape[1]
    if r < cone.dim:
        perp = np.linalg.svd(B, full_matrices=True)[0][:, r:].T
        rows += [perp, -perp]
    return np.concatenate(rows)


def facet_normals(cone: PolyCone) -> np.ndarray:
    """Inward facet normals (m, d) of a solid cone other than the whole
    space."""
    if not solidity(cone):
        raise NotSolid("facet enumeration needs a solid cone")
    if is_whole_space(cone):
        raise TrivialRegion("the whole space has no facets")
    return _inspan_hrep(cone)[1]


def facets(cone: PolyCone) -> BoundaryDecomposition:
    """Boundary decomposition into facet cones.

    A non-solid cone is its own boundary and is returned as a single piece.
    A solid ray in R^1 has the one facet {0}, whose base is empty, and so
    no pieces.  Each facet cone holds a read-only copy of the parent's
    columns on that facet, as it is: they are already unit and pairwise
    distinct, so ``make_polycone`` would return the same bits.
    """
    out = cone._cache.get("facets")
    if out is None:
        pieces = [cone]
        if solidity(cone):
            pieces = []
            for nrm in facet_normals(cone):
                on = np.abs(nrm @ cone.generators) <= 1e-9
                if on.any():
                    cols = np.ascontiguousarray(cone.generators[:, on])
                    cols.setflags(write=False)
                    pieces.append(PolyCone(cols))
                elif cone.dim > 1:
                    raise NotSolid("facet normal with no incident generators")
        out = cone._cache["facets"] = BoundaryDecomposition(tuple(pieces))
    return out


def contains_batch(cone: PolyCone, X: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Vectorized membership for points given as rows of X: within tol
    (relative to max(1, |x|)) of the generators' span and of each facet's
    half-space in it.

    A non-finite row is in no cone: it is zeroed before any product, where
    it would form NaNs, and fails.  A solid cone's span is the whole space,
    and its basis B the identity.  X @ B is then X itself, since a finite
    entry times 1 plus zeros is that entry, so its span residual is exactly
    0 and passes at any tol >= 0.  So a solid cone skips both products.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != cone.dim:
        raise DimensionMismatch("point dimension does not match the cone")
    B, N = _inspan_hrep(cone)
    in_span = np.isfinite(X).all(axis=1)
    if not in_span.all():
        X = np.where(in_span[:, None], X, 0.0)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
    if B.shape[1] == cone.dim:
        coords = X
    else:
        coords = X @ B
        in_span &= np.linalg.norm(X - coords @ B.T, axis=1) <= tol * scale
    return in_span & ((coords @ N.T).min(axis=1, initial=np.inf) >= -tol * scale)


def strictly_interior(cone: PolyCone, x) -> bool:
    """True iff x lies in the topological interior of a solid cone."""
    x = np.asarray(x, dtype=float)
    if not solidity(cone):
        return False
    if is_whole_space(cone):
        return True
    N = facet_normals(cone)
    scale = max(1.0, float(np.linalg.norm(x)))
    return float((N @ x).min()) > MEMBERSHIP_TOL * scale
