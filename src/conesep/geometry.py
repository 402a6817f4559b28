"""Euclidean norms and polyhedral convex cones given by generator rays.

A ``PolyCone`` is its unit, deduplicated generator columns and nothing
else.  Its one outer description, derived from them and cached, is
``_inspan_hrep``: inward facet normals within the generators' span,
enumerated when the (r-1)-subsets of its n rays (r the span dimension)
number at most MAX_FACET_SUBSETS; batch membership, facet normals, facets
and the interior test all read it.  Enumeration tests every subset,
streaming them in chunks of FACET_CHUNK with one cofactor pre-screen and
one stacked SVD per chunk; the chunk size bounds memory on facet-heavy
cones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice

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
# Rays whose cosine exceeds this collapse to a single generator.
DEDUP_COS = 1.0 - 1e-12
# Default membership tolerance (distance of x to the cone).
MEMBERSHIP_TOL = 1e-9
# Sign slack for facet normal tests.
FACET_TOL = 1e-10
# Generator subsets per stacked SVD in facet enumeration.  The cap bounds
# memory, not time: taking all C(48, 3) = 17296 subsets of a 48-ray 4-D
# cone in one SVD ran no faster and raised a CLI batch's peak RSS from 51
# to 63 MB; from about 128 up the per-call overhead is already amortized.
FACET_CHUNK = 256
# Most generator subsets a facet enumeration may test.  A subset costs
# about 2.4 us in 4-D and 5 us in 6-D (one Xeon core, numpy 2.4), so one
# enumeration stays near 0.5 s (1 s in 6-D); in 4-D the budget admits up to
# 107 rays.  Over it a cone has per-point NNLS membership only.
MAX_FACET_SUBSETS = 200_000


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
    pointed: bool
    hull_distance: float
    witness: np.ndarray | None


@dataclass(frozen=True)
class BoundaryDecomposition:
    pieces: tuple[PolyCone, ...]


def make_polycone(generators) -> PolyCone:
    """Build a cone from generator rays (one vector per row or sequence item).

    Rays are normalized and near-duplicates collapsed.
    """
    G = np.asarray(generators, dtype=float)
    if G.ndim == 1:
        G = G[None, :]
    if G.ndim != 2 or G.size == 0:
        raise EmptyCone("a cone needs at least one generator ray")
    norms = np.linalg.norm(G, axis=1)
    if np.any(norms <= 1e-300) or not np.all(np.isfinite(G)):
        raise ZeroGenerator("generator rays must be nonzero finite vectors")
    # vectors already unit to machine precision stay untouched, so that
    # serialized cones re-parse to the same bits (renormalizing can flip
    # the last ulp back and forth)
    scale = np.where(np.abs(norms - 1.0) <= 8 * np.finfo(float).eps, 1.0, norms)
    U = G / scale[:, None]
    kept: list[np.ndarray] = []
    for row in U:
        if not any(float(row @ other) >= DEDUP_COS for other in kept):
            kept.append(row)
    cols = np.stack(kept, axis=1)
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
    raises), go to NNLS; so does every row of a cone over the subset
    budget.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != cone.dim:
        raise DimensionMismatch("point dimension does not match the cone")
    if _inspan_hrep(cone)[1] is None:
        return np.array([cone_membership(x, cone) for x in X], dtype=bool)
    inside = contains_batch(cone, X, 0.0)
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

    When the hull reaches the origin, the zero convex combination yields a
    witness ray x with both x and -x in the cone.
    """
    res = kernels.min_norm_point(cone.generators.T)
    dist = res.norm
    if dist > TOL_POINT:
        return PointednessResult(True, dist, None)
    k = int(np.argmax(res.weights))
    return PointednessResult(False, dist, cone.generators[:, k].copy())


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
        in_half_space = float((G.mean(axis=1) @ G).min()) > 0.0
        v = not in_half_space and solidity(cone) and all(
            cone_membership(sgn * e, cone)
            for e in np.eye(cone.dim)
            for sgn in (1.0, -1.0)
        )
        cone._cache["whole"] = v
    return bool(v)


def _enumerate_facet_normals(points: np.ndarray) -> list[np.ndarray]:
    """Inward facet normals of cone(columns) in its own (solid) space.

    Classic subset enumeration: every facet of a finitely generated solid
    cone is spanned by d-1 linearly independent generators, so its normal
    shows up as the null direction of some (d-1)-subset with all generators
    on one side.  The columns are unit vectors.  The subsets stream in
    order, FACET_CHUNK at a time; each chunk takes one stacked SVD (the same
    LAPACK routine per matrix, so the same bits as one call per subset),
    run only on the subsets a cofactor pre-screen cannot already reject.  A
    subset counts when its (d-1)-th singular value exceeds
    RANK_REL * max(1, largest), and its null direction, or the negation,
    has every generator at or above -FACET_TOL.  A candidate within cosine
    1 - 1e-9 of a normal found earlier in subset order is dropped.
    """
    d, n = points.shape
    found: list[np.ndarray] = []
    if d == 1:
        signs = points[0]
        if signs.min() > 0:
            return [np.array([1.0])]
        if signs.max() < 0:
            return [np.array([-1.0])]
        return []
    rows = points.T
    subsets = combinations(range(n), d - 1)
    # minors[i]: the columns left when column i is struck out
    minors = np.array([[j for j in range(d) if j != i] for i in range(d)])
    cof_sign = (-1.0) ** np.arange(d)
    while True:
        idx = np.fromiter(islice(subsets, FACET_CHUNK), dtype=(np.intp, d - 1))
        if idx.shape[0] == 0:
            return found
        A = rows[idx]
        # Cofactor pre-screen.  The cofactor vector is normal to the subset
        # and its length is the product of the singular values, so above
        # 1e-6 (unit rows) the subset is well conditioned and the SVD null
        # direction lies within about 1e-9 of it: slack past 1e-6 of its
        # length on both sides means the sign test would reject it too.
        cof = cof_sign * np.linalg.det(A[:, :, minors].transpose(0, 2, 1, 3))
        length = np.linalg.norm(cof, axis=1)
        slack = cof @ points
        mixed = ((length > 1e-6) & (slack.min(axis=1) < -1e-6 * length)
                 & (slack.max(axis=1) > 1e-6 * length))
        _, s, Vt = np.linalg.svd(A[~mixed])
        nrm = Vt[:, d - 1]
        nrm = nrm[s[:, d - 2] > RANK_REL * np.maximum(1.0, s[:, 0])]
        slack = nrm @ points
        lower = slack.min(axis=1) >= -FACET_TOL
        upper = slack.max(axis=1) <= FACET_TOL
        for cand in np.where(lower[:, None], nrm, -nrm)[lower | upper]:
            if not any(float(cand @ f) >= 1.0 - 1e-9 for f in found):
                found.append(cand)


def _inspan_hrep(cone: PolyCone) -> tuple[np.ndarray, np.ndarray | None]:
    """The cone's cached outer description (B, N).

    B (d, r) is an orthonormal basis of the generators' span, the identity
    when the cone is solid, and N (m, r) holds the inward facet normals of
    the cone within that span: x is in the cone iff x lies in the span and
    N @ (B.T @ x) >= 0.  N is enumerated when C(n, r - 1) subsets of the n
    rays are within MAX_FACET_SUBSETS and is None over it; it has zero rows
    when the cone fills its span.
    """
    cached = cone._cache.get("hrep")
    if cached is not None:
        return cached
    B = _span_basis(cone)
    r = B.shape[1]
    solid = r == cone.dim
    if math.comb(cone.n_rays, r - 1) > MAX_FACET_SUBSETS:
        N = None
    else:
        points = cone.generators if solid else B.T @ cone.generators
        N = np.array(_enumerate_facet_normals(points)).reshape(-1, r)
        N.setflags(write=False)
    if solid:
        B = np.eye(r)
    cone._cache["hrep"] = (B, N)
    return B, N


def facet_normals(cone: PolyCone) -> np.ndarray:
    """Inward facet normals (m, d) of a solid cone other than the whole
    space, enumerated within the MAX_FACET_SUBSETS budget."""
    if not solidity(cone):
        raise NotSolid("facet enumeration needs a solid cone")
    if is_whole_space(cone):
        raise TrivialRegion("the whole space has no facets")
    N = _inspan_hrep(cone)[1]
    if N is None:
        subsets = math.comb(cone.n_rays, cone.dim - 1)
        raise DimensionTooHigh(
            f"facet enumeration would test {subsets} generator subsets, "
            f"over the budget of {MAX_FACET_SUBSETS}"
        )
    return N


def facets(cone: PolyCone) -> BoundaryDecomposition:
    """Boundary decomposition into facet cones.

    A non-solid cone is its own boundary and is returned as a single piece.
    A solid ray in R^1 has the one facet {0}, whose base is empty, and so
    no pieces.
    """
    out = cone._cache.get("facets")
    if out is None:
        pieces = [cone]
        if solidity(cone):
            pieces = []
            for nrm in facet_normals(cone):
                on = np.abs(nrm @ cone.generators) <= 1e-9
                if on.any():
                    pieces.append(make_polycone(cone.generators[:, on].T))
                elif cone.dim > 1:
                    raise NotSolid("facet normal with no incident generators")
        out = cone._cache["facets"] = BoundaryDecomposition(tuple(pieces))
    return out


def contains_batch(cone: PolyCone, X: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Vectorized membership for points given as rows of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != cone.dim:
        raise DimensionMismatch("point dimension does not match the cone")
    B, N = _inspan_hrep(cone)
    if N is None:
        return np.array([cone_membership(x, cone, tol) for x in X])
    coords = X @ B
    resid = np.linalg.norm(X - coords @ B.T, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
    return ((resid <= tol * scale)
            & ((coords @ N.T).min(axis=1, initial=np.inf) >= -tol * scale))


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
