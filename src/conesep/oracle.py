"""Brute-force sampling evaluators and random instance generation.

Everything here is deliberately independent of the analytic engine: support
values come from dense point clouds on the unit sphere, separation verdicts
from direction grids.  These evaluators validate the exact primitives and
drive the equivalence test harness; the engine never calls them to
produce results.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import DimensionMismatch, ZeroDirection
from .geometry import PolyCone
from .regions import ConeRegion

# Worst sample-to-minimizer angle in units of the nominal grid spacing:
# measured ~0.5 steps (d=2, arc endpoints are exact anchors) and ~0.76x the
# nominal Fibonacci spacing (d=3); patch-edge clipping at most doubles it.
_COVER_FACTOR_2D = 1.0
_COVER_FACTOR_3D = 2.0


@dataclass(frozen=True)
class SampleCloud:
    points: np.ndarray
    resolution: float | None
    count: int


def _circle_grid(step_deg: float) -> np.ndarray:
    n = max(4, int(round(360.0 / step_deg)))
    ang = np.radians(np.arange(n) * (360.0 / n))
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n, dtype=float)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = golden * i
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def _fib_count(resolution_deg: float) -> int:
    delta = math.radians(resolution_deg)
    return max(256, int(math.ceil(4.0 * math.pi / (delta * delta))))


def _dedupe_rows(X: np.ndarray) -> np.ndarray:
    """The rows of X, in order, less any that round (to 9 decimals) to the
    same row as an earlier one.

    One sorted pass settles most clouds: when the rounded first column is
    finite and no two of its sorted values are equal, no two rows round to
    the same row, and X itself comes back (every caller passes a fresh
    array).  Otherwise the rounded rows are compared as raw bytes, one void
    item a row, which sorts much faster than ``np.unique(..., axis=0)``.
    Adding 0.0 turns -0.0 into 0.0, so that the two count as one value.
    """
    first = np.sort(np.round(X[:, 0], 9) + 0.0)
    if np.isfinite(first).all() and (first[1:] != first[:-1]).all():
        return X
    R = np.ascontiguousarray(np.round(X, 9) + 0.0)
    rows = R.view(np.dtype((np.void, R.itemsize * R.shape[1]))).ravel()
    _, idx = np.unique(rows, return_index=True)
    return X[np.sort(idx)]


@functools.lru_cache(maxsize=256)
def _thin_indices(n: int, count: int) -> np.ndarray:
    """The distinct indices of ``count`` evenly spaced points in range(n),
    ascending.  The rounded linspace never decreases, so one mask that
    drops each index equal to the one before it keeps the same indices as
    ``np.unique`` would, without its sort.  They depend on (n, count)
    alone, and n is count plus a few generators, so a run computes them
    once per key; the cached array is read-only, since every caller shares
    it."""
    idx = np.linspace(0, n - 1, count).round().astype(int)
    idx = idx[np.diff(idx, prepend=-1) != 0]
    idx.setflags(write=False)
    return idx


def sphere_grid(dim: int, resolution: float | None = None, count: int | None = None,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Quasi-uniform unit-sphere cloud: angle grid (d=2), Fibonacci lattice
    (d=3), Gaussian directions (d >= 4; without a count, as many as a
    resolution-spaced cloud needs, but at least 4096)."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        step = resolution if resolution is not None else 360.0 / max(4, count)
        return _circle_grid(step)
    if dim == 3:
        n = _fib_count(resolution) if resolution is not None else max(256, count)
        return _fibonacci_sphere(n)
    if count is None:
        count = max(4096, _fib_count(resolution) // 8)
    rng = rng if rng is not None else np.random.default_rng(0)
    X = rng.standard_normal((count, dim))
    return X / np.linalg.norm(X, axis=1)[:, None]


def _piece_cloud(cone: PolyCone, resolution: float,
                 rng: np.random.Generator | None) -> np.ndarray:
    """Span-aware cloud on the norm-base of one convex piece."""
    B = geometry._span_basis(cone)
    r = B.shape[1]
    gens = cone.generators.T
    if r == 1:
        cand = np.concatenate([gens, -gens], axis=0)
    else:
        if r > 3:
            n = max(1024, _fib_count(resolution) // 8)
            local_rng = rng if rng is not None else np.random.default_rng(11)
            coords = local_rng.standard_normal((n, r))
            coords /= np.linalg.norm(coords, axis=1)[:, None]
        else:
            coords = sphere_grid(r, resolution=resolution)
        cand = coords @ B.T if r < cone.dim else coords
        cand = np.concatenate([cand, gens], axis=0)
    return cand[geometry.contains_batch(cone, cand)]


def _leaf_cloud(leaf, resolution: float, rng) -> np.ndarray:
    """Piece by piece when the leaf has convex pieces; otherwise a sphere
    grid filtered by the leaf's own membership test."""
    if leaf.pieces:
        return np.concatenate(
            [_piece_cloud(p, resolution, rng) for p in leaf.pieces], axis=0
        )
    grid = sphere_grid(leaf.dim, resolution=resolution, rng=rng)
    grid = np.concatenate([grid, leaf.anchor_points()], axis=0)
    return grid[leaf.contains_unit_batch(grid, geometry.MEMBERSHIP_TOL)]


def _piece_count_cloud(cone: PolyCone, per: int, rng: np.random.Generator) -> np.ndarray:
    """Random base points of one piece: normalized convex combinations of
    the generators (every base point is one), plus the generators.  They
    lie in the cone by construction, so no membership test filters them.
    The norms are sqrt(add.reduce(pts * pts)), the operations of
    ``np.linalg.norm(pts, axis=1)`` on a real array, so the same bits.
    Combinations with norm at or below 1e-9 (g and -g of a line nearly
    cancelling) are dropped; when there are none, dividing every row gives
    the masked division's bits without the mask."""
    gens = cone.generators.T
    if len(gens) == 1:
        return gens.copy()
    W = rng.dirichlet(np.ones(len(gens)), size=per)
    pts = W @ gens
    nn = np.sqrt(np.add.reduce(pts * pts, axis=1))
    if nn.min() > 1e-9:
        pts /= nn[:, None]
    else:
        keep = nn > 1e-9
        pts = pts[keep] / nn[keep, None]
    return np.concatenate([pts, gens], axis=0)


def _rank_at_most_one(region: ConeRegion) -> bool:
    """Whether every piece spans at most a line (a leaf without pieces has
    rank dim), stopping at the first that does not.  A piece settles
    without an SVD where its rays prove the answer: one ray has rank 1, and
    two unit rays with |g0 . g1| <= 1 - 1e-6 have second singular value
    sqrt(1 - |g0 . g1|) >= 1e-3, which bounds the piece's from below while
    its largest is at most sqrt(n), so the ratio clears RANK_REL for any n
    below 1e14.  Every other piece takes ``_span_basis``."""
    for leaf in region.leaves:
        if not leaf.pieces and leaf.dim > 1:
            return False
        for p in leaf.pieces:
            G = p.generators
            if G.shape[1] > 1 and (abs(float(G[:, 0] @ G[:, 1])) <= 1.0 - 1e-6
                                   or geometry._span_basis(p).shape[1] > 1):
                return False
    return True


def _membership_count_cloud(leaf, per: int, rng: np.random.Generator) -> np.ndarray:
    """Random sphere points kept by the leaf's membership test, plus its
    anchors: the count= cloud of a leaf without convex pieces."""
    out = [leaf.anchor_points()]
    got = 0
    for _ in range(16):
        grid = sphere_grid(leaf.dim, count=2 * per, rng=rng)
        kept = grid[leaf.contains_unit_batch(grid, geometry.MEMBERSHIP_TOL)]
        out.append(kept)
        got += len(kept)
        if got >= per:
            break
    return np.concatenate(out, axis=0)


def sample_norm_base(region: ConeRegion, resolution: float | None = None,
                     count: int | None = None,
                     rng: np.random.Generator | None = None) -> SampleCloud:
    """Unit vectors in the closure of the region's norm-base.

    Every returned point passes region membership within
    geometry.MEMBERSHIP_TOL.  Leaf generators (facet rays for a complement
    leaf) are always included as exact anchors, so patch endpoints are
    represented at any resolution.  With count= the points
    are drawn at random from each leaf's base patch instead of from a grid
    (regions whose base is a finite set of rays simply return all of it).
    """
    if (resolution is None) == (count is None):
        raise ValueError("pass exactly one of resolution= or count=")
    if count is not None and not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError(f"count= must be an integer >= 1, got {count!r}")
    if resolution is not None and not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution= must be finite and > 0, got {resolution!r}")
    if resolution is not None:
        pts = np.concatenate(
            [_leaf_cloud(leaf, resolution, rng) for leaf in region.leaves],
            axis=0,
        )
        pts = _dedupe_rows(pts)
        return SampleCloud(points=pts, resolution=resolution, count=len(pts))

    if _rank_at_most_one(region):
        pts = _dedupe_rows(
            np.concatenate([_leaf_cloud(leaf, 1.0, rng) for leaf in region.leaves], axis=0)
        )
        return SampleCloud(points=pts, resolution=None, count=len(pts))
    local_rng = rng if rng is not None else np.random.default_rng(11)
    leaves = list(region.leaves)
    per = -(-count // len(leaves))
    parts = []
    for leaf in leaves:
        if leaf.pieces:
            pp = -(-per // len(leaf.pieces))
            parts.extend(
                _piece_count_cloud(p, pp, local_rng) for p in leaf.pieces
            )
        else:
            parts.append(_membership_count_cloud(leaf, per, local_rng))
    pts = _dedupe_rows(np.concatenate(parts, axis=0))
    if len(pts) > count:
        pts = pts[_thin_indices(len(pts), count)]
    return SampleCloud(points=pts, resolution=None, count=len(pts))


def covering_bound(dim: int, resolution: float, functional_norm: float = 1.0) -> float:
    """Upper bound on |engine LMO - sampled LMO| for a cloud at the given
    angular resolution (degrees): Lipschitz constant times the worst chord."""
    delta = math.radians(resolution)
    if dim == 2:
        ang = _COVER_FACTOR_2D * delta
    elif dim == 3:
        ang = _COVER_FACTOR_3D * delta
    else:
        raise DimensionMismatch("covering bounds are calibrated for d <= 3")
    return functional_norm * 2.0 * math.sin(min(ang, math.pi) / 2.0)


@dataclass(frozen=True)
class OracleSupport:
    minimum: float
    maximum: float
    argmin: np.ndarray
    argmax: np.ndarray
    count: int


def oracle_support(region: ConeRegion, functional,
                   resolution: float | None = None, count: int | None = None,
                   rng: np.random.Generator | None = None) -> OracleSupport:
    """Sampled min and max of a linear functional over the norm-base."""
    f = np.asarray(functional, dtype=float)
    if float(np.linalg.norm(f)) <= 1e-300:
        raise ZeroDirection("oracle support needs a nonzero functional")
    cloud = sample_norm_base(region, resolution=resolution, count=count, rng=rng)
    vals = cloud.points @ f
    i, j = int(np.argmin(vals)), int(np.argmax(vals))
    return OracleSupport(
        minimum=float(vals[i]),
        maximum=float(vals[j]),
        argmin=cloud.points[i],
        argmax=cloud.points[j],
        count=cloud.count,
    )


@dataclass(frozen=True)
class OracleSeparation:
    separated: bool
    direction: np.ndarray | None
    interval: tuple[float, float]
    margin: float


def oracle_separation(C: ConeRegion, K: ConeRegion, resolution: float = 0.25,
                      rng: np.random.Generator | None = None) -> OracleSeparation:
    """Grid search for a direction whose alpha interval
    (sup over sampled B_K and 0, min over sampled B_C) is nonempty.

    The lower end is clamped at 0 (the origin belongs to the S0 hull), so a
    positive margin is a sampled witness for one-sided separation of C from
    K; the reverse orientation is up to the caller.
    """
    if C.dim != K.dim:
        raise DimensionMismatch("regions live in different dimensions")
    pc = sample_norm_base(C, resolution=resolution, rng=rng).points
    pk = sample_norm_base(K, resolution=resolution, rng=rng).points
    step = resolution if C.dim == 2 else max(resolution, 1.0)
    dirs = sphere_grid(C.dim, resolution=step, rng=rng)
    best = (-np.inf, None, (0.0, 0.0))
    # blockwise so the dirs x cloud products stay small
    for lo in range(0, len(dirs), 512):
        D = dirs[lo:lo + 512]
        inner = (pc @ D.T).min(axis=0)
        outer = np.maximum((pk @ D.T).max(axis=0), 0.0)
        margin = inner - outer
        j = int(np.argmax(margin))
        if margin[j] > best[0]:
            best = (float(margin[j]), D[j], (float(outer[j]), float(inner[j])))
    margin, direction, interval = best
    return OracleSeparation(
        separated=margin > 0.0,
        direction=direction,
        interval=interval,
        margin=margin,
    )


# ---------------------------------------------------------------------------
# Instance builders (deterministic helpers plus random generators)
# ---------------------------------------------------------------------------

def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def ray_region(direction) -> ConeRegion:
    return ConeRegion.piece(geometry.make_polycone([np.asarray(direction, dtype=float)]))


def union_of_rays(directions) -> ConeRegion:
    return ConeRegion.union(*[ray_region(d) for d in directions])


def sector_cone_2d(center_deg: float, half_angle_deg: float) -> PolyCone:
    """2-D convex sector spanned by its two extreme rays."""
    lo = math.radians(center_deg - half_angle_deg)
    hi = math.radians(center_deg + half_angle_deg)
    return geometry.make_polycone(
        [[math.cos(lo), math.sin(lo)], [math.cos(hi), math.sin(hi)]]
    )


def cone_about(axis, half_angle_deg: float, n_rays: int = 12) -> PolyCone:
    """Polyhedral cone inscribed in the circular cone around an axis."""
    axis = unit(axis)
    d = axis.shape[0]
    if d == 2:
        ang = math.degrees(math.atan2(axis[1], axis[0]))
        return sector_cone_2d(ang, half_angle_deg)
    M = np.eye(d)
    M[:, 0] = axis
    Q, _ = np.linalg.qr(M)
    if float(Q[:, 0] @ axis) < 0:
        Q[:, 0] *= -1.0
    t = math.radians(half_angle_deg)
    rays = []
    for k in range(n_rays):
        phi = 2.0 * math.pi * k / n_rays
        lateral = math.cos(phi) * Q[:, 1] + math.sin(phi) * Q[:, 2] if d >= 3 else Q[:, 1]
        rays.append(math.cos(t) * axis + math.sin(t) * lateral)
    return geometry.make_polycone(rays)


def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pointed_cone(rng: np.random.Generator, dim: int,
                        n_rays: int | None = None,
                        cap_half_angle_deg: float = 60.0) -> PolyCone:
    """Random pointed cone: rays drawn inside a spherical cap, which keeps a
    pointedness margin of at least cos(cap half-angle)."""
    n = n_rays if n_rays is not None else int(rng.integers(2, 6))
    axis = random_unit(rng, dim)
    t = math.cos(math.radians(cap_half_angle_deg))
    rays = []
    while len(rays) < n:
        v = random_unit(rng, dim)
        v = v if float(v @ axis) >= 0 else -v
        w = unit(t * axis + (1.0 - t) * v)
        rays.append(w)
    return geometry.make_polycone(rays)


def random_unpointed_cone(rng: np.random.Generator, dim: int) -> PolyCone:
    """Random cone containing a full line (hence not pointed)."""
    base = random_pointed_cone(rng, dim)
    g = base.generators.T
    line = random_unit(rng, dim)
    return geometry.make_polycone(np.concatenate([g, [line], [-line]], axis=0))


def random_region(rng: np.random.Generator, dim: int) -> ConeRegion:
    """Random piece or union of up to two pieces, each with its rays in a
    40-degree cap."""
    k = int(rng.integers(1, 3))
    parts = [
        ConeRegion.piece(random_pointed_cone(rng, dim, cap_half_angle_deg=40.0))
        for _ in range(k)
    ]
    return ConeRegion.union(*parts)
