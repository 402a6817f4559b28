"""Flat 2-D SVG rendering of cone instances and separation certificates.

Pure string assembly with a fixed palette and deterministic layout: cones
are filled disk sectors (rays and lines are stroked segments, complements
are the sector left over), the hulls of the norm-bases are dashed chords,
and a certificate adds the separating cone's sector, its boundary rays, and
the functional arrow.  Arcs are emitted as short polylines so the output
has no arc-flag ambiguity and diffs cleanly.
"""
from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from . import geometry
from .errors import DimensionNot2D
from .regions import ConeRegion
from .separation import SeparationCertificate, bp_boundary_rays_2d

REGION_COLORS = ("#1f6fb4", "#d1402e", "#8a5bb8", "#8c6d4f")
CERT_COLOR = "#2f9e44"
HULL_COLOR = "#555555"
GRID_COLOR = "#c8c8c8"
# Width and height of the square picture in pixels.
SIZE = 480

_TAU = 2.0 * math.pi


def _angle(v: np.ndarray) -> float:
    return math.atan2(float(v[1]), float(v[0]))


def _ccw_span(a0: float, a1: float) -> float:
    return (a1 - a0) % _TAU


class _Canvas:
    def __init__(self, size: int):
        self.size = size
        self.scale = size / 2.0 / 1.45
        self.parts: list[str] = []

    def pt(self, x: float, y: float) -> str:
        px = self.size / 2.0 + x * self.scale
        py = self.size / 2.0 - y * self.scale
        return f"{px:.2f},{py:.2f}"

    def poly(self, pts, fill: str, opacity: float, stroke: str = "none",
             width: float = 0.0, dash: str | None = None,
             closed: bool = True) -> None:
        coords = " ".join(self.pt(x, y) for x, y in pts)
        tag = "polygon" if closed else "polyline"
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<{tag} points="{coords}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="{width:.2f}"{dash_attr}/>'
        )

    def line(self, a, b, stroke: str, width: float) -> None:
        self.parts.append(
            f'<line x1="{self.pt(*a).split(",")[0]}" '
            f'y1="{self.pt(*a).split(",")[1]}" '
            f'x2="{self.pt(*b).split(",")[0]}" '
            f'y2="{self.pt(*b).split(",")[1]}" '
            f'stroke="{stroke}" stroke-width="{width:.2f}" '
            f'stroke-linecap="round"/>'
        )

    def circle(self, r: float, stroke: str, width: float) -> None:
        self.parts.append(
            f'<circle cx="{self.size / 2.0:.2f}" cy="{self.size / 2.0:.2f}" '
            f'r="{r * self.scale:.2f}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:.2f}"/>'
        )

    def text(self, x: float, y: float, s: str, color: str,
             px: int = 15, anchor: str = "middle") -> None:
        p = self.pt(x, y).split(",")
        self.parts.append(
            f'<text x="{p[0]}" y="{p[1]}" fill="{color}" font-size="{px}" '
            f'font-family="Georgia, serif" font-style="italic" '
            f'text-anchor="{anchor}" dominant-baseline="middle">'
            f"{escape(s)}</text>"
        )


def _arc_points(a0: float, span: float, r: float) -> list[tuple[float, float]]:
    n = max(2, int(abs(span) / 0.05))
    return [
        (r * math.cos(a0 + span * t / n), r * math.sin(a0 + span * t / n))
        for t in range(n + 1)
    ]


def _solid_sector_interval(cone) -> tuple[float, float]:
    """(start angle, ccw span) of a solid 2-D cone's disk sector."""
    dec = geometry.facets(cone)
    ends = []
    for piece in dec.pieces:
        for g in piece.generators.T:
            if not any(abs(_angle(g) - a) < 1e-12 for a in ends):
                ends.append(_angle(g))
    if len(ends) != 2:
        raise DimensionNot2D("sector rendering expects two boundary directions")
    inside = cone.generators.mean(axis=1)
    if float(np.linalg.norm(inside)) < 1e-12:
        inside = cone.generators[:, 0]
    ac = _angle(inside)
    a0, a1 = ends
    if _ccw_span(a0, ac) <= _ccw_span(a0, a1) + 1e-12:
        return a0, _ccw_span(a0, a1)
    return a1, _ccw_span(a1, a0)


def _draw_piece(canvas: _Canvas, cone, color: str) -> None:
    if geometry.is_whole_space(cone):
        canvas.poly(_arc_points(0.0, _TAU, 1.0), color, 0.10)
        return
    if geometry.solidity(cone):
        a0, span = _solid_sector_interval(cone)
        canvas.poly([(0.0, 0.0)] + _arc_points(a0, span, 1.0), color, 0.22)
        canvas.line((0.0, 0.0),
                    (math.cos(a0), math.sin(a0)), color, 2.2)
        canvas.line((0.0, 0.0),
                    (math.cos(a0 + span), math.sin(a0 + span)), color, 2.2)
        return
    for g in cone.generators.T:
        canvas.line((0.0, 0.0), (float(g[0]), float(g[1])), color, 3.0)


def _draw_region(canvas: _Canvas, region: ConeRegion, color: str) -> None:
    for leaf in region.leaves:
        for piece in leaf.pieces:
            _draw_piece(canvas, piece, color)
        if not leaf.pieces:
            # the sector left over by the excluded cone
            a0, span = _solid_sector_interval(leaf.cone)
            start = a0 + span
            canvas.poly([(0.0, 0.0)] + _arc_points(start, _TAU - span, 1.0),
                        color, 0.15)
            canvas.line((0.0, 0.0), (math.cos(a0), math.sin(a0)), color, 2.2)
            canvas.line((0.0, 0.0), (math.cos(start), math.sin(start)),
                        color, 2.2)


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Convex hull vertices in ccw order (monotone chain)."""
    pts = np.unique(np.round(points, 12), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2:
                a, b = out[-1] - out[-2], p - out[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _draw_hull(canvas: _Canvas, region: ConeRegion, adjoin: bool) -> None:
    pts = region.anchor_points()
    if adjoin:
        pts = np.concatenate([pts, np.zeros((1, 2))], axis=0)
    hull = _hull_2d(pts)
    if len(hull) < 2:
        return
    canvas.poly([(float(p[0]), float(p[1])) for p in hull], "none", 0.0,
                stroke=HULL_COLOR, width=1.3, dash="6,4",
                closed=len(hull) > 2)


def _label_anchor(region: ConeRegion) -> np.ndarray:
    v = region.centroid()
    if float(np.linalg.norm(v)) < 1e-9:
        v = region.anchor_points()[0]
    return v / np.linalg.norm(v)


def _draw_certificate(canvas: _Canvas, cert: SeparationCertificate) -> None:
    xs = cert.x_star / np.linalg.norm(cert.x_star)
    a = cert.alpha / float(np.linalg.norm(cert.x_star))
    theta = math.acos(max(-1.0, min(1.0, a)))
    base = _angle(xs)
    canvas.poly([(0.0, 0.0)] + _arc_points(base - theta, 2 * theta, 1.0),
                CERT_COLOR, 0.16)
    rays = bp_boundary_rays_2d(xs, a)
    for r in rays:
        canvas.line((0.0, 0.0), (float(r[0]), float(r[1])), CERT_COLOR, 2.0)
    tip = 1.22 * xs
    canvas.line((0.0, 0.0), (float(tip[0]), float(tip[1])), CERT_COLOR, 1.6)
    left = tip - 0.07 * xs + 0.045 * np.array([-xs[1], xs[0]])
    right = tip - 0.07 * xs - 0.045 * np.array([-xs[1], xs[0]])
    canvas.poly([(float(tip[0]), float(tip[1])),
                 (float(left[0]), float(left[1])),
                 (float(right[0]), float(right[1]))], CERT_COLOR, 1.0)
    label = 1.33 * xs
    canvas.text(float(label[0]), float(label[1]), "x*", CERT_COLOR, px=14)
    mid = 1.12 * rays[0]
    canvas.text(float(mid[0]), float(mid[1]), "G", CERT_COLOR, px=15)


def render_svg(regions: dict[str, ConeRegion], order: list[str] | None = None,
               certificate: SeparationCertificate | None = None) -> str:
    """Render named 2-D regions (and optionally a certificate) to SVG text.

    order fixes the drawing/legend sequence; the hull of every region after
    the first in that order gets the origin adjoined, matching the
    one-sided convention.
    """
    names = list(order) if order else sorted(regions)
    names += [n for n in sorted(regions) if n not in names]
    for name in names:
        if regions[name].dim != 2:
            raise DimensionNot2D("SVG rendering is planar only")
    canvas = _Canvas(SIZE)
    canvas.parts.append(
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>'
    )
    canvas.line((-1.4, 0.0), (1.4, 0.0), GRID_COLOR, 1.0)
    canvas.line((0.0, -1.4), (0.0, 1.4), GRID_COLOR, 1.0)
    canvas.circle(1.0, GRID_COLOR, 1.2)
    colors = {
        name: REGION_COLORS[i % len(REGION_COLORS)]
        for i, name in enumerate(names)
    }
    for name in names:
        _draw_region(canvas, regions[name], colors[name])
    for i, name in enumerate(names):
        _draw_hull(canvas, regions[name], i > 0)
    if certificate is not None:
        _draw_certificate(canvas, certificate)
    for name in names:
        v = 1.18 * _label_anchor(regions[name])
        canvas.text(float(v[0]), float(v[1]), name, colors[name])
    for i, name in enumerate(names):
        y = 1.36 - 0.11 * i
        canvas.line((-1.38, y), (-1.26, y), colors[name], 3.0)
        canvas.text(-1.21, y, name, colors[name], px=13, anchor="start")
    canvas.text(0.0, -1.37, "unit circle, dashed: base hulls", "#888888",
                px=11)
    body = "\n".join(canvas.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">\n{body}\n</svg>\n'
    )
