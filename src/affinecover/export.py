"""One-way renderings of a certificate: SVG (2D, or 3D seen isometrically)
and Wavefront OBJ.

Floats are fine here; the certificate itself stays exact.  A vertex's
floats are grid coordinate / scale, correctly rounded.  Witness lines
are drawn dashed, clipped to the drawing's bounding box, and edges or
vertices take the colour of the witness object covering them.
"""
from __future__ import annotations

import math

from .certio import CertificateFile
from .geometry import CanonLine

__all__ = ["FORMATS", "render"]

#: Accepted ``--format`` values.
FORMATS = ("svg2d", "svg-iso3d", "obj")

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#17becf",
    "#bcbd22",
    "#7f7f7f",
)


def _clip_line(base, direction, lo, hi):
    """Clip the parametric line base + t*direction to an axis box."""
    t0, t1 = -math.inf, math.inf
    for b, d, low, high in zip(base, direction, lo, hi):
        if d == 0:
            if not low <= b <= high:
                return None
        else:
            ta, tb = (low - b) / d, (high - b) / d
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
    if t0 > t1:
        return None
    p = tuple(b + t0 * d for b, d in zip(base, direction))
    q = tuple(b + t1 * d for b, d in zip(base, direction))
    return p, q


def _svg_canvas(points2d):
    """Map source 2D coordinates into a 640-wide SVG canvas (y flipped)."""
    xs = [p[0] for p in points2d]
    ys = [p[1] for p in points2d]
    pad = 0.08 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    lo = (min(xs) - pad, min(ys) - pad)
    hi = (max(xs) + pad, max(ys) + pad)
    scale = 600.0 / max(hi[0] - lo[0], hi[1] - lo[1])

    def to_svg(p):
        return ((p[0] - lo[0]) * scale + 20.0, (hi[1] - p[1]) * scale + 20.0)

    width = (hi[0] - lo[0]) * scale + 40.0
    height = (hi[1] - lo[1]) * scale + 40.0
    return to_svg, lo, hi, width, height


def _svg_line(p, q, color, dashed=False, width=1.5):
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<line x1="{p[0]:.2f}" y1="{p[1]:.2f}" x2="{q[0]:.2f}" y2="{q[1]:.2f}" '
        f'stroke="{color}" stroke-width="{width}"{dash}/>'
    )


def _color(witness, item, default: str) -> str:
    """Colour of the witness object an edge or vertex is assigned to."""
    i = witness.assignment.get(item)  # edge keys are pairs, vertex keys ints
    return default if i is None else _PALETTE[i % len(_PALETTE)]


def _iso_project(point) -> tuple:
    x, y, z = (float(c) for c in point)
    return ((x - y) * math.sqrt(3.0) / 2.0, (x + y) / 2.0 - z)


def _render_svg(cert: CertificateFile, project) -> str:
    """SVG of a drawing whose points ``project`` maps (linearly) to 2D."""
    d = cert.drawing
    pts = [project([x / d.scale for x in p]) for p in d.grid]
    to_svg, lo, hi, width, height = _svg_canvas(pts)
    body = []
    for i, obj in enumerate(cert.witness.objects):
        if not isinstance(obj, CanonLine):
            continue
        direction = project(obj.direction)
        if direction == (0.0, 0.0):  # a line seen end-on
            continue
        seg = _clip_line(project(obj.base), direction, lo, hi)
        if seg is None:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        body.append(_svg_line(to_svg(seg[0]), to_svg(seg[1]), color, dashed=True))
    for u, v in sorted(d.graph.edges):
        color = _color(cert.witness, (u, v), "#333333")
        body.append(_svg_line(to_svg(pts[u]), to_svg(pts[v]), color))
    for v, p in enumerate(pts):
        x, y = to_svg(p)
        color = _color(cert.witness, v, "#111111")
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>')
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    rect = f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>'
    return "\n".join([head, rect, *body, "</svg>"]) + "\n"


def _render_obj(cert: CertificateFile) -> str:
    lines = [f"# certificate export: {cert.meta.get('construction', 'drawing')}"]
    d = cert.drawing
    for p in d.grid:
        coords = [x / d.scale for x in p] + [0.0] * (3 - d.dim)
        lines.append("v " + " ".join(f"{c:.6f}" for c in coords))
    for u, v in sorted(cert.graph.edges):
        lines.append(f"l {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def render(cert: CertificateFile, fmt: str) -> str:
    """``cert`` rendered in format ``fmt`` (one of :data:`FORMATS`).

    Raises ValueError on any other format, and when an SVG format does
    not match the drawing's dimension (``svg2d`` needs 2D, ``svg-iso3d``
    needs 3D).
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}: expected one of {', '.join(FORMATS)}")
    if fmt == "obj":
        return _render_obj(cert)
    if fmt == "svg2d":
        dim, project = 2, lambda p: tuple(float(c) for c in p)
    else:
        dim, project = 3, _iso_project
    if cert.drawing.dim != dim:
        raise ValueError(f"{fmt} needs a {dim}-dimensional drawing")
    return _render_svg(cert, project)
