"""Standalone SVG rendering of a constructed quadrilateral.

The drawing shows the four vertices on their circumcircle (dashed), the
quadrilateral itself, both diagonals, the apex point A on the x-axis, and
a small annotation block with the interior-angle tangents and the base
angle. Output is a single self-contained <svg> document string.
"""

from __future__ import annotations

from .exactnum import sqrt_approx
from .geometry import ANGLES, QuadConstruction, Vertex

__all__ = ["render_svg"]

_WIDTH = 800.0
_HEIGHT = 600.0
_MARGIN = 0.10
_GLYPHS = {Vertex.GAMMA: "Γ", Vertex.B: "B", Vertex.GAMMA2: "Γ₂", Vertex.GAMMA1: "Γ₁"}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_svg(q: QuadConstruction) -> str:
    scale, lattice = q.lattice
    # x / S, int by int, is the float of the point's Fraction view
    *corners, (cx, cy), helper = [(x / scale, y / scale) for x, y in lattice]
    radius = sqrt_approx(q.radius_squared)

    points = {_GLYPHS[vertex]: p for vertex, p in zip(Vertex, corners)}
    points["A"] = helper

    xs = [p[0] for p in points.values()] + [cx - radius, cx + radius]
    ys = [p[1] for p in points.values()] + [cy - radius, cy + radius]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x or 1.0
    span_y = max_y - min_y or 1.0

    scale = min(
        _WIDTH * (1 - 2 * _MARGIN) / span_x,
        _HEIGHT * (1 - 2 * _MARGIN) / span_y,
    )
    # center the drawing; SVG y grows downward, the plane's y grows upward
    offset_x = (_WIDTH - scale * span_x) / 2
    offset_y = (_HEIGHT - scale * span_y) / 2

    def to_svg(x: float, y: float) -> tuple[float, float]:
        sx = offset_x + (x - min_x) * scale
        sy = _HEIGHT - (offset_y + (y - min_y) * scale)
        return sx, sy

    quad_pts = [to_svg(*points[_GLYPHS[vertex]]) for vertex in Vertex]
    path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in quad_pts)

    ccx, ccy = to_svg(cx, cy)
    svg_radius = radius * scale

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">'
    )
    parts.append(f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>')
    parts.append(
        f'<circle cx="{_fmt(ccx)}" cy="{_fmt(ccy)}" r="{_fmt(svg_radius)}" '
        'fill="none" stroke="#888888" stroke-width="1" stroke-dasharray="6 4"/>'
    )
    parts.append(
        f'<polygon points="{path}" fill="none" stroke="#1f4e79" stroke-width="2"/>'
    )

    # diagonals Gamma-Gamma2 and B-Gamma1
    for a_name, b_name in (("Γ", "Γ₂"), ("B", "Γ₁")):
        (x1, y1), (x2, y2) = to_svg(*points[a_name]), to_svg(*points[b_name])
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#c05020" stroke-width="1"/>'
        )

    label_offsets = {
        "Γ": (8, -8),
        "B": (-16, 16),
        "Γ₂": (8, 16),
        "Γ₁": (8, -8),
        "A": (0, -10),
    }
    for name, (px, py) in points.items():
        sx, sy = to_svg(px, py)
        dx, dy = label_offsets[name]
        fill = "#333333" if name != "A" else "#777777"
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="3" fill="{fill}"/>')
        parts.append(
            f'<text x="{_fmt(sx + dx)}" y="{_fmt(sy + dy)}" font-family="sans-serif" '
            f'font-size="16" fill="{fill}">{name}</text>'
        )

    text_y = 24.0
    parts.append(
        f'<text x="12" y="{_fmt(text_y)}" font-family="sans-serif" font-size="14" '
        f'fill="#333333">θ = {q.theta_degrees:.5f}°, tan θ = {q.tan_theta}</text>'
    )
    for vertex, attr in ANGLES:
        text_y += 18.0
        parts.append(
            f'<text x="12" y="{_fmt(text_y)}" font-family="sans-serif" font-size="14" '
            f'fill="#333333">tan at {_GLYPHS[vertex]} = {getattr(q, attr)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
