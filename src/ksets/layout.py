"""Drawing source emission: a hypergraph rendered around its maximal loop.

The loop is drawn as a regular n-gon, one edge per side with straight
segments; every other edge becomes a chain of cubic Bezier curves through
its vertex positions, shaped by tension (tighter curves for larger values)
and endpoint curl.  Free vertices are placed inside the polygon,
off-centre, on vertical lines with at most four vertices per line.
Output is plain vector-graphics source text (SVG or an Asymptote-dialect
script) and is byte-deterministic for a given input and configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .loops import Loop, classify_edges
from .mmp import Hypergraph, vertex_to_chars

RADIUS = 250.0  # of the loop polygon's circumcircle
COLUMN_SPACING = 40.0  # between free-vertex columns, and between rows
MAX_PER_COLUMN = 4


@dataclass(frozen=True)
class LayoutConfig:
    tension: float = 1.0
    curl: float = 1.0
    backend: str = "svg"  # "svg" | "asymptote"

    def __post_init__(self) -> None:
        for name in ("tension", "curl"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be a finite positive number, got {value}"
                )
        if self.backend not in ("svg", "asymptote"):
            raise ValueError(f"unknown backend {self.backend!r}")


def _vertex_positions(
    h: Hypergraph, loop: Loop
) -> dict[int, tuple[float, float]]:
    n = loop.size
    corners = [
        (
            RADIUS * math.cos(2 * math.pi * i / n - math.pi / 2),
            RADIUS * math.sin(2 * math.pi * i / n - math.pi / 2),
        )
        for i in range(n)
    ]
    pos: dict[int, tuple[float, float]] = {}
    # joints[i] joins side i and side i+1, so it sits at corner i
    for i, joint in enumerate(loop.joints):
        pos[joint] = corners[i]
    # remaining vertices of side i spread along the segment corner[i-1] -> corner[i]
    for i, ei in enumerate(loop.edges):
        a = corners[(i - 1) % n]
        b = corners[i]
        interior = [v for v in h.edges[ei] if v not in pos]
        for j, v in enumerate(interior, start=1):
            t = j / (len(interior) + 1)
            pos[v] = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
    # free vertices on interior vertical lines, off-centre
    free = [v for v in range(h.num_vertices) if v not in pos]
    if free:
        ncols = (len(free) + MAX_PER_COLUMN - 1) // MAX_PER_COLUMN
        for idx, v in enumerate(free):
            col, row = divmod(idx, MAX_PER_COLUMN)
            in_col = min(MAX_PER_COLUMN, len(free) - col * MAX_PER_COLUMN)
            x = (col - (ncols - 1) / 2 + 0.25) * COLUMN_SPACING
            y = (row - (in_col - 1) / 2) * COLUMN_SPACING
            pos[v] = (x, y)
    return pos


def _bezier_chain(
    points: list[tuple[float, float]], tension: float, curl: float
) -> list[tuple]:
    """Cubic segments through the points: Catmull-Rom style tangents scaled
    by 1/tension, endpoint tangents scaled by curl."""
    k = len(points)
    if k < 2:
        return []
    tangents = []
    for i in range(k):
        if i == 0:
            t = (points[1][0] - points[0][0], points[1][1] - points[0][1])
            t = (t[0] * curl, t[1] * curl)
        elif i == k - 1:
            t = (points[-1][0] - points[-2][0], points[-1][1] - points[-2][1])
            t = (t[0] * curl, t[1] * curl)
        else:
            t = (
                (points[i + 1][0] - points[i - 1][0]) / 2,
                (points[i + 1][1] - points[i - 1][1]) / 2,
            )
        tangents.append(t)
    segments = []
    scale = 1.0 / (3.0 * tension)
    for i in range(k - 1):
        p0, p1 = points[i], points[i + 1]
        c1 = (p0[0] + tangents[i][0] * scale, p0[1] + tangents[i][1] * scale)
        c2 = (
            p1[0] - tangents[i + 1][0] * scale,
            p1[1] - tangents[i + 1][1] * scale,
        )
        segments.append((p0, c1, c2, p1))
    return segments


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def emit_layout(h: Hypergraph, loop: Loop, cfg: LayoutConfig) -> str:
    """Render drawing source text for the chosen backend."""
    cls = classify_edges(h, loop)
    pos = _vertex_positions(h, loop)
    polygon_segments = []
    n = loop.size
    for i, ei in enumerate(loop.edges):
        a = pos[loop.joints[(i - 1) % n]]
        b = pos[loop.joints[i]]
        polygon_segments.append((ei, a, b))
    curves = []
    for ei in sorted(cls.free | cls.span):
        pts = [pos[v] for v in h.edges[ei]]
        curves.append((ei, _bezier_chain(pts, cfg.tension, cfg.curl)))
    if cfg.backend == "svg":
        return _emit_svg(h, pos, polygon_segments, curves)
    return _emit_asymptote(h, pos, polygon_segments, curves)


def _emit_svg(h, pos, polygon_segments, curves) -> str:
    size = RADIUS * 2.4
    half = size / 2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}" '
        f'height="{_fmt(size)}" viewBox="{_fmt(-half)} {_fmt(-half)} '
        f'{_fmt(size)} {_fmt(size)}">'
    ]
    for ei, a, b in polygon_segments:
        out.append(
            f'  <line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
            f'y2="{_fmt(b[1])}" stroke="black" data-edge="{ei}"/>'
        )
    for ei, segments in curves:
        if not segments:
            continue
        d = [f"M {_fmt(segments[0][0][0])} {_fmt(segments[0][0][1])}"]
        for _, c1, c2, p1 in segments:
            d.append(
                f"C {_fmt(c1[0])} {_fmt(c1[1])}, {_fmt(c2[0])} {_fmt(c2[1])}, "
                f"{_fmt(p1[0])} {_fmt(p1[1])}"
            )
        out.append(
            f'  <path d="{" ".join(d)}" fill="none" stroke="gray" '
            f'data-edge="{ei}"/>'
        )
    for v in range(h.num_vertices):
        x, y = pos[v]
        out.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>'
        )
        out.append(
            f'  <text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" font-size="12">'
            f"{vertex_to_chars(v)}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit_asymptote(h, pos, polygon_segments, curves) -> str:
    out = ["size(%s);" % _fmt(RADIUS * 2.4)]
    for v in range(h.num_vertices):
        x, y = pos[v]
        out.append(f"pair v{v} = ({_fmt(x)},{_fmt(y)});")
    for ei, a, b in polygon_segments:
        out.append(
            f"draw(({_fmt(a[0])},{_fmt(a[1])})--({_fmt(b[0])},{_fmt(b[1])})); "
            f"// edge {ei}"
        )
    for ei, segments in curves:
        for p0, c1, c2, p1 in segments:
            out.append(
                f"draw(({_fmt(p0[0])},{_fmt(p0[1])})..controls "
                f"({_fmt(c1[0])},{_fmt(c1[1])}) and ({_fmt(c2[0])},{_fmt(c2[1])})"
                f"..({_fmt(p1[0])},{_fmt(p1[1])})); // edge {ei}"
            )
    for v in range(h.num_vertices):
        out.append(f'label("{vertex_to_chars(v)}", v{v}, NE);')
        out.append(f"dot(v{v});")
    return "\n".join(out) + "\n"
