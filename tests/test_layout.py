import hashlib
import math

import pytest

from ksets.corpus import load
from ksets.layout import (
    MAX_PER_COLUMN,
    LayoutConfig,
    _vertex_positions,
    emit_layout,
)
from ksets.loops import biggest_loop
from ksets.mmp import parse_mmp


def test_config_validation():
    for name in ("tension", "curl"):
        for bad in (0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                LayoutConfig(**{name: bad})
    with pytest.raises(ValueError):
        LayoutConfig(backend="postscript")
    cfg = LayoutConfig(tension=2.0, curl=0.5)
    assert (cfg.tension, cfg.curl, cfg.backend) == (2.0, 0.5, "svg")


def test_triangle_is_equilateral():
    h = parse_mmp("123,345,561.")
    _, loop = biggest_loop(h)
    cfg = LayoutConfig()
    pos = _vertex_positions(h, loop)
    corners = [pos[j] for j in loop.joints]
    sides = [
        math.dist(corners[i], corners[(i + 1) % 3]) for i in range(3)
    ]
    assert max(sides) - min(sides) < 1e-9
    svg = emit_layout(h, loop, cfg)
    assert svg.count("<line") == 3
    assert "<path" not in svg  # pure cycle has no curved edges


def test_deterministic_output():
    h = load("38-19")
    _, loop = biggest_loop(h)
    cfg = LayoutConfig()
    assert emit_layout(h, loop, cfg) == emit_layout(h, loop, cfg)
    asy = LayoutConfig(backend="asymptote")
    assert emit_layout(h, loop, asy) == emit_layout(h, loop, asy)


def test_all_edges_rendered():
    h = load("38-19")
    n, loop = biggest_loop(h)
    svg = emit_layout(h, loop, LayoutConfig())
    assert svg.count("<line") == n  # polygon sides
    assert svg.count("<path") == h.num_edges - n
    assert svg.count("<circle") == h.num_vertices


def test_free_vertex_columns():
    h = load("45-26")
    _, loop = biggest_loop(h)
    pos = _vertex_positions(h, loop)
    loop_vertices = {v for ei in loop.edges for v in h.edges[ei]}
    free = [v for v in range(h.num_vertices) if v not in loop_vertices]
    if free:
        xs = {}
        for v in free:
            xs.setdefault(pos[v][0], []).append(v)
        assert all(len(col) <= MAX_PER_COLUMN for col in xs.values())
        # off-centre: columns are shifted from x = 0
        assert all(abs(x) > 1e-9 for x in xs)


def test_asymptote_backend_syntax():
    h = parse_mmp("123,345,561,789,179.")
    _, loop = biggest_loop(h)
    out = emit_layout(h, loop, LayoutConfig(backend="asymptote"))
    assert out.startswith("size(")
    assert "draw(" in out and "controls" in out
    assert out.count("dot(") == h.num_vertices


def test_tension_changes_curves_only():
    h = parse_mmp("123,345,561,789,179.")
    _, loop = biggest_loop(h)
    a = emit_layout(h, loop, LayoutConfig(tension=1.0))
    b = emit_layout(h, loop, LayoutConfig(tension=3.0))
    assert a != b
    # straight polygon sides unaffected
    lines_a = [ln for ln in a.splitlines() if "<line" in ln]
    lines_b = [ln for ln in b.splitlines() if "<line" in ln]
    assert lines_a == lines_b


def test_drawing_bytes_are_pinned():
    # 45-26 puts 9 free vertices in 3 columns, so every placement rule and
    # both backends show in the SHA-256 of the drawing text
    h = load("45-26")
    _, loop = biggest_loop(h)
    for cfg, want in (
        (
            LayoutConfig(),
            "60da8fa6c4d3926302e6abe1a40c30c33e583ee4ce2d765a38838154362cdb5f",
        ),
        (
            LayoutConfig(tension=2.0, curl=0.5, backend="asymptote"),
            "e74118d529c7b001121a658c8ba4b1bb5bf1ebf3b3795db5c30ac3164965cd7d",
        ),
    ):
        text = emit_layout(h, loop, cfg)
        assert hashlib.sha256(text.encode()).hexdigest() == want
