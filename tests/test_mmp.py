import re

import pytest
from hypothesis import given, strategies as st

from ksets.corpus import CORPUS_LINES, load, load_all
from ksets.mmp import (
    BASE_CHARS,
    LENIENT,
    Hypergraph,
    MmpError,
    chars_to_vertex,
    hypergraph_from_edges,
    is_connected,
    parse_mmp,
    renormalize,
    serialize_mmp,
    validate_mmp,
    vertex_to_chars,
    write_mmp_file,
    read_mmp_file,
)


def test_base_charset():
    assert len(BASE_CHARS) == 90
    assert len(set(BASE_CHARS)) == 90
    for forbidden in ",.+0 ":
        assert forbidden not in BASE_CHARS


def test_vertex_encoding_round_trip():
    for i in (0, 1, 89, 90, 179, 180, 500):
        assert chars_to_vertex(vertex_to_chars(i)) == i
    assert vertex_to_chars(0) == "1"
    assert vertex_to_chars(89) == "~"
    assert vertex_to_chars(90) == "+1"
    assert vertex_to_chars(180) == "++1"


def test_vertex_encoding_errors():
    with pytest.raises(MmpError):
        chars_to_vertex("+")
    with pytest.raises(MmpError):
        chars_to_vertex("12")
    with pytest.raises(MmpError):
        chars_to_vertex("0")
    with pytest.raises(ValueError):
        vertex_to_chars(-1)


def test_parse_triangle():
    h = parse_mmp("123,345,561.")
    assert h.signature == "6-3"
    assert h.edges == ((0, 1, 2), (2, 3, 4), (4, 5, 0))


def test_parse_plus_prefixed_vertices():
    line = "123,3+1+2,+2+31."
    h = parse_mmp(line)
    assert h.num_vertices == 6
    assert serialize_mmp(renormalize(h)) == "123,345,561."


def test_strict_rejects_lenient_accepts():
    assert parse_mmp("123,345,561", LENIENT).num_edges == 3
    assert parse_mmp("123,,345,561.", LENIENT).num_edges == 3
    for bad in ("123,345,561", "123,,345."):
        with pytest.raises(MmpError):
            parse_mmp(bad)
    with pytest.raises(MmpError):
        parse_mmp("")
    with pytest.raises(MmpError):
        parse_mmp("12 3.")
    with pytest.raises(MmpError):
        parse_mmp("1.23.")
    with pytest.raises(MmpError):
        parse_mmp("121,345.")  # repeated vertex in an edge
    with pytest.raises(MmpError):
        parse_mmp("12+,345.")  # dangling plus


def test_corpus_signatures():
    for name, h in load_all().items():
        assert h.signature == name


def test_38_19_byte_round_trip():
    line = CORPUS_LINES["38-19"]
    h = parse_mmp(line)
    assert serialize_mmp(h) == line


def test_60_40_needs_lenient():
    line = CORPUS_LINES["60-40"]
    with pytest.raises(MmpError):
        parse_mmp(line)
    assert parse_mmp(line, LENIENT).signature == "60-40"


def test_renormalize_idempotent_and_dense():
    h = Hypergraph(8, ((5, 3, 7), (7, 1, 0)))
    r = renormalize(h)
    assert r.num_vertices == 5
    assert r.edges == ((0, 1, 2), (2, 3, 4))
    assert renormalize(r) == r


def test_validate_conditions():
    ok = parse_mmp("1234,4567,789A.")
    assert validate_mmp(ok) == []
    # (i) orphan vertex
    orphan = Hypergraph(4, ((0, 1, 2),))
    assert any(v.condition == "i" for v in validate_mmp(orphan))
    # (ii) short edge
    short = Hypergraph(2, ((0, 1),))
    assert any(v.condition == "ii" for v in validate_mmp(short))
    # (iii) sharing 2 vertices demands 4 per edge
    iii = parse_mmp("123,124.")
    assert any(v.condition == "iii" for v in validate_mmp(iii))
    assert not any(
        v.condition == "iii" for v in validate_mmp(parse_mmp("1234,1256."))
    )
    dup = parse_mmp("123,321.")
    assert any(v.condition == "duplicate-edge" for v in validate_mmp(dup))


def test_corpus_is_valid_mmp(h75):
    assert validate_mmp(h75) == []
    for h in load_all().values():
        assert validate_mmp(h) == []


def test_is_connected():
    assert is_connected(parse_mmp("123,345."))
    assert not is_connected(parse_mmp("123,456."))
    assert is_connected(parse_mmp("123."))
    assert is_connected(load("42-24"))


def test_file_round_trip(tmp_path):
    hs = [parse_mmp("123,345."), parse_mmp("1234.")]
    path = tmp_path / "hs.mmp"
    assert write_mmp_file(path, iter(hs)) == 2
    assert path.read_text() == "123,345.\n1234.\n"
    back = read_mmp_file(path)
    assert [h.edges for h in back] == [h.edges for h in hs]


def test_read_mmp_file_names_file_and_line(tmp_path):
    path = tmp_path / "bad.mmp"
    where = re.escape(str(path))
    path.write_text("123,345.\n\n12,23.\n")
    with pytest.raises(MmpError, match=f"^{where}:3: edge 0 has 2 vertices"):
        read_mmp_file(path)
    path.write_text("123,345.\n123,345\n")
    with pytest.raises(MmpError, match=f"^{where}:2: missing final"):
        read_mmp_file(path)
    assert read_mmp_file(path, LENIENT)[1].edges == ((0, 1, 2), (2, 3, 4))


@st.composite
def hypergraphs(draw):
    nv = draw(st.integers(min_value=3, max_value=12))
    ne = draw(st.integers(min_value=1, max_value=6))
    edges = []
    for _ in range(ne):
        size = draw(st.integers(min_value=3, max_value=min(5, nv)))
        edge = draw(
            st.lists(
                st.integers(min_value=0, max_value=nv - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(tuple(edge))
    return hypergraph_from_edges(edges)


@given(hypergraphs())
def test_serialize_parse_round_trip(h):
    r = renormalize(h)
    assert parse_mmp(serialize_mmp(r)) == Hypergraph(r.num_vertices, r.edges)


@given(hypergraphs())
def test_serialized_text_is_reparseable_stably(h):
    text = serialize_mmp(renormalize(h))
    assert serialize_mmp(parse_mmp(text)) == text
