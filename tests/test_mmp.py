import pickle
import re
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

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
    Violation,
)
from ksets.strip import (
    SamplerSeed,
    StripPlan,
    enumerate_subsets,
    sample_subsets,
    strip_one_each,
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
    assert is_connected(Hypergraph(0, ()))
    assert is_connected(load("42-24"))
    # the flood from the first edge reaches the second one in a later pass
    assert is_connected(parse_mmp("123,789,A56,37A."))
    assert not is_connected(parse_mmp("123,789,456,37A."))


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


def test_out_of_range_vertex_ids_are_rejected():
    with pytest.raises(MmpError, match="^edge 0 has vertex 2 outside 0..1$"):
        Hypergraph(2, ((0, 1, 2),))
    with pytest.raises(MmpError, match="^edge 1 has vertex -1 outside 0..3$"):
        Hypergraph(4, ((0, 1, 2), (2, -1, 3)))


def test_negative_vertex_count_is_rejected():
    with pytest.raises(
        MmpError, match="^num_vertices must be an int >= 0, got -1$"
    ):
        Hypergraph(-1, ())


def test_non_int_vertex_count_is_rejected():
    with pytest.raises(
        MmpError, match="^num_vertices must be an int >= 0, got 2.5$"
    ):
        Hypergraph(2.5, ((0, 1),))


def test_non_int_vertex_id_is_rejected():
    with pytest.raises(MmpError, match="^edge 0 has vertex 1.0, not an int$"):
        Hypergraph(2, ((0, 1.0),))


def test_list_edges_are_stored_as_tuples():
    h = Hypergraph(3, [[0, 1], (1, 2)])
    assert h.edges == ((0, 1), (1, 2))
    assert h == Hypergraph(3, ((0, 1), (1, 2)))
    assert hash(h) == hash(Hypergraph(3, ((0, 1), (1, 2))))


def test_tuple_edges_are_not_copied():
    edges = ((0, 1), (1, 2))
    assert all(a is b for a, b in zip(Hypergraph(3, edges).edges, edges))


def test_non_iterable_edge_is_rejected():
    with pytest.raises(MmpError, match="^edge 1 is 5, not a vertex sequence$"):
        Hypergraph(2, ((0, 1), 5))


def test_non_iterable_edge_collection_is_rejected():
    with pytest.raises(MmpError, match="^edges must be iterable, got None$"):
        Hypergraph(2, None)


@pytest.mark.parametrize("index", [-1, 3])
def test_without_edge_rejects_an_index_outside_the_edges(index):
    h = parse_mmp("123,345,561.")
    msg = rf"^edge index {index} outside 0\.\.2 of 3 edges$"
    with pytest.raises(IndexError, match=msg):
        h.without_edge(index)


def _mask(edge):
    return reduce(or_, (1 << v for v in edge), 0)


def _masks_match(h):
    return h.masks == tuple(_mask(e) for e in h.edges)


def assert_same_as_checked(h):
    """``h`` has its edges' masks, and equals, hashes and pickles like the
    hypergraph the checking constructor builds from its edges."""
    checked = Hypergraph(h.num_vertices, h.edges)
    assert _masks_match(h)
    assert h == checked
    assert hash(h) == hash(checked)
    assert pickle.dumps(h) == pickle.dumps(checked)


@st.composite
def loose_hypergraphs(draw, max_edge=5, max_edges=7):
    """Hypergraphs with short, repeated-vertex, duplicate and disjoint edges
    and orphan vertices."""
    nv = draw(st.integers(min_value=1, max_value=12))
    vertex = st.integers(min_value=0, max_value=nv - 1)
    edges = draw(
        st.lists(st.lists(vertex, max_size=max_edge), max_size=max_edges)
    )
    return Hypergraph(nv, tuple(tuple(e) for e in edges))


@given(
    st.one_of(hypergraphs(), loose_hypergraphs()),
    st.integers(min_value=0, max_value=2**32),
)
def test_masks_match_edges_however_built(h, seed):
    # children sliced from a checked parent skip the constructor's checks
    assert _masks_match(h)
    # the MMP text form holds only non-empty edges of distinct vertices
    if h.edges and all(len(set(e)) == len(e) > 0 for e in h.edges):
        assert _masks_match(parse_mmp(serialize_mmp(renormalize(h))))
    assert_same_as_checked(renormalize(h))
    for i in range(h.num_edges):
        assert_same_as_checked(h.without_edge(i))
    for k in (1, 2):
        if k <= h.num_edges:
            for norm in (True, False):
                plan = StripPlan(k=k, renormalize_output=norm)
                for child in enumerate_subsets(h, plan):
                    assert_same_as_checked(child)
            for child in sample_subsets(h, k, 3, SamplerSeed(seed)):
                assert_same_as_checked(child)
    for child in strip_one_each([h], StripPlan(k=1)):
        assert_same_as_checked(child)
    back = pickle.loads(pickle.dumps(h))
    assert back == h and back.masks == h.masks


def _bfs_connected(h):
    """Breadth-first search over the edge-intersection graph."""
    sets = [frozenset(e) for e in h.edges]
    if len(sets) <= 1:
        return True
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j, s in enumerate(sets):
            if j not in reached and sets[i] & s:
                reached.add(j)
                frontier.append(j)
    return len(reached) == len(sets)


@settings(max_examples=500)
@given(loose_hypergraphs(max_edge=3, max_edges=10))
def test_is_connected_matches_bfs(h):
    assert is_connected(h) == _bfs_connected(h)


@given(st.data(), st.integers(min_value=2, max_value=12))
def test_is_connected_on_shuffled_trees(data, k):
    """Edges that each meet an earlier one, listed in a random order, so the
    flood must take several passes; one more disjoint edge disconnects."""
    edges = [(0, 1, 2)]
    for i in range(1, k):
        earlier = edges[data.draw(st.integers(0, i - 1))]
        joint = data.draw(st.sampled_from(earlier))
        edges.append((joint, 2 * i + 1, 2 * i + 2))
    edges = data.draw(st.permutations(edges))
    nv = 2 * k + 1
    assert is_connected(hypergraph_from_edges(edges, nv))
    assert not is_connected(hypergraph_from_edges(edges + [(nv,)], nv + 1))


def _reference_validate(h):
    """The frozenset implementation that ``validate_mmp`` replaced."""
    sets = [frozenset(e) for e in h.edges]
    out = []
    seen = [False] * h.num_vertices
    for ei, e in enumerate(h.edges):
        if len(set(e)) != len(e):
            out.append(
                Violation("repeated-vertex", f"edge {ei} repeats a vertex", (ei,))
            )
        for v in e:
            if 0 <= v < h.num_vertices:
                seen[v] = True
        if len(e) < 3:
            out.append(
                Violation(
                    "ii", f"edge {ei} has {len(e)} vertices (minimum 3)", (ei,)
                )
            )
    for v, ok in enumerate(seen):
        if not ok:
            out.append(Violation("i", f"vertex {v} belongs to no edge"))
    for i in range(h.num_edges):
        si = sets[i]
        for j in range(i + 1, h.num_edges):
            sj = sets[j]
            k = len(si & sj)
            if k == 0:
                continue
            if si == sj:
                out.append(
                    Violation(
                        "duplicate-edge",
                        f"edges {i} and {j} contain the same vertex set",
                        (i, j),
                    )
                )
                continue
            if min(len(si), len(sj)) < k + 2:
                out.append(
                    Violation(
                        "iii",
                        f"edges {i} and {j} share {k} vertices but one has "
                        f"fewer than {k + 2}",
                        (i, j),
                    )
                )
    return out


@given(loose_hypergraphs())
def test_validate_matches_frozenset_reference(h):
    assert validate_mmp(h) == _reference_validate(h)
