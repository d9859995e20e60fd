from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ksets.coloring import (
    Coloring,
    has_parity_proof,
    is_colorable,
    is_critical,
    is_ks,
    verdict,
)
from ksets.corpus import load, load_all
from ksets.mmp import hypergraph_from_edges, parse_mmp


def brute_force_colorable(h):
    """Try all 2^V assignments; the independent ground truth."""
    for bits in product((0, 1), repeat=h.num_vertices):
        if all(sum(bits[v] for v in e) == 1 for e in h.edges):
            return True
    return False


@st.composite
def small_hypergraphs(draw):
    nv = draw(st.integers(min_value=3, max_value=9))
    ne = draw(st.integers(min_value=1, max_value=6))
    edges = []
    for _ in range(ne):
        size = draw(st.integers(min_value=2, max_value=min(4, nv)))
        edges.append(
            tuple(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=nv - 1),
                        min_size=size,
                        max_size=size,
                        unique=True,
                    )
                )
            )
        )
    return hypergraph_from_edges(edges, nv)


@settings(max_examples=300, deadline=None)
@given(small_hypergraphs())
def test_solver_matches_brute_force(h):
    colorable, witness = is_colorable(h)
    assert colorable == brute_force_colorable(h)
    if colorable:
        assert witness.is_valid_for(h)


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs())
def test_colorability_monotone_under_edge_removal(h):
    if is_colorable(h)[0]:
        for i in range(h.num_edges):
            assert is_colorable(h.without_edge(i))[0]


def test_simple_cases():
    assert is_colorable(parse_mmp("123."))[0]
    assert is_colorable(parse_mmp("123,345,561."))[0]
    # two edges forced to share their single 1
    h = parse_mmp("12,13,14,234.")
    assert is_colorable(h)[0] == brute_force_colorable(h)


def test_witness_is_independent_of_solver():
    h = load("38-19")
    ok, _ = is_colorable(h)
    assert not ok
    bad = Coloring(frozenset({0}))
    assert not bad.is_valid_for(h)


def test_corpus_all_ks_and_critical():
    for name, h in load_all().items():
        assert is_ks(h), name
        assert is_critical(h), name


def test_parity_iff_odd_edges_on_corpus():
    for name, h in load_all().items():
        expected = h.num_edges % 2 == 1
        assert has_parity_proof(h) == expected, name


def test_parity_requires_even_degrees():
    # odd edge count but a vertex of odd degree
    h = parse_mmp("123,345,567.")
    assert not has_parity_proof(h)


def test_600cell_is_ks_not_critical(h75):
    v = verdict(h75)
    assert not v.colorable
    assert v.critical is False  # it has redundant edges
    assert not v.parity  # even vertex degrees but 75 is odd -> check degrees
    # degree of every ray is 5 (odd), so the parity argument cannot apply
    assert set(h75.vertex_degrees()) == {5}


def test_critical_means_every_residual_colorable():
    h = load("42-24")
    assert is_critical(h)
    for i in range(h.num_edges):
        assert is_colorable(h.without_edge(i))[0]


def test_verdict_fields():
    v = verdict(parse_mmp("123,345,561."))
    assert v.colorable and v.critical is None and v.witness.is_valid_for(
        parse_mmp("123,345,561.")
    )


def test_verdict_solves_a_ks_input_once_plus_each_removal(monkeypatch):
    import ksets.coloring

    calls = []
    real_solve = ksets.coloring._solve

    def counting(edge_masks, num_vertices):
        calls.append(len(edge_masks))
        return real_solve(edge_masks, num_vertices)

    monkeypatch.setattr(ksets.coloring, "_solve", counting)
    h = load("38-19")
    v = verdict(h)
    assert not v.colorable and v.critical is True and v.parity
    assert len(calls) == 1 + h.num_edges
    assert calls.count(h.num_edges) == 1
