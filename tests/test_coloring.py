import hashlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ksets.coloring import (
    COLORABLE,
    CRITICAL,
    KS,
    Coloring,
    _parity_refutes,
    _rotate,
    _solve,
    _vertex_edges,
    classify,
    has_parity_proof,
    is_colorable,
    is_critical,
    is_ks,
)
from ksets.corpus import load, load_all
from ksets.mmp import hypergraph_from_edges, parse_mmp
from ksets.strip import SamplerSeed, sample_subsets


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
    assert _solve(h.masks, h.num_vertices) == _reference_solve(
        h.masks, h.num_vertices
    )


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
        # for a critical set, GF(2) infeasibility is the parity proof
        assert _parity_refutes(h.masks, h.num_vertices) == expected, name


def test_parity_requires_even_degrees():
    # odd edge count but a vertex of odd degree
    h = parse_mmp("123,345,567.")
    assert not has_parity_proof(h)


def test_600cell_is_ks_not_critical(h75):
    assert classify(h75) == KS  # KS, but it has redundant edges
    assert not has_parity_proof(h75)  # 75 edges is odd, so check degrees
    # degree of every ray is 5 (odd), so the parity argument cannot apply
    assert set(h75.vertex_degrees()) == {5}


def test_critical_means_every_residual_colorable():
    h = load("42-24")
    assert is_critical(h)
    for i in range(h.num_edges):
        assert is_colorable(h.without_edge(i))[0]


def reference_kind(h):
    """The kind by the plain check: solve h, then every one-edge removal
    until one stays KS."""
    if _solve(h.masks, h.num_vertices) is not None:
        return COLORABLE
    removals_colorable = all(
        _solve(h.masks[:i] + h.masks[i + 1 :], h.num_vertices) is not None
        for i in range(h.num_edges)
    )
    return CRITICAL if removals_colorable else KS


def check_verdict(h):
    kind = reference_kind(h)
    assert classify(h) == kind
    colorable, witness = is_colorable(h)
    assert colorable == (kind == COLORABLE)
    if colorable:
        assert witness.is_valid_for(h)
    return kind


def check_rotations(h):
    """Rotate from a coloring of every colorable one-edge removal; each
    rotated coloring must color h less the edge it proves necessary."""
    vert_edges = _vertex_edges(h.masks, h.num_vertices)
    rotated = 0
    for e in range(h.num_edges):
        ones = _solve(h.masks[:e] + h.masks[e + 1 :], h.num_vertices)
        if ones is None:
            continue
        for j, mask in _rotate(h.masks, vert_edges, ones, e, set()):
            assert j != e
            witness = Coloring.from_mask(mask, h.num_vertices)
            assert witness.is_valid_for(h.without_edge(j))
            rotated += 1
    return rotated


@settings(max_examples=300, deadline=None)
@given(small_hypergraphs())
def test_classify_matches_the_removal_loop(h):
    if check_verdict(h) != COLORABLE:
        check_rotations(h)


def test_classify_matches_the_removal_loop_on_the_corpus():
    rotated = 0
    for name, h in load_all().items():
        assert check_verdict(h) == CRITICAL, name
        rotated += check_rotations(h)
    assert rotated > 0


def count_solves(monkeypatch):
    import ksets.coloring

    calls = []

    def counting(edge_masks, num_vertices, **kwargs):
        calls.append(len(edge_masks))
        return _solve(edge_masks, num_vertices, **kwargs)

    monkeypatch.setattr(ksets.coloring, "_solve", counting)
    return calls


@pytest.mark.parametrize("edges", [71, 65, 40, 30])
def test_classify_matches_the_removal_loop_on_60_75_subsets(
    h75, edges, monkeypatch
):
    calls = count_solves(monkeypatch)
    kinds = set()
    for h in sample_subsets(h75, 75 - edges, 12, SamplerSeed(edges)):
        calls.clear()
        kind = classify(h)
        solves = len(calls)
        assert solves <= 2 + h.num_edges
        if kind == KS and is_ks(h.without_edge(0)):
            assert solves == 1
        assert check_verdict(h) == kind
        if kind != COLORABLE:
            check_rotations(h)
        kinds.add(kind)
    assert kinds <= {COLORABLE, KS}


@pytest.fixture(scope="module")
def gf2_free(h75):
    """Seeded subsets of the 60-75 with 40 to 50 edges whose GF(2)
    relaxation is feasible, so that every verdict comes from the search:
    83 sets, 10 of them KS."""
    return [
        h
        for edges in range(40, 51)
        for h in sample_subsets(h75, 75 - edges, 40, SamplerSeed(edges))
        if not _parity_refutes(h.masks, h.num_vertices)
    ]


def test_proof_order_agrees_with_the_removal_loop(gf2_free):
    kinds = []
    for h in gf2_free:
        kind = check_verdict(h)
        reference = _reference_solve(h.masks, h.num_vertices)
        assert is_ks(h) == (kind != COLORABLE) == (reference is None)
        kinds.append(kind)
    assert (len(kinds), kinds.count(KS)) == (83, 10)


def test_witnesses_on_gf2_free_subsets_are_pinned(gf2_free, monkeypatch):
    # SHA-256 of the is_colorable witnesses as index-order search finds
    # them, one line per set, and of each set's kind and parity proof; 15
    # colorable sets reach the whole-set solve of classify
    calls = count_solves(monkeypatch)
    colorable = kinds = ""
    resolved = 0
    for h in gf2_free:
        ok, witness = is_colorable(h)
        colorable += f"{ok} {sorted(witness.ones) if witness else None}\n"
        calls.clear()
        kind = classify(h)
        resolved += kind == COLORABLE and len(calls) == 2
        kinds += f"{kind} {has_parity_proof(h)}\n"
    assert resolved == 15
    assert hashlib.sha256(colorable.encode()).hexdigest() == (
        "1ea3e5d3955b95a26b63d3b4d69c848bc61c2dde35f0c5b6a138232e2eb64141"
    )
    assert hashlib.sha256(kinds.encode()).hexdigest() == (
        "46a7f058a0776f8d85f89520d2a16edf1c1edf7d02bc94080495eefd2a6ec98c"
    )


def test_classify_solves_a_colorable_set_twice(gf2_free, monkeypatch):
    # h - e0, and then h in proof order when the coloring of h - e0 does
    # not color h
    calls = count_solves(monkeypatch)
    resolved = 0
    for h in gf2_free:
        calls.clear()
        if classify(h) != COLORABLE or len(calls) == 1:
            continue
        assert len(calls) == 2
        resolved += 1
    assert resolved == 15


def test_verdict_solve_count_is_bounded(h75, monkeypatch):
    calls = count_solves(monkeypatch)
    h = load("38-19")
    assert classify(h) == CRITICAL and has_parity_proof(h)
    assert len(calls) <= 2 + h.num_edges
    # a KS set whose first removal is KS costs that one solve
    calls.clear()
    assert classify(h75) == KS and calls == [74]
    # the plain check took 1 + n solves per corpus entry
    calls.clear()
    corpus = load_all().values()
    for h in corpus:
        before = len(calls)
        assert classify(h) == CRITICAL
        assert len(calls) - before <= 2 + h.num_edges
    assert len(calls) < sum(1 + h.num_edges for h in corpus)


def _reference_solve(edge_masks, num_vertices):
    """Return a bitmask of 1-valued vertices, or None if non-colorable."""
    vert_edges = _vertex_edges(edge_masks, num_vertices)

    def propagate(ones: int, zeros: int, queue: list[int]):
        while queue:
            m = edge_masks[queue.pop()]
            o = m & ones
            if o:
                if o & (o - 1):
                    return None  # two 1s on one edge
                fresh = m & ~o & ~zeros
                if fresh:
                    zeros |= fresh
                    mm = fresh
                    while mm:
                        b = mm & -mm
                        queue.extend(vert_edges[b.bit_length() - 1])
                        mm ^= b
            else:
                undet = m & ~zeros
                if undet == 0:
                    return None  # edge entirely 0
                if undet & (undet - 1) == 0:
                    ones |= undet
                    queue.extend(vert_edges[undet.bit_length() - 1])
        return ones, zeros

    def search(ones: int, zeros: int) -> int | None:
        # branch on the edge with fewest undetermined vertices
        branch = None
        branch_size = None
        for m in edge_masks:
            if m & ones:
                continue
            undet = m & ~zeros
            c = undet.bit_count()
            if branch is None or c < branch_size:
                branch, branch_size = undet, c
                if c <= 2:
                    break
        if branch is None:
            return ones
        # some vertex of this edge must carry the 1: try them in order of
        # decreasing degree, ties to the lowest vertex id
        cands = []
        mm = branch
        while mm:
            b = mm & -mm
            v = b.bit_length() - 1
            cands.append((-len(vert_edges[v]), v))
            mm ^= b
        cands.sort()
        for _, v in cands:
            state = propagate(ones | (1 << v), zeros, list(vert_edges[v]))
            if state is not None:
                result = search(*state)
                if result is not None:
                    return result
        return None

    state = propagate(0, 0, list(range(len(edge_masks))))
    if state is None:
        return None
    return search(*state)


@st.composite
def mask_systems(draw):
    """Edge masks on at most 10 vertices, some of them repeated."""
    nv = draw(st.integers(min_value=1, max_value=10))
    mask = st.integers(min_value=0, max_value=(1 << nv) - 1)
    masks = draw(st.lists(mask, min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(masks), max_size=4))
    order = draw(st.permutations(masks + repeats))
    return tuple(order), nv


def brute_force_solvable(masks, nv):
    return any(
        all((ones & m).bit_count() == 1 for m in masks) for ones in range(1 << nv)
    )


@settings(max_examples=400, deadline=None)
@given(mask_systems())
def test_parity_certificate_is_sound_and_solve_matches_reference(system):
    masks, nv = system
    if _parity_refutes(masks, nv):
        assert not brute_force_solvable(masks, nv)
    expected = _reference_solve(masks, nv)
    assert _solve(masks, nv) == expected
    # proof order keeps the verdict, with a coloring of its own
    ones = _solve(masks, nv, proof=True)
    assert (ones is None) == (expected is None)
    assert ones is None or all((ones & m).bit_count() == 1 for m in masks)


def test_parity_certificate_examples_and_duplicates():
    # three pairs on three vertices: each vertex twice, three edges
    triangle = parse_mmp("12,13,23.")
    assert _parity_refutes(triangle.masks, 3) and not brute_force_colorable(
        triangle
    )
    # duplicate and redundant equations reduce to 0 = 0 and stop
    assert not _parity_refutes((0b011,) * 5, 3)
    # {0, 3} is the sum of {0, 1}, {1, 2} and {2, 3}
    assert not _parity_refutes((0b0011, 0b0110, 0b1100, 0b1001) * 3, 4)
    assert _parity_refutes(triangle.masks * 3, 3)
    assert _solve(triangle.masks * 3, 3) is None


def test_solve_matches_reference_on_corpus_and_removals():
    for name, h in load_all().items():
        nv = h.num_vertices
        assert _solve(h.masks, nv) == _reference_solve(h.masks, nv), name
        for i in range(h.num_edges):
            masks = h.masks[:i] + h.masks[i + 1 :]
            assert _solve(masks, nv) == _reference_solve(masks, nv), (name, i)


@pytest.mark.parametrize("edges", [74, 71, 60, 50, 45, 40, 35])
def test_solve_matches_reference_on_60_75_subsets(h75, edges):
    for h in sample_subsets(h75, 75 - edges, 20, SamplerSeed(100 + edges)):
        nv = h.num_vertices
        assert _solve(h.masks, nv) == _reference_solve(h.masks, nv)


def test_parity_certificate_runs_before_any_search(h75, monkeypatch):
    import ksets.coloring

    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(ksets.coloring, "_vertex_edges", no_search)
    assert is_ks(h75)
    for i in range(h75.num_edges):
        assert classify(h75.without_edge(i)) == KS
