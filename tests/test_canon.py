import hashlib
import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

from ksets.canon import (
    _CanonSearch,
    _individualize,
    _partition,
    _refine,
    are_isomorphic,
    canonical_form,
    canonical_labeling,
    dedupe_isomorphic,
    edge_orbits,
)
from ksets.corpus import CORPUS_LINES, load
from ksets.mmp import (
    hypergraph_from_edges,
    parse_mmp,
    renormalize,
    vertex_to_chars,
)


def _reference_refine(adj, colors):
    """Full recolouring: every round re-ranks every node by (color, sorted
    neighbour colors) until no cell splits."""
    n = len(adj)
    order = sorted(set(colors))
    cmap = {c: i for i, c in enumerate(order)}
    col = [cmap[c] for c in colors]
    ncol = len(order)
    while True:
        keys = [
            (col[i], tuple(sorted(col[j] for j in adj[i]))) for i in range(n)
        ]
        order = sorted(set(keys))
        if len(order) == ncol:
            return col, ncol
        cmap = {k: i for i, k in enumerate(order)}
        col = [cmap[k] for k in keys]
        ncol = len(order)


class _ReferenceSearch:
    """The straightforward labeling search the incremental one must match:
    refinement from scratch at every tree node, and pruning by single
    stored automorphisms that fix the prefix."""

    def __init__(self, h):
        self.h = h
        self.nv = nv = h.num_vertices
        self.n = nv + h.num_edges
        self.adj = [[] for _ in range(self.n)]
        for ei, e in enumerate(h.edges):
            for v in e:
                self.adj[v].append(nv + ei)
                self.adj[nv + ei].append(v)
        self.edge_set_index = {}
        for ei, s in enumerate(frozenset(e) for e in h.edges):
            self.edge_set_index.setdefault(s, []).append(ei)
        self.best = None
        self.best_vpos = None
        self.leaves = {}
        self.autos = []

    def initial_colors(self):
        return [(0, len(self.adj[v])) for v in range(self.nv)] + [
            (1, len(e)) for e in self.h.edges
        ]

    def run(self):
        col, ncol = _reference_refine(self.adj, self.initial_colors())
        self._search(col, ncol, [])
        return self.best, self.best_vpos

    def _leaf(self, col):
        vorder = sorted(range(self.nv), key=lambda v: col[v])
        vpos = [0] * self.nv
        for p, v in enumerate(vorder):
            vpos[v] = p
        relabeled = sorted(
            tuple(sorted(vpos[v] for v in e)) for e in self.h.edges
        )
        cert = (
            ",".join("".join(vertex_to_chars(v) for v in e) for e in relabeled)
            + "."
        )
        prev = self.leaves.get(cert)
        if prev is None:
            self.leaves[cert] = list(col)
        else:
            perm = self._automorphism(prev, col)
            if perm is not None:
                self.autos.append(perm)
        if self.best is None or cert < self.best:
            self.best = cert
            self.best_vpos = vpos

    def _automorphism(self, pos_a, pos_b):
        n, nv = self.n, self.nv
        inv_a = [0] * n
        for node in range(n):
            inv_a[pos_a[node]] = node
        perm = [inv_a[pos_b[node]] for node in range(n)]
        used = set()
        for ei, s in enumerate(frozenset(e) for e in self.h.edges):
            image = frozenset(perm[v] for v in s)
            for cand in self.edge_set_index.get(image, ()):
                if cand not in used:
                    used.add(cand)
                    perm[nv + ei] = nv + cand
                    break
            else:
                return None
        return tuple(perm)

    def _search(self, col, ncol, fixed):
        n = self.n
        if ncol == n:
            self._leaf(col)
            return
        cells = {}
        for i in range(n):
            cells.setdefault(col[i], []).append(i)
        target = min(c for c, mem in cells.items() if len(mem) > 1)
        explored = []
        for node in cells[target]:
            if any(
                auto[node] in explored and all(auto[f] == f for f in fixed)
                for auto in self.autos
            ):
                continue
            explored.append(node)
            marked = [(col[i], 0 if i == node else 1) for i in range(n)]
            col2, ncol2 = _reference_refine(self.adj, marked)
            self._search(col2, ncol2, fixed + [node])


def assert_matches_reference(h):
    cert, vpos = canonical_labeling(h)
    ref_cert, ref_vpos = _ReferenceSearch(h).run()
    assert (cert.text, vpos) == (ref_cert, ref_vpos)


def relabeled(h, rng):
    perm = list(range(h.num_vertices))
    rng.shuffle(perm)
    edges = [tuple(perm[v] for v in e) for e in h.edges]
    rng.shuffle(edges)
    edges = [tuple(rng.sample(e, len(e))) for e in edges]
    return hypergraph_from_edges(edges, h.num_vertices)


def oracle_isomorphic(h1, h2):
    """All-permutations ground truth for small inputs."""
    if (h1.num_vertices, h1.num_edges) != (h2.num_vertices, h2.num_edges):
        return False
    sets2 = sorted((frozenset(e) for e in h2.edges), key=sorted)
    for perm in permutations(range(h1.num_vertices)):
        mapped = sorted(
            (frozenset(perm[v] for v in e) for e in h1.edges), key=sorted
        )
        if mapped == sets2:
            return True
    return False


@st.composite
def small_hypergraphs(draw):
    nv = draw(st.integers(min_value=3, max_value=7))
    ne = draw(st.integers(min_value=1, max_value=5))
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
    # valid MMP hypergraphs have no isolated vertices, and the canonical
    # text form cannot represent them
    return renormalize(hypergraph_from_edges(edges, nv))


@st.composite
def corpus_fragments(draw):
    """A corpus entry with up to five of its edges dropped, relabeled
    densely.  (Sparser fragments can fall apart into many isomorphic
    components, on which the reference search runs for hours.)"""
    h = load(draw(st.sampled_from(sorted(CORPUS_LINES))))
    drop = draw(st.sets(st.integers(0, h.num_edges - 1), max_size=5))
    return renormalize(
        hypergraph_from_edges(
            [e for i, e in enumerate(h.edges) if i not in drop]
        )
    )


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_hypergraphs(), corpus_fragments()))
def test_refinement_matches_reference(h):
    # the same ordered partitions, cell order included, after the initial
    # refinement and after individualizing each node of the target cell at
    # every level down one branch of the search tree
    ref = _ReferenceSearch(h)
    adj, init = ref.adj, ref.initial_colors()
    ref_col, _ = _reference_refine(adj, init)
    col, cells = _partition(init)
    _refine(adj, col, cells, range(len(adj)))
    assert (col, cells) == _partition(ref_col)
    while len(cells) < len(adj):
        target = min(s for s, mem in cells.items() if len(mem) > 1)
        for node in cells[target]:
            marked = [
                (c, 0 if i == node else 1) for i, c in enumerate(ref_col)
            ]
            ref_next, _ = _reference_refine(adj, marked)
            fast_next = _individualize(adj, col, cells, node)
            assert fast_next == _partition(ref_next)
        ref_col, (col, cells) = ref_next, fast_next


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs())
def test_labeling_matches_reference(h):
    assert_matches_reference(h)


@settings(max_examples=20, deadline=None)
@given(corpus_fragments())
def test_labeling_matches_reference_on_corpus_fragments(h):
    assert_matches_reference(h)


def test_labeling_matches_reference_on_600cell_children(h75):
    assert_matches_reference(h75)
    for i in range(h75.num_edges):
        assert_matches_reference(h75.without_edge(i))


def test_corpus_canonical_forms_are_pinned():
    # SHA-256 of the corpus's canonical forms, one line each in corpus
    # order, as the full-recolouring labeling computes them
    text = "".join(
        canonical_form(load(name)).text + "\n" for name in CORPUS_LINES
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0dea7b5ce9dd425fc372205fc5107df4eb3a686147944c699a1879d5c8ee09b9"
    )


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(), st.integers(min_value=0, max_value=2**32))
def test_invariance_under_relabeling(h, seed):
    rng = random.Random(seed)
    assert canonical_form(relabeled(h, rng)) == canonical_form(h)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(), small_hypergraphs())
def test_matches_permutation_oracle(h1, h2):
    ours = are_isomorphic(h1, h2) is not None
    assert ours == oracle_isomorphic(h1, h2)


@settings(max_examples=80, deadline=None)
@given(small_hypergraphs(), st.integers(min_value=0, max_value=2**32))
def test_mapping_self_verifies(h, seed):
    h2 = relabeled(h, random.Random(seed))
    mapping = are_isomorphic(h, h2)
    assert mapping is not None
    assert mapping.verifies(h, h2)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_canonical_form_idempotent(h):
    c = canonical_form(h)
    assert canonical_form(c.to_hypergraph()) == c


def test_canonical_form_is_valid_mmp():
    c = canonical_form(load("42-24"))
    assert parse_mmp(c.text).signature == "42-24"


def test_corpus_relabeling_invariance():
    rng = random.Random(99)
    for name in ("38-19", "42-24", "45-26"):
        h = load(name)
        c = canonical_form(h)
        for _ in range(3):
            assert canonical_form(relabeled(h, rng)) == c


def test_corpus_entries_pairwise_nonisomorphic():
    # same-signature corpus entries are distinct sets
    for a, b in (("49-28", "47-28"), ("50-30", "49-30"), ("54-34", "53-34")):
        assert are_isomorphic(load(a), load(b)) is None


def test_dedupe_keeps_first_appearance():
    h = load("38-19")
    twin = relabeled(h, random.Random(1))
    other = load("42-24")
    out = list(dedupe_isomorphic([h, twin, other]))
    assert out == [h, other]


def test_labeling_produces_certificate():
    h = parse_mmp("123,345,561.")
    cert, vpos = canonical_labeling(h)
    relab = [
        tuple(sorted(vpos[v] for v in e)) for e in h.edges
    ]
    expected = (
        ",".join(
            "".join("123456789"[v] for v in e) for e in sorted(relab)
        )
        + "."
    )
    assert cert.text == expected


def test_vertex_count_mismatch_fast_path():
    assert are_isomorphic(parse_mmp("123."), parse_mmp("1234.")) is None


def test_stored_automorphism_swaps_repeated_edges():
    # not valid MMP, but canonical_form does not validate its input: six
    # copies of one edge are interchangeable, and an automorphism that
    # moves edge nodes lets the search prune their 6! orderings
    h = hypergraph_from_edges([(0, 1, 2)] * 6)
    search = _CanonSearch(h)
    assert search.run() == ("123,123,123,123,123,123.", [0, 1, 2])
    nv = h.num_vertices
    assert any(
        auto[nv + e] != nv + e for auto in search.autos for e in range(6)
    )


def brute_force_edge_orbits(h):
    """The lowest edge index in each edge's orbit, from every vertex
    permutation that maps the edge multiset onto itself.  Copies of one
    edge are interchangeable, so an automorphism moves an edge onto every
    edge carrying the image vertex set."""
    sets = [frozenset(e) for e in h.edges]
    key = sorted(sorted(s) for s in sets)
    low = list(range(h.num_edges))
    for perm in permutations(range(h.num_vertices)):
        images = [frozenset(perm[v] for v in s) for s in sets]
        if sorted(sorted(s) for s in images) != key:
            continue
        for ei, image in enumerate(images):
            for ej, s in enumerate(sets):
                if s == image:
                    low[ei] = min(low[ei], ej)
    return low


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs())
def test_edge_orbits_match_brute_force(h):
    assert edge_orbits(h) == brute_force_edge_orbits(h)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_hypergraphs(), corpus_fragments()))
def test_stored_automorphisms_map_edges_onto_edges(h):
    search = _CanonSearch(h)
    search.run()
    nv = h.num_vertices
    for auto in search.autos:
        assert sorted(auto[nv:]) == list(range(nv, search.n))
        for ei, e in enumerate(h.edges):
            image = h.edges[auto[nv + ei] - nv]
            assert {auto[v] for v in e} == set(image)


def test_600cell_edge_orbits(h75):
    # the 60-75's symmetry moves every edge onto every other; its 74-edge
    # child keeps four kinds of edge
    assert edge_orbits(h75) == [0] * 75
    assert len(set(edge_orbits(h75.without_edge(0)))) == 4
