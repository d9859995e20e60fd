import hashlib
import random
from itertools import permutations

from hypothesis import given, settings, strategies as st

from ksets.canon import (
    CanonicalForm,
    _CanonSearch,
    _individualize,
    _keys,
    _partition,
    _refine,
    _weights,
    canonical_form,
    canonical_labeling,
    dedupe_isomorphic,
    edge_orbits,
)
from ksets.corpus import CORPUS_LINES, load
from ksets.mmp import (
    Hypergraph,
    hypergraph_from_edges,
    parse_mmp,
    renormalize,
    vertex_to_chars,
)
from ksets.strip import SamplerSeed, sample_subsets


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


def assert_refinement_matches_reference(h):
    """The same ordered partitions, cell order included, after the initial
    refinement and after individualizing each node of the target cell at
    every level down one branch of the search tree; and neighbour keys that
    match the labels they were updated from."""
    ref = _ReferenceSearch(h)
    adj, init = ref.adj, ref.initial_colors()
    w = _weights(adj)
    ref_col, _ = _reference_refine(adj, init)
    col, cells = _partition(init)
    key = _keys(adj, w, col)
    _refine(adj, w, col, cells, key, list(cells))
    assert (col, cells) == _partition(ref_col)
    assert key == _keys(adj, w, col)
    while len(cells) < len(adj):
        target = min(s for s, mem in cells.items() if len(mem) > 1)
        for node in cells[target]:
            marked = [
                (c, 0 if i == node else 1) for i, c in enumerate(ref_col)
            ]
            ref_next, _ = _reference_refine(adj, marked)
            col2, cells2, key2 = _individualize(adj, w, col, cells, key, node)
            assert (col2, cells2) == _partition(ref_next)
            assert key2 == _keys(adj, w, col2)
        ref_col, col, cells, key = ref_next, col2, cells2, key2


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_hypergraphs(), corpus_fragments()))
def test_refinement_matches_reference(h):
    assert_refinement_matches_reference(h)


def hubs(d, seed):
    """Two vertices on ``d`` edges each, whose other two vertices are drawn
    from ``2 d`` more, and a third vertex on ``d`` edges of its own."""
    rng = random.Random(seed)
    edges = []
    for hub in (0, 1):
        pairs = set()
        while len(pairs) < d:
            pairs.add(tuple(sorted(rng.sample(range(3, 3 + 2 * d), 2))))
        edges += [(hub, a, b) for a, b in sorted(pairs)]
    start = 3 + 2 * d
    edges += [(2, start + 2 * i, start + 2 * i + 1) for i in range(d)]
    return renormalize(hypergraph_from_edges(edges))


def test_neighbour_keys_order_as_sorted_label_tuples():
    # of two nodes of equal degree, the larger key has the smaller sorted
    # tuple of neighbour labels, and equal keys have equal tuples.  A key
    # digit is 3 bits wide up to degree 7, 4 up to 15 and 5 up to 31; the
    # probes fill one digit to the degree and set one label's count against
    # a full digit of the label after it
    rng = random.Random(15)
    for d in (7, 8, 9, 15, 16, 17):
        n = 2 * d
        probes = [[1] * d, [0] + [n - 1] * (d - 1), [0] * d, [n - 1] * d]
        probes += [sorted(rng.choices(range(4), k=d)) for _ in range(20)]
        probes += [sorted(rng.choices(range(n), k=d)) for _ in range(20)]
        # node i has label i; the probes are the only nodes with neighbours
        adj = probes + [[] for _ in range(n)]
        w = _weights(adj)
        key = _keys(adj, w, list(range(len(adj))))
        for i, a in enumerate(probes):
            for j, b in enumerate(probes):
                assert (key[i] > key[j]) == (a < b)
                assert (key[i] == key[j]) == (a == b)


def test_refinement_at_the_key_digit_boundary():
    # the same partitions as the reference when the largest degree is 7,
    # 8, 9, 15, 16 or 17, where the key digit widens, and labelings that
    # ignore vertex names and edge order
    rng = random.Random(15)
    for d in (7, 8, 9, 15, 16, 17):
        for seed in range(3):
            h = hubs(d, seed)
            assert max(map(len, _CanonSearch(h).adj)) == d
            assert_refinement_matches_reference(h)
            c = canonical_form(h)
            for _ in range(2):
                assert canonical_form(relabeled(h, rng)) == c


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


def _record_calls(monkeypatch, *names):
    """Patch ``_CanonSearch`` methods to log what each call returns."""
    results = {name: [] for name in names}
    for name in names:
        method = getattr(_CanonSearch, name)

        def recorded(self, *args, name=name, method=method):
            out = method(self, *args)
            results[name].append(out)
            return out

        monkeypatch.setattr(_CanonSearch, name, recorded)
    return results


def test_labeling_matches_reference_when_leaves_differ(monkeypatch):
    # leaves that no automorphism maps onto the first leaf build their own
    # certificates; these two searches reach 2 and 38 distinct ones.  The
    # 4-edge one builds 5: a leaf that repeats the certificate of a leaf
    # other than the first builds it again
    certs = _record_calls(monkeypatch, "_certificate")["_certificate"]
    for h, built, distinct in (
        (parse_mmp("1234,5637,7314,6325."), 5, 2),
        (load("38-19"), 38, 38),
    ):
        certs.clear()
        _CanonSearch(h).run()
        assert (len(certs), len(set(certs))) == (built, distinct)
        assert_matches_reference(h)


def test_automorphic_leaves_build_no_certificate(h75, monkeypatch):
    # every leaf of the 74-edge child after the first maps onto the first
    # by an automorphism, so only the first builds a certificate string
    calls = _record_calls(
        monkeypatch, "_leaf", "_certificate", "_automorphism"
    )
    _CanonSearch(h75.without_edge(0)).run()
    assert len(calls["_certificate"]) == 1
    assert len(calls["_leaf"]) > 1
    # each later leaf is tested once, against the first leaf
    assert len(calls["_automorphism"]) == len(calls["_leaf"]) - 1
    assert None not in calls["_automorphism"]


def served_sets(h75):
    """Sets a survey labels: the 60-75, its one-edge children and seeded
    draws at 65, 45 and 25 edges."""
    hs = [h75] + [h75.without_edge(i) for i in range(75)]
    for edges in (65, 45, 25):
        hs += sample_subsets(h75, 75 - edges, 50, SamplerSeed(edges))
    return hs


def test_served_searches_build_one_certificate(h75, monkeypatch):
    # on the sets a survey labels every leaf after the first maps onto the
    # first leaf, so each search builds exactly one certificate
    certs = _record_calls(monkeypatch, "_certificate")["_certificate"]
    for h in served_sets(h75):
        certs.clear()
        _CanonSearch(h).run()
        assert len(certs) == 1


def test_corpus_canonical_forms_are_pinned():
    # SHA-256 of the corpus's canonical forms, one line each in corpus
    # order, as the full-recolouring labeling computes them
    text = "".join(
        canonical_form(load(name)).text + "\n" for name in CORPUS_LINES
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0dea7b5ce9dd425fc372205fc5107df4eb3a686147944c699a1879d5c8ee09b9"
    )


def test_served_labelings_are_pinned(h75):
    # SHA-256 of the form text and vertex relabeling of each served set,
    # one line each, as the tuple-key refinement computed them
    text = "".join(
        form.text + " " + " ".join(map(str, vpos)) + "\n"
        for form, vpos in map(canonical_labeling, served_sets(h75))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d89371d6dee3f8cd070954cdf5e8f5e00b78ef56c7d97ff7d7fcb7b5246f29e9"
    )


def test_empty_hypergraph():
    h = Hypergraph(0, ())
    assert canonical_labeling(h) == (CanonicalForm("."), [])
    assert edge_orbits(h) == []


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(), st.integers(min_value=0, max_value=2**32))
def test_invariance_under_relabeling(h, seed):
    rng = random.Random(seed)
    assert canonical_form(relabeled(h, rng)) == canonical_form(h)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs(), small_hypergraphs())
def test_matches_permutation_oracle(h1, h2):
    ours = canonical_form(h1) == canonical_form(h2)
    assert ours == oracle_isomorphic(h1, h2)


@settings(max_examples=60, deadline=None)
@given(small_hypergraphs())
def test_canonical_form_idempotent(h):
    c = canonical_form(h)
    assert canonical_form(parse_mmp(c.text)) == c


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
        assert canonical_form(load(a)) != canonical_form(load(b))


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


def group_order(gens, nv):
    """Order of the group the generators' vertex parts generate, by
    closing them under composition from the identity."""
    gens = [g[:nv] for g in gens]
    identity = tuple(range(nv))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_backjumping_keeps_a_generating_set(h75):
    # a backjumping search stores fewer automorphisms (132 without it),
    # and they still generate the 60-75's group of order 14400 and its
    # 74-edge child's of order 192
    search = _CanonSearch(h75)
    search.run()
    assert len(search.autos) <= 10
    assert group_order(search.autos, h75.num_vertices) == 14400
    child = renormalize(h75.without_edge(0))
    search = _CanonSearch(child)
    search.run()
    assert group_order(search.autos, child.num_vertices) == 192
