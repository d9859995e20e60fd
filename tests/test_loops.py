import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ksets.corpus import CORPUS_LINES, LOOP_SIZES, load
from ksets.loops import (
    Loop,
    _LoopSearch,
    biggest_loop,
    classify_edges,
    format_annotated,
    loop_arrangements,
)
from ksets.mmp import hypergraph_from_edges, is_connected, parse_mmp
from ksets.strip import SamplerSeed, sample_subsets


class _ReferenceSearch(_LoopSearch):
    """The unbounded depth-first search the branch and bound replaced:
    every induced path is extended, and only ``exact`` cuts paths, by the
    band reachable through all unused edges."""

    def __init__(self, h):
        super().__init__(h)
        self.emask = [sum(1 << v for v in e) for e in h.edges]

    def longest(self):
        best = 0
        witness = None
        emask, adj = self.emask, self.adj

        def dfs(start, last, used_e, mid, path):
            nonlocal best, witness
            allowed = ~used_e & self.full
            e0m = emask[start]
            lm = emask[last]
            blocked = mid | (e0m if len(path) > 1 else 0)
            x = adj[last] & allowed
            while x:
                b = x & -x
                e = b.bit_length() - 1
                x ^= b
                em = emask[e]
                if em & blocked == 0:
                    path.append(e)
                    dfs(start, e, used_e | b,
                        mid | (lm if len(path) > 2 else 0), path)
                    path.pop()
                if (
                    len(path) + 1 >= 3
                    and len(path) + 1 > best
                    and em & e0m
                    and em & mid == 0
                    and self._closable(path, e)
                ):
                    best = len(path) + 1
                    witness = tuple(path) + (e,)

        for s in range(self.m):
            dfs(s, s, (1 << (s + 1)) - 1, 0, [s])
        return best, witness

    def exact(self, n):
        found = []
        emask, adj = self.emask, self.adj

        def dfs(start, last, used_e, mid, path):
            allowed = ~used_e & self.full
            if len(path) < n:
                band = (
                    self._reach(1 << last, allowed)
                    & self._reach(1 << start, allowed | (1 << start))
                    & allowed
                )
                if len(path) + band.bit_count() < n:
                    return
            e0m = emask[start]
            lm = emask[last]
            blocked = mid | (e0m if len(path) > 1 else 0)
            x = adj[last] & allowed
            while x:
                b = x & -x
                e = b.bit_length() - 1
                x ^= b
                em = emask[e]
                if len(path) + 1 < n:
                    if em & blocked == 0:
                        path.append(e)
                        dfs(start, e, used_e | b,
                            mid | (lm if len(path) > 2 else 0), path)
                        path.pop()
                elif em & e0m and em & mid == 0:
                    cycle = tuple(path) + (e,)
                    for joints in self._joint_choices(cycle):
                        found.append((cycle, joints))

        for s in range(self.m):
            dfs(s, s, (1 << (s + 1)) - 1, 0, [s])
        return found

    def _reach(self, src: int, allowed: int) -> int:
        r = src
        frontier = src
        adj = self.adj
        while frontier:
            nxt = 0
            x = frontier
            while x:
                b = x & -x
                nxt |= adj[b.bit_length() - 1]
                x ^= b
            nxt &= allowed & ~r
            r |= nxt
            frontier = nxt
        return r


def oracle_biggest(h):
    """Brute force over all edge orderings; only for tiny inputs."""
    m = h.num_edges
    sets = [frozenset(e) for e in h.edges]
    best = 0
    for n in range(3, m + 1):
        for seq in permutations(range(m), n):
            if seq[0] != min(seq):
                continue
            ok = True
            for i in range(n):
                for j in range(i + 1, n):
                    inter = sets[seq[i]] & sets[seq[j]]
                    consecutive = j == i + 1 or (i == 0 and j == n - 1)
                    if consecutive and not inter:
                        ok = False
                    if not consecutive and inter:
                        ok = False
                if not ok:
                    break
            if ok and _joints_exist(h, seq):
                best = max(best, n)
    return best


def _joints_exist(h, seq):
    n = len(seq)
    sets = [frozenset(e) for e in h.edges]
    options = [
        sorted(sets[seq[i]] & sets[seq[(i + 1) % n]])
        for i in range(n)
    ]

    def pick(i, used):
        if i == n:
            return True
        return any(
            pick(i + 1, used | {v}) for v in options[i] if v not in used
        )

    return pick(0, frozenset())


def random_small(rng):
    nv = rng.randint(4, 9)
    ne = rng.randint(3, 6)
    edges = []
    for _ in range(ne):
        size = rng.randint(2, min(4, nv))
        edges.append(tuple(rng.sample(range(nv), size)))
    return hypergraph_from_edges(edges, nv)


def test_triangle():
    n, loop = biggest_loop(parse_mmp("123,345,561."))
    assert n == 3
    loop.validate(parse_mmp("123,345,561."))


def test_no_loop_structures():
    assert biggest_loop(parse_mmp("123."))[0] == 0
    assert biggest_loop(parse_mmp("123,345."))[0] == 0
    # two edges sharing two joints still cannot make a 2-loop
    assert biggest_loop(parse_mmp("1234,3456."))[0] == 0


def test_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(120):
        h = random_small(rng)
        n, loop = biggest_loop(h)
        assert n == oracle_biggest(h)
        if loop is not None:
            loop.validate(h)


def test_corpus_loop_sizes_witnessed():
    h = load("42-24")
    n, loop = biggest_loop(h)
    assert n == LOOP_SIZES["42-24"] == 13
    loop.validate(h)


def test_isomorphism_invariance():
    h = load("45-26")
    rng = random.Random(5)
    perm = list(range(h.num_vertices))
    rng.shuffle(perm)
    edges = [tuple(perm[v] for v in e) for e in h.edges]
    rng.shuffle(edges)
    h2 = hypergraph_from_edges(edges, h.num_vertices)
    assert biggest_loop(h2)[0] == biggest_loop(h)[0] == 12


def test_arrangements_pure_cycle():
    h = parse_mmp("123,345,561.")
    assert len(loop_arrangements(h, 3)) == 1
    assert loop_arrangements(h, 4) == []
    with pytest.raises(ValueError):
        loop_arrangements(h, 2)


def test_arrangements_count_joint_choices():
    # square of 4-vertex edges: every corner offers two joint vertices, and
    # each of the 2^4 joint selections is its own arrangement
    h = parse_mmp("1234,3456,5678,7812.")
    arrs = loop_arrangements(h, 4)
    assert len(arrs) == 16
    assert len({a.joints for a in arrs}) == 16
    for a in arrs:
        a.validate(h)


def test_45_26_arrangements():
    # 13 classes under rotation+reflection; counting each traversal
    # direction separately doubles this to the historically quoted 26
    arrs = loop_arrangements(load("45-26"), 12)
    assert len(arrs) == 13
    for a in arrs:
        a.validate(load("45-26"))


def test_loop_validate_rejects_bad_witnesses():
    h = parse_mmp("123,345,561.")
    with pytest.raises(ValueError):
        Loop((0, 1), (2, 4)).validate(h)
    with pytest.raises(ValueError):
        Loop((0, 1, 1), (2, 4, 0)).validate(h)
    with pytest.raises(ValueError):
        Loop((0, 1, 2), (2, 2, 0)).validate(h)
    with pytest.raises(ValueError):
        Loop((0, 1, 2), (1, 4, 0)).validate(h)  # joint not shared


def test_classification_partitions():
    for name in ("42-24", "45-26", "38-19"):
        h = load(name)
        _, loop = biggest_loop(h)
        cls = classify_edges(h, loop)
        assert cls.polygon | cls.free | cls.span == frozenset(
            range(h.num_edges)
        )
        assert not (cls.polygon & cls.free)
        assert not (cls.polygon & cls.span)
        assert not (cls.free & cls.span)
        for ei in cls.free:
            assert frozenset(h.edges[ei]) & cls.free_vertices
        for ei in cls.span:
            assert not frozenset(h.edges[ei]) & cls.free_vertices


def test_pure_cycle_all_polygon():
    h = parse_mmp("123,345,561.")
    _, loop = biggest_loop(h)
    cls = classify_edges(h, loop)
    assert cls.polygon == frozenset({0, 1, 2})
    assert not cls.free and not cls.span and not cls.free_vertices


def test_format_annotated():
    h = parse_mmp("123,345,561,789,169.")
    n, loop = biggest_loop(h)
    text = format_annotated(h, loop)
    head, _, rest = text.partition(". ")
    assert len(head.split(",")) == n
    assert "." in rest or "*" in rest


@st.composite
def random_hypergraphs(draw):
    nv = draw(st.integers(min_value=3, max_value=14))
    ne = draw(st.integers(min_value=1, max_value=12))
    edges = [
        tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=nv - 1),
                    min_size=2,
                    max_size=min(4, nv),
                    unique=True,
                )
            )
        )
        for _ in range(ne)
    ]
    return hypergraph_from_edges(edges, nv)


@st.composite
def corpus_fragments(draw):
    """An entry of at most 30 edges with one to five edges dropped."""
    names = sorted(n for n in CORPUS_LINES if load(n).num_edges <= 30)
    h = load(draw(st.sampled_from(names)))
    drop = draw(st.sets(st.integers(0, h.num_edges - 1), min_size=1,
                        max_size=5))
    return hypergraph_from_edges(
        [e for i, e in enumerate(h.edges) if i not in drop], h.num_vertices
    )


def _one_direction(found):
    """The reference's loops in the direction the search walks: second
    edge below the closing edge."""
    return [f for f in found if f[0][1] < f[0][-1]]


def _normalize(edges, joints):
    """Canonical key under rotation and reflection of the cyclic
    (edges, joints) sequence."""
    n = len(edges)
    variants = []
    for r in range(n):
        variants.append(
            tuple(
                (edges[(r + i) % n], joints[(r + i) % n]) for i in range(n)
            )
        )
    # reflection reverses edge order and shifts the joint alignment
    redges = tuple(reversed(edges))
    rjoints = tuple(joints[(n - 2 - i) % n] for i in range(n))
    for r in range(n):
        variants.append(
            tuple(
                (redges[(r + i) % n], rjoints[(r + i) % n]) for i in range(n)
            )
        )
    return min(variants)


def _reference_arrangements(h, n):
    """The rotation and reflection dedupe ``loop_arrangements`` did over
    both traversal directions: the first of each class in DFS order."""
    seen = {}
    for edges, joints in _ReferenceSearch(h).exact(n):
        key = _normalize(edges, joints)
        if key not in seen:
            loop = Loop(edges, joints)
            loop.validate(h)
            seen[key] = loop
    return list(seen.values())


def assert_matches_reference(h, sizes):
    fast, ref = _LoopSearch(h), _ReferenceSearch(h)
    best = ref.longest()
    assert fast.longest() == best
    for n in sizes(best[0]):
        assert fast.exact(n) == _one_direction(ref.exact(n))
        assert loop_arrangements(h, n) == _reference_arrangements(h, n)


@settings(max_examples=300, deadline=None)
@given(random_hypergraphs())
def test_search_matches_reference(h):
    # (size, witness) and every fixed-size list, order included
    assert_matches_reference(h, lambda best: range(3, best + 2))


@st.composite
def packing_hypergraphs(draw, duplicate):
    """A ring of 3 to 7 edges of 2 to 5 vertices, consecutive ones sharing
    1 or 2 vertices (the first pair 2), then up to 4 edges that each share
    2 or more vertices with an earlier edge and are filled up with used
    vertices first, which adds chords and more loops.

    With ``duplicate`` one edge repeats an earlier one, so some pair
    shares a whole smallest edge (step = kmin - smax <= 0, for the
    smallest edge size kmin and the largest share smax).  Without, every
    edge has 3 to 5 vertices and no pair shares more than 2, so smax = 2
    and step >= 1.
    """
    low = 2 if duplicate else 3
    ring = draw(st.integers(min_value=3, max_value=7))
    nv = 0
    joints = []
    for i in range(ring):
        width = 2 if i == 0 else draw(st.integers(1, 2))
        joints.append(list(range(nv, nv + width)))
        nv += width
    edges = []
    for i in range(ring):
        edge = joints[i - 1] + joints[i]
        pad = draw(st.integers(max(low, len(edge)), 5)) - len(edge)
        edges.append(edge + list(range(nv, nv + pad)))
        nv += pad
    for _ in range(draw(st.integers(0, 4))):
        parent = draw(st.sampled_from(edges))
        size = draw(st.integers(low, 5))
        keep = 2 if not duplicate else draw(
            st.integers(2, min(size, len(parent)))
        )
        edge = list(draw(st.permutations(parent))[:keep])
        for v in draw(st.permutations(range(nv))) + list(range(nv, nv + 5)):
            if len(edge) == size:
                break
            if v in edge:
                continue
            if duplicate or all(len(set(e) & {*edge, v}) <= 2 for e in edges):
                edge.append(v)
        nv = max(nv - 1, *edge) + 1
        edges.append(edge)
    if duplicate:
        twin = draw(st.sampled_from(edges))
        edges.insert(
            draw(st.integers(0, len(edges))), draw(st.permutations(twin))
        )
    perm = draw(st.permutations(range(nv)))
    return hypergraph_from_edges(
        [[perm[v] for v in e] for e in draw(st.permutations(edges))], nv
    )


def _largest_share(h):
    return max(
        (a & b).bit_count()
        for i, a in enumerate(h.masks)
        for b in h.masks[i + 1 :]
    )


@pytest.mark.parametrize("duplicate", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_packing_bound_matches_reference(duplicate, data):
    # the (size, witness) of longest and every fixed-size list, order
    # included, with a repeated edge (step <= 0) and with smax = 2
    h = data.draw(packing_hypergraphs(duplicate))
    smax = _largest_share(h)
    step = min(a.bit_count() for a in h.masks) - smax
    if duplicate:
        assert step <= 0 and smax >= 2
    else:
        assert step >= 1 and smax == 2
    assert_matches_reference(h, lambda best: range(3, best + 2))


@settings(max_examples=12, deadline=None)
@given(corpus_fragments())
def test_search_matches_reference_on_corpus_fragments(h):
    assert_matches_reference(h, lambda best: [best] if best else [])


@pytest.mark.parametrize("b", [20, 24, 26])
def test_search_matches_reference_on_600cell_subsets(h75, b):
    # the non-critical sets that ``ks loops`` gets after ``ks strip``
    subsets = [
        h for h in sample_subsets(h75, 75 - b, 12, SamplerSeed(b))
        if is_connected(h)
    ]
    assert len(subsets) >= 6
    for h in subsets[:6]:
        assert_matches_reference(h, lambda best: [best] if best else [])


def test_fixed_size_lists_match_reference_on_corpus():
    for name, n in LOOP_SIZES.items():
        h = load(name)
        if h.num_edges <= 36:
            assert _LoopSearch(h).exact(n) == _one_direction(
                _ReferenceSearch(h).exact(n)
            )
            assert loop_arrangements(h, n) == _reference_arrangements(h, n)


def test_corpus_witnesses_are_pinned():
    # SHA-256 of every entry's (size, witness edges, witness joints) as the
    # unbounded search finds them, one line each in corpus order
    text = ""
    for name in CORPUS_LINES:
        n, loop = biggest_loop(load(name))
        text += f"{name} {n} {loop.edges} {loop.joints}\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a372f968ae76ecbe5b4a7e0abf398b47d3898a221b8edb92585b4b8066fc8741"
    )
