"""Canonical labeling and isomorphism filtering of MMP hypergraphs.

The canonical form of a hypergraph is the lexicographically least MMP
serialization over a labeling search tree: individualization-refinement on
the bipartite incidence graph (vertex nodes and edge nodes, colored by
side and degree information), with discovered automorphisms pruning
branches that can only repeat an explored leaf.  Two hypergraphs are
isomorphic exactly when their canonical forms are equal, and a canonical
form is itself a valid MMP line.

Refinement works on an ordered partition in which each cell is labelled by
its start position, after McKay, "Practical graph isomorphism" (1981), and
McKay & Piperno, "Practical graph isomorphism, II" (2014).  Rounds are
simultaneous: each splits the cells next to a node relabelled in the round
before, by the sorted labels of each member's neighbours, and orders the
sub-cells by them.  Each node keeps those labels as one integer, a count
of its neighbours per label with the lowest label the most significant
digit; cell-mates have equal degree, so a larger integer is a smaller
sorted tuple, and a relabelled node updates only its neighbours' integers.
Start labels order cells as their ranks would, and a split relabels only
the nodes that moved, so each round costs what its splits touch while the
partition, cell order included, is that of a full recolouring of every
node each round.  Individualizing a node puts it first in its cell and
refines from its moved cell-mates only.  A branch is pruned when its node
shares an orbit, under the automorphisms found so far that fix the
branch's prefix, with an explored sibling.  Each leaf after the first is
tested against the first leaf only (after McKay & Piperno): an automorphism
maps it onto the first leaf exactly when their certificates are equal.  Such
an automorphism is stored, and it maps the rest of the leaf's branch onto
explored leaves, so the search backjumps to the node where the two leaves'
paths split and goes on with that node's next member.  Every skipped leaf
repeats an explored certificate, so the least certificate and the first leaf
that reaches it are unchanged.  A leaf that fails the test builds its
certificate string, which competes for the least one; nothing else of it is
kept.

The stored automorphisms also give the orbits of a hypergraph's edges
(``edge_orbits``).  Removing edges of one orbit yields isomorphic children,
so a survey stage, thinned or not, labels only the first kept child of
each edge orbit of a parent that keeps two or more children (McKay,
"Isomorph-free exhaustive generation", 1998).

The canonical representative choice is an internal convention; only the
partition into isomorphism classes is comparable across tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence

from .mmp import Hypergraph, vertex_to_chars


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical MMP serialization; equality is isomorphism."""

    text: str


def _partition(colors: Sequence) -> tuple[list[int], dict[int, list[int]]]:
    """The ordered partition of nodes by sorted color, as start labels and a
    start -> members map."""
    by_color: dict = {}
    for i, c in enumerate(colors):
        by_color.setdefault(c, []).append(i)
    col = [0] * len(colors)
    cells: dict[int, list[int]] = {}
    pos = 0
    for c in sorted(by_color):
        cells[pos] = by_color[c]
        for i in by_color[c]:
            col[i] = pos
        pos += len(by_color[c])
    return col, cells


def _weights(adj: list[list[int]]) -> list[int]:
    """The digit weight of each label in a node's neighbour key: label ``p``
    weighs ``1 << bits * (n - 1 - p)``, where ``bits`` is the bit length of
    the largest degree, so every digit counts neighbours below its base."""
    n = len(adj)
    bits = max(map(len, adj), default=0).bit_length()
    return [1 << bits * (n - 1 - p) for p in range(n)]


def _keys(adj: list[list[int]], w: list[int], col: list[int]) -> list[int]:
    """Each node's neighbour key: the sum of its neighbours' label weights."""
    wcol = list(map(w.__getitem__, col))
    return [sum(map(wcol.__getitem__, ax)) for ax in adj]


def _refine(
    adj: list[list[int]],
    w: list[int],
    col: list[int],
    cells: dict[int, list[int]],
    key: list[int],
    starts: Collection[int],
) -> None:
    """Refine the ordered partition ``(col, cells)`` in place to the
    coarsest equitable partition below it.

    Each node's label is the start position of its cell, and ``cells`` maps
    each start to its members in node order.  ``key[x]`` counts the labels
    of ``x``'s neighbours, one digit per label (``_weights``), lowest label
    most significant.  Members of a cell have equal degree, and of two
    sorted label tuples of equal length the lexicographically smaller has
    more copies of the lowest label where they differ: so a larger key
    means a smaller sorted tuple, and equal keys mean equal tuples.

    Rounds are simultaneous: every cell in ``starts``, and in each later
    round every cell next to a node relabelled in the round before, is split
    by its members' keys, sub-cells in descending key order, all keys read
    before any label moves.  The first sub-cell keeps its start, so only
    members of later sub-cells are relabelled; once every split is read,
    each relabelled node moves its neighbours' keys by the difference of
    its two label weights.  A cell with no relabelled neighbour cannot
    split, so skipping it leaves each round, and the cell order, as a full
    recolouring would.  Start labels are ordered as cell ranks are, so the
    keys sort the same way.
    """
    while starts:
        splits = []
        for start in starts:
            members = cells[start]
            if len(members) == 1:
                continue
            if len(members) == 2:
                # the key order is the sub-cell order, with no grouping
                a, b = members
                ka, kb = key[a], key[b]
                if ka != kb:
                    pair = [[a], [b]] if ka > kb else [[b], [a]]
                    splits.append((start, pair))
                continue
            groups: dict[int, list[int]] = {}
            for x in members:
                k = key[x]
                group = groups.get(k)
                if group is None:
                    groups[k] = [x]
                else:
                    group.append(x)
            if len(groups) > 1:
                splits.append(
                    (start, [groups[k] for k in sorted(groups, reverse=True)])
                )
        moved: list[int] = []
        for start, subs in splits:
            pos = start
            for sub in subs:
                cells[pos] = sub
                if pos != start:
                    # the round's splits are all read, so keys may move
                    delta = w[pos] - w[start]
                    for x in sub:
                        col[x] = pos
                        for y in adj[x]:
                            key[y] += delta
                    moved += sub
                pos += len(sub)
        # the next round's cells, read only once every label has moved
        starts = {col[y] for x in moved for y in adj[x]}


class _CanonSearch:
    def __init__(self, h: Hypergraph):
        self.h = h
        nv = h.num_vertices
        m = h.num_edges
        self.nv = nv
        self.n = nv + m
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for ei, e in enumerate(h.edges):
            for v in e:
                adj[v].append(nv + ei)
                adj[nv + ei].append(v)
        self.adj = adj
        self.w = _weights(adj)
        self.edge_set_index: dict[int, list[int]] = {}
        for ei, m in enumerate(h.masks):
            self.edge_set_index.setdefault(m, []).append(ei)
        self.vchars = [vertex_to_chars(v) for v in range(nv)]
        self.best: str | None = None
        self.best_vpos: list[int] | None = None
        # the node at each position of the first leaf, and its
        # individualized path
        self.first: tuple[list[int], list[int]] | None = None
        self.autos: list[tuple[int, ...]] = []  # full node permutations
        self.auto_set: set[tuple[int, ...]] = set()

    def run(self) -> tuple[str, list[int]]:
        init = [(0, len(self.adj[v])) for v in range(self.nv)] + [
            (1, len(e)) for e in self.h.edges
        ]
        col, cells = _partition(init)
        key = _keys(self.adj, self.w, col)
        _refine(self.adj, self.w, col, cells, key, list(cells))
        self._search(col, cells, key, [])
        assert self.best is not None and self.best_vpos is not None
        return self.best, self.best_vpos

    def _leaf(self, col: list[int], fixed: list[int]) -> int | None:
        """Record a leaf; if an automorphism maps it onto the first leaf,
        store it and return the depth the search jumps back to.  Only a
        leaf with no such automorphism builds its certificate, which
        competes for the least one."""
        first = self.first
        perm = None if first is None else self._automorphism(first[0], col)
        if perm is None:
            # discrete: a node's label is its position, and vertex nodes
            # come first, so a vertex's label is its canonical id
            vpos = col[: self.nv]
            cert = self._certificate(vpos)
            if first is None:
                at = sorted(range(self.n), key=col.__getitem__)
                self.first = (at, fixed)
            if self.best is None or cert < self.best:
                self.best = cert
                self.best_vpos = vpos
            return None
        if perm not in self.auto_set:
            self.auto_set.add(perm)
            self.autos.append(perm)
        # the two paths split below their common prefix
        jump = 0
        for a, b in zip(first[1], fixed):
            if a != b:
                break
            jump += 1
        return jump

    def _certificate(self, vpos: list[int]) -> str:
        """The MMP line of the edges relabeled by ``vpos``, sorted."""
        chars = self.vchars
        relabeled = sorted(
            tuple(sorted([vpos[v] for v in e])) for e in self.h.edges
        )
        text = ",".join("".join([chars[v] for v in e]) for e in relabeled)
        return text + "."

    def _automorphism(
        self, at_a: list[int], pos_b: list[int]
    ) -> tuple[int, ...] | None:
        """Node permutation mapping leaf B's labeling onto leaf A's, or
        None when the two leaves' certificates differ.  ``at_a`` is leaf
        A's node at each position, inverted once per search since every
        leaf is tested against the first.

        The vertex part maps B's labels onto A's; the edge part is rebuilt
        by matching image vertex sets, each the sum of its vertices' image
        bits, so the permutation is a true automorphism of the incidence
        structure, and an edge whose image matches no unused edge means
        the certificates differ.  Among repeated edges the one at the same
        leaf position is preferred, so stored automorphisms can swap
        identical edges and prune their k! orderings.
        """
        nv = self.nv
        perm = list(map(at_a.__getitem__, pos_b))
        vbit = [1 << p for p in perm[:nv]]
        index = self.edge_set_index
        used: set[int] = set()
        for ei, e in enumerate(self.h.edges):
            cands = index.get(sum(map(vbit.__getitem__, e)), ())
            pick = perm[nv + ei] - nv
            if pick not in cands or pick in used:
                free = [c for c in cands if c not in used]
                if not free:
                    return None
                pick = free[0]
            used.add(pick)
            perm[nv + ei] = nv + pick
        return tuple(perm)

    def _search(
        self,
        col: list[int],
        cells: dict[int, list[int]],
        key: list[int],
        fixed: list[int],
    ) -> int | None:
        """Explore the subtree below the prefix ``fixed``; a member's orbit
        is merged under the stored automorphisms that fix it pointwise.

        A leaf that an automorphism maps onto the first leaf gives one that
        fixes the two paths' common prefix and maps the leaf's branch below
        it onto the first path's, already explored branch.  Every leaf left
        in the leaf's branch repeats an explored certificate, so the search
        backjumps: it returns the prefix length, and each node above
        passes it on until the node at that depth goes on with its next
        member.  ``None`` means no jump.
        """
        if len(cells) == self.n:
            return self._leaf(col, fixed)
        target = min(s for s, mem in cells.items() if len(mem) > 1)
        members = cells[target]
        # a node whose orbit holds an explored sibling roots a subtree that
        # only repeats explored leaves
        orbit = {x: [x] for x in members}
        merged = 0
        explored: list[int] = []
        for node in members:
            new = self.autos[merged:]
            merged = len(self.autos)
            fixing = [a for a in new if all(a[f] == f for f in fixed)]
            _merge_orbits(orbit, members, fixing)
            if any(orbit[e] is orbit[node] for e in explored):
                continue
            explored.append(node)
            col2, cells2, key2 = _individualize(
                self.adj, self.w, col, cells, key, node
            )
            jump = self._search(col2, cells2, key2, fixed + [node])
            if jump is not None and jump < len(fixed):
                return jump
        return None


def _individualize(
    adj: list[list[int]],
    w: list[int],
    col: list[int],
    cells: dict[int, list[int]],
    key: list[int],
    node: int,
) -> tuple[list[int], dict[int, list[int]], list[int]]:
    """A refined copy of an equitable partition, with its neighbour keys,
    with ``node`` put first in its cell.  Its moved cell-mates move their
    neighbours' keys from weight ``start`` to ``start + 1``, and the cells
    of those neighbours seed the refinement."""
    start = col[node]
    rest = [x for x in cells[start] if x != node]
    col2 = list(col)
    for x in rest:
        col2[x] = start + 1
    cells2 = dict(cells)
    cells2[start] = [node]
    cells2[start + 1] = rest
    key2 = list(key)
    delta = w[start + 1] - w[start]
    for x in rest:
        for y in adj[x]:
            key2[y] += delta
    starts = {col2[y] for x in rest for y in adj[x]}
    _refine(adj, w, col2, cells2, key2, starts)
    return col2, cells2, key2


def _merge_orbits(
    orbit: dict[int, list[int]],
    members: list[int],
    autos: list[tuple[int, ...]],
) -> None:
    """Join the orbits of a cell under further automorphisms; ``orbit`` maps
    each member to the list it shares with its orbit-mates.  Every
    automorphism fixing the prefix maps the cell onto itself."""
    for auto in autos:
        for x in members:
            a, b = orbit[x], orbit[auto[x]]
            if a is not b:
                if len(a) < len(b):
                    a, b = b, a
                a.extend(b)
                for y in b:
                    orbit[y] = a


def edge_orbits(h: Hypergraph) -> list[int]:
    """For each edge, the lowest edge index in its orbit under the
    automorphism group of ``h``.

    Every stored automorphism maps a leaf onto the first leaf, and they
    generate the whole group: each child of a first-path node is explored
    or pruned by a stored one, and a backjump from below it lands at that
    node or deeper, where the leaf's path leaves the first path.  So
    joining the edges each of them maps onto each other gives the orbits.
    """
    search = _CanonSearch(h)
    search.run()
    edges = list(range(h.num_vertices, search.n))
    orbit = {x: [x] for x in edges}
    _merge_orbits(orbit, edges, search.autos)
    return [min(orbit[x]) - h.num_vertices for x in edges]


def canonical_labeling(h: Hypergraph) -> tuple[CanonicalForm, list[int]]:
    """Canonical form plus the vertex relabeling (old id -> canonical id)
    that produces it."""
    cert, vpos = _CanonSearch(h).run()
    return CanonicalForm(cert), vpos


def canonical_form(h: Hypergraph) -> CanonicalForm:
    """Deterministic; invariant under vertex relabeling and edge-list
    permutation."""
    return canonical_labeling(h)[0]


def dedupe_isomorphic(hs: Iterable[Hypergraph]) -> Iterator[Hypergraph]:
    """Keep the first representative of each isomorphism class, in order of
    first appearance."""
    seen: set[str] = set()
    for h in hs:
        cert = canonical_form(h).text
        if cert not in seen:
            seen.add(cert)
            yield h
