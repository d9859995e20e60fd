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
sub-cells by those keys.  Start labels order cells as their ranks would, and
a split relabels only the nodes that moved, so each round costs what its
splits touch while the partition, cell order included, is that of a full
recolouring of every node each round.  Individualizing a node puts it first
in its cell and refines from its moved cell-mates only.  A branch is pruned
when its node shares an orbit, under the automorphisms found so far that fix
the branch's prefix, with an explored sibling.  A leaf that repeats an
earlier leaf's certificate yields an automorphism mapping the rest of its
branch onto explored leaves, so the search backjumps to the node where the
two leaves' paths split and goes on with that node's next member.  Every
skipped leaf repeats an explored certificate, so the least certificate and
the first leaf that reaches it are unchanged.  Each leaf after the first is
tested for an automorphism onto the first leaf before its certificate is
built (after McKay & Piperno): one exists exactly when the two certificates
are equal, so a certificate string is built only for the first leaf and for
leaves that fail the test.

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
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .mmp import Hypergraph, parse_mmp, vertex_to_chars


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical MMP serialization; equality is isomorphism."""

    text: str

    def to_hypergraph(self) -> Hypergraph:
        return parse_mmp(self.text)


@dataclass(frozen=True)
class IsoMapping:
    """A witness isomorphism h1 -> h2."""

    vertex_map: dict[int, int]
    edge_map: dict[int, int]

    def verifies(self, h1: Hypergraph, h2: Hypergraph) -> bool:
        """Check the mapping by direct application, independent of how it
        was found."""
        if sorted(self.vertex_map) != list(range(h1.num_vertices)):
            return False
        if sorted(set(self.vertex_map.values())) != list(range(h2.num_vertices)):
            return False
        for ei, e in enumerate(h1.edges):
            target = self.edge_map.get(ei)
            if target is None:
                return False
            if {self.vertex_map[v] for v in e} != set(h2.edges[target]):
                return False
        return sorted(set(self.edge_map.values())) == list(range(h2.num_edges))


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


def _refine(
    adj: list[list[int]],
    col: list[int],
    cells: dict[int, list[int]],
    changed: Sequence[int],
) -> None:
    """Refine the ordered partition ``(col, cells)`` in place to the
    coarsest equitable partition below it.

    Each node's label is the start position of its cell, and ``cells`` maps
    each start to its members in node order.  Rounds are simultaneous: every
    cell next to a node relabelled in the previous round (``changed`` seeds
    the first) is split by its members' sorted neighbour labels, sub-cells
    in key order, all keys read before any label moves.  The first sub-cell
    keeps its start, so only members of later sub-cells are relabelled.  A
    cell with no relabelled neighbour cannot split, so skipping it leaves
    each round, and the cell order, as a full recolouring would.  Start
    labels are ordered as cell ranks are, so the keys sort the same way.
    """
    while changed:
        splits = []
        for start in {col[j] for i in changed for j in adj[i]}:
            members = cells[start]
            if len(members) == 1:
                continue
            if len(members) == 2:
                # the key order is the sub-cell order, with no grouping
                a, b = members
                ka = sorted(map(col.__getitem__, adj[a]))
                kb = sorted(map(col.__getitem__, adj[b]))
                if ka != kb:
                    pair = [[a], [b]] if ka < kb else [[b], [a]]
                    splits.append((start, pair))
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for x in members:
                key = tuple(sorted(map(col.__getitem__, adj[x])))
                group = groups.get(key)
                if group is None:
                    groups[key] = [x]
                else:
                    group.append(x)
            if len(groups) > 1:
                splits.append((start, [groups[k] for k in sorted(groups)]))
        changed = []
        for start, subs in splits:
            pos = start
            for sub in subs:
                cells[pos] = sub
                if pos != start:
                    for x in sub:
                        col[x] = pos
                    changed.extend(sub)
                pos += len(sub)


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
        self.edge_set_index: dict[int, list[int]] = {}
        for ei, m in enumerate(h.masks):
            self.edge_set_index.setdefault(m, []).append(ei)
        self.vchars = [vertex_to_chars(v) for v in range(nv)]
        self.best: str | None = None
        self.best_vpos: list[int] | None = None
        # (full node positions, individualized path) of the first leaf
        self.first: tuple[list[int], list[int]] | None = None
        # cert -> the first leaf that has it
        self.leaves: dict[str, tuple[list[int], list[int]]] = {}
        self.autos: list[tuple[int, ...]] = []  # full node permutations
        self.auto_set: set[tuple[int, ...]] = set()

    def run(self) -> tuple[str, list[int]]:
        init = [(0, len(self.adj[v])) for v in range(self.nv)] + [
            (1, len(e)) for e in self.h.edges
        ]
        col, cells = _partition(init)
        _refine(self.adj, col, cells, range(self.n))
        self._search(col, cells, [], [])
        assert self.best is not None and self.best_vpos is not None
        return self.best, self.best_vpos

    def _leaf(self, col: list[int], fixed: list[int]) -> int | None:
        """Record a leaf; if an earlier leaf has its certificate and yields
        an automorphism, return the depth the search jumps back to.

        A leaf is first tested against the first leaf: an automorphism
        between them means equal certificates, so none is built."""
        prev = self.first
        perm = None if prev is None else self._automorphism(prev[0], col)
        if perm is None:
            # discrete: a node's label is its position, and vertex nodes
            # come first, so a vertex's label is its canonical id
            vpos = col[: self.nv]
            cert = self._certificate(vpos)
            prev = self.leaves.get(cert)
            if prev is None:
                self.leaves[cert] = (col, fixed)
                if self.first is None:
                    self.first = (col, fixed)
                if self.best is None or cert < self.best:
                    self.best = cert
                    self.best_vpos = vpos
                return None
            perm = self._automorphism(prev[0], col)
            if perm is None:
                return None
        if perm not in self.auto_set:
            self.auto_set.add(perm)
            self.autos.append(perm)
        # the two paths split below their common prefix
        jump = 0
        for a, b in zip(prev[1], fixed):
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
        self, pos_a: list[int], pos_b: list[int]
    ) -> tuple[int, ...] | None:
        """Node permutation mapping leaf B's labeling onto leaf A's, or
        None when the two leaves' certificates differ.

        The vertex part maps B's labels onto A's; the edge part is rebuilt
        by matching image vertex sets so the permutation is a true
        automorphism of the incidence structure, and an edge whose image
        matches no unused edge means the certificates differ.  Among
        repeated edges the one at the same leaf position is preferred, so
        stored automorphisms can swap identical edges and prune their k!
        orderings.
        """
        n, nv = self.n, self.nv
        inv_a = [0] * n
        for node in range(n):
            inv_a[pos_a[node]] = node
        perm = [inv_a[pos_b[node]] for node in range(n)]
        used: set[int] = set()
        for ei, e in enumerate(self.h.edges):
            image = reduce(or_, (1 << perm[v] for v in e), 0)
            cands = [
                c for c in self.edge_set_index.get(image, ()) if c not in used
            ]
            if not cands:
                return None
            same = perm[nv + ei] - nv
            pick = same if same in cands else cands[0]
            used.add(pick)
            perm[nv + ei] = nv + pick
        return tuple(perm)

    def _search(
        self,
        col: list[int],
        cells: dict[int, list[int]],
        fixed: list[int],
        gens: list[tuple[int, ...]],
    ) -> int | None:
        """Explore the subtree below the prefix ``fixed``; ``gens``, a list
        this call extends, holds the stored automorphisms that fix it
        pointwise.

        A leaf whose certificate an earlier leaf has gives an automorphism
        that fixes the two paths' common prefix and maps the new leaf's
        branch below it onto the earlier, already explored branch.  Every
        leaf left in the new branch repeats an explored certificate, so the
        search backjumps: it returns the prefix length, and each node above
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
        checked = len(self.autos)
        explored: list[int] = []
        for node in members:
            gens += [
                auto
                for auto in self.autos[checked:]
                if all(auto[f] == f for f in fixed)
            ]
            checked = len(self.autos)
            _merge_orbits(orbit, members, gens[merged:])
            merged = len(gens)
            if any(orbit[e] is orbit[node] for e in explored):
                continue
            explored.append(node)
            col2, cells2 = _individualize(self.adj, col, cells, node)
            jump = self._search(
                col2,
                cells2,
                fixed + [node],
                [auto for auto in gens if auto[node] == node],
            )
            if jump is not None and jump < len(fixed):
                return jump
        return None


def _individualize(
    adj: list[list[int]],
    col: list[int],
    cells: dict[int, list[int]],
    node: int,
) -> tuple[list[int], dict[int, list[int]]]:
    """A refined copy of an equitable partition with ``node`` put first in
    its cell; only its moved cell-mates seed the refinement."""
    start = col[node]
    rest = [x for x in cells[start] if x != node]
    col2 = list(col)
    for x in rest:
        col2[x] = start + 1
    cells2 = dict(cells)
    cells2[start] = [node]
    cells2[start + 1] = rest
    _refine(adj, col2, cells2, rest)
    return col2, cells2


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

    The automorphisms the labeling search stores generate the whole group
    (each child of a first-path node is explored or pruned by a stored
    automorphism; a backjump from below such a node lands at it or deeper,
    since every earlier leaf lies below it), so joining the edges each of
    them maps onto each other gives the orbits.
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


def are_isomorphic(h1: Hypergraph, h2: Hypergraph) -> IsoMapping | None:
    """Return a verified isomorphism h1 -> h2, or None."""
    if (h1.num_vertices, h1.num_edges) != (h2.num_vertices, h2.num_edges):
        return None
    c1, pos1 = canonical_labeling(h1)
    c2, pos2 = canonical_labeling(h2)
    if c1 != c2:
        return None
    inv2 = {p: v for v, p in enumerate(pos2)}
    vertex_map = {v: inv2[pos1[v]] for v in range(h1.num_vertices)}
    masks2: dict[int, list[int]] = {}
    for ei, m in enumerate(h2.masks):
        masks2.setdefault(m, []).append(ei)
    edge_map: dict[int, int] = {}
    used: set[int] = set()
    for ei, e in enumerate(h1.edges):
        image = reduce(or_, (1 << vertex_map[v] for v in e), 0)
        cands = [c for c in masks2.get(image, ()) if c not in used]
        if not cands:
            return None
        edge_map[ei] = cands[0]
        used.add(cands[0])
    mapping = IsoMapping(vertex_map, edge_map)
    return mapping if mapping.verifies(h1, h2) else None


def dedupe_isomorphic(hs: Iterable[Hypergraph]) -> Iterator[Hypergraph]:
    """Keep the first representative of each isomorphism class, in order of
    first appearance."""
    seen: set[str] = set()
    for h in hs:
        cert = canonical_form(h).text
        if cert not in seen:
            seen.add(cert)
            yield h
