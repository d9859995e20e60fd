"""Maximal-loop (n-gon) detection and polygon/free/span edge
classification.

A loop of size n is a cyclic sequence of n distinct edges in which
consecutive edges meet in a joint vertex, all n joints are distinct, and
non-consecutive edges of the loop share no vertex.  The last condition is
what lets the loop be drawn as a regular polygon with each edge on one
side; dropping it would let chords re-enter the cycle and inflate the
reported size far beyond the published n-gon numbers for known sets.

Both searches walk one depth-first enumeration of partial paths that finds
each loop once: the start edge is pinned to the smallest index on the loop,
and the direction to the one whose second edge is below its closing edge.
The induced condition prunes hard because every later edge must miss every
interior path edge.  Each node keeps that as one edge mask of candidates,
and both searches cut by its size alone.  The maximal-loop search is a
branch and bound: a path is dropped when its candidates, plus a closing
edge, cannot beat the best loop so far.  Ties never replace the best loop,
so the witness is the first maximal loop in DFS order, as without the cut.
The fixed-size enumeration cuts paths with too few candidates left to
complete a loop of n edges.

Tighter cuts cost more than they save here.  A bound on the candidates
reachable from the path's ends (a breadth-first search per node) and a
vertex-packing bound on how many edges of an induced path the candidates
can hold each cost more time than the branches they cut.  On the corpus
entries up to 36 edges ``longest`` visits 320,705 nodes with the count cut
alone against 186,407 with all three cuts, yet takes 0.33 s against
0.59 s, and ``exact`` at each entry's maximal size 0.58 s against 2.70 s
(CPU time, best of 5 on a 2-core VM).
"""

from __future__ import annotations

from dataclasses import dataclass

from .mmp import Hypergraph


@dataclass(frozen=True)
class Loop:
    """Cyclic witness: joints[i] lies in edges[i] and edges[(i+1) % n]."""

    edges: tuple[int, ...]
    joints: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    def validate(self, h: Hypergraph) -> None:
        n = len(self.edges)
        if n < 3:
            raise ValueError("loops have at least 3 edges")
        if len(self.joints) != n:
            raise ValueError("one joint per edge pair")
        if len(set(self.edges)) != n:
            raise ValueError("loop edges must be distinct")
        if len(set(self.joints)) != n:
            raise ValueError("loop joints must be distinct")
        sets = [frozenset(h.edges[ei]) for ei in self.edges]
        for i in range(n):
            a, b = sets[i], sets[(i + 1) % n]
            if self.joints[i] not in a or self.joints[i] not in b:
                raise ValueError(f"joint {self.joints[i]} not shared at {i}")
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue
                if sets[i] & sets[j]:
                    raise ValueError(
                        f"non-consecutive loop edges {i},{j} share a vertex"
                    )


@dataclass(frozen=True)
class EdgeClassification:
    """Partition of the edges relative to one loop."""

    polygon: frozenset[int]
    free: frozenset[int]
    span: frozenset[int]
    free_vertices: frozenset[int]


class _LoopSearch:
    def __init__(self, h: Hypergraph):
        self.h = h
        m = h.num_edges
        self.m = m
        self.shared = [
            [a & b if i != j else 0 for j, b in enumerate(h.masks)]
            for i, a in enumerate(h.masks)
        ]
        self.adj = [
            sum(1 << j for j in range(m) if j != i and self.shared[i][j])
            for i in range(m)
        ]
        self.hit = [a | 1 << i for i, a in enumerate(self.adj)]
        self.full = (1 << m) - 1

    def _walk(self, visit) -> None:
        """Depth-first over the induced paths that can still grow into a
        loop, each pinned to its smallest edge as the start and walked in
        the direction whose second edge is below its closing edge.

        A node's state is one edge mask, ``cand``: the unused edges after
        the start that meet no interior path edge (``hit[i]`` is the mask
        of the edges meeting edge i, i included).  Every later loop edge
        lies in it.  Once the path has two edges, extensions must also
        miss the start; ``inner`` is ``cand`` without those, and ``close``
        holds the edges of ``cand`` after the second one that meet the
        start: the closing edge lies in it, so a path with none is cut.
        ``visit(path, cand, inner, close)`` records closures and returns
        False to cut the branch; it runs before the extensions.
        """
        adj, hit = self.adj, self.hit

        def dfs(path, cand):
            last = path[-1]
            deep = len(path) > 1
            if deep:
                inner = cand & ~hit[path[0]]
                close = cand & hit[path[0]] & ~((2 << path[1]) - 1)
                if not close:
                    return
            else:
                inner = close = cand
            if not visit(path, cand, inner, close):
                return
            keep = cand & ~hit[last] if deep else cand
            x = adj[last] & inner
            while x:
                b = x & -x
                x ^= b
                path.append(b.bit_length() - 1)
                dfs(path, keep & ~b)
                path.pop()

        for s in range(self.m):
            dfs([s], self.full & ~((1 << (s + 1)) - 1))

    def longest(self) -> tuple[int, tuple[int, ...] | None]:
        """Largest loop and the first one of that size in DFS order.

        Branch and bound: later non-closing edges lie in ``inner``, so a
        branch whose ``inner`` plus the closing edge cannot beat ``best``
        is cut.  A cut branch could at best tie ``best``, and a tie never
        replaces the witness, so the witness is the unbounded search's.
        Closing before extending keeps it too: a closure at a node and a
        loop below that node differ in size, so they never tie.
        """
        best = 0
        witness: tuple[int, ...] | None = None
        adj = self.adj

        def visit(path, cand, inner, close):
            nonlocal best, witness
            k = len(path)
            last = path[-1]
            if k >= 2 and k + 1 > best:
                x = adj[last] & close
                while x:
                    b = x & -x
                    x ^= b
                    e = b.bit_length() - 1
                    if self._closable(path, e):
                        best = k + 1
                        witness = tuple(path) + (e,)
                        break
            # past the first edge the closing edge lies outside inner
            return k + (k > 1) + inner.bit_count() > best

        self._walk(visit)
        return best, witness

    def _closable(self, path, e) -> bool:
        """A distinct joint per corner must exist once the cycle closes.

        For cycles of length 4 or more this is automatic (the corner
        intersections live in pairwise disjoint non-consecutive edges);
        triangles need an explicit distinct-representative check.
        """
        if len(path) >= 3:
            return True
        return bool(self._joint_choices(tuple(path) + (e,)))

    def _joint_choices(self, cycle: tuple[int, ...]) -> list[tuple[int, ...]]:
        """All distinct-joint selections along a closed edge cycle."""
        k = len(cycle)
        options = []
        for i in range(k):
            s = self.shared[cycle[i]][cycle[(i + 1) % k]]
            opts = []
            while s:
                b = s & -s
                opts.append(b.bit_length() - 1)
                s ^= b
            options.append(opts)
        out: list[tuple[int, ...]] = []

        def pick(i, chosen):
            if i == k:
                out.append(tuple(chosen))
                return
            for j in options[i]:
                if j not in chosen:
                    chosen.append(j)
                    pick(i + 1, chosen)
                    chosen.pop()

        pick(0, [])
        return out

    def exact(self, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All loops of exactly n edges as (edges, joints) sequences, each
        edge cycle once, from its smallest edge in the direction whose
        second edge is below its closing edge, with every joint choice.
        A path is cut when ``cand`` holds too few edges to complete it; a
        cut path has no size-n loop below it."""
        found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        adj = self.adj

        def visit(path, cand, inner, close):
            k = len(path)
            if k + 1 < n:
                return k + cand.bit_count() >= n
            x = adj[path[-1]] & close
            while x:
                b = x & -x
                x ^= b
                cycle = tuple(path) + (b.bit_length() - 1,)
                for joints in self._joint_choices(cycle):
                    found.append((cycle, joints))
            return False

        self._walk(visit)
        return found


def biggest_loop(h: Hypergraph) -> tuple[int, Loop | None]:
    """Maximum loop size with a witness, or (0, None) when the
    edge-intersection structure carries no loop at all."""
    search = _LoopSearch(h)
    n, path = search.longest()
    if path is None:
        return 0, None
    choices = search._joint_choices(path)
    if not choices:
        raise AssertionError("witness path lost its joints")
    loop = Loop(path, choices[0])
    loop.validate(h)
    return n, loop


def loop_arrangements(h: Hypergraph, n: int) -> list[Loop]:
    """All size-n loops, each once up to rotation and reflection;
    distinct joint choices between the same edge pair count separately."""
    if n < 3:
        raise ValueError("loops have at least 3 edges")
    loops = [Loop(edges, joints) for edges, joints in _LoopSearch(h).exact(n)]
    for loop in loops:
        loop.validate(h)
    return loops


def classify_edges(h: Hypergraph, loop: Loop) -> EdgeClassification:
    """Polygon edges are the loop's; free edges contain a vertex off the
    loop; span edges are the rest."""
    loop.validate(h)
    polygon = frozenset(loop.edges)
    loop_vertices = frozenset(
        v for ei in loop.edges for v in h.edges[ei]
    )
    free_vertices = frozenset(range(h.num_vertices)) - loop_vertices
    free = frozenset(
        ei
        for ei in range(h.num_edges)
        if ei not in polygon and not free_vertices.isdisjoint(h.edges[ei])
    )
    span = frozenset(range(h.num_edges)) - polygon - free
    return EdgeClassification(polygon, free, span, free_vertices)


def format_annotated(h: Hypergraph, loop: Loop) -> str:
    """Text rendering with the polygon edges first; in the remaining edges
    every polygon vertex is marked '*' and every free vertex '.'."""
    from .mmp import vertex_to_chars

    cls = classify_edges(h, loop)
    parts = [
        "".join(vertex_to_chars(v) for v in h.edges[ei]) for ei in loop.edges
    ]
    rest = []
    for ei in range(h.num_edges):
        if ei in cls.polygon:
            continue
        rest.append(
            "".join(
                vertex_to_chars(v) + ("." if v in cls.free_vertices else "*")
                for v in h.edges[ei]
            )
        )
    return ",".join(parts) + ". " + " ".join(rest)
