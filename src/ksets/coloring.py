"""0/1 colorability of MMP hypergraphs: the KS property and criticality.

A coloring assigns 0 or 1 to every vertex so that each edge contains
exactly one vertex with value 1.  A hypergraph admitting no such coloring
is a KS set; a KS set that becomes colorable on removal of any single edge
is critical.

The solver is a backtracking search over vertex bitmasks with constraint
propagation: a 1 forces 0 on all co-edge vertices, an edge whose vertices
are all 0 but one forces the last to 1, and an edge with all vertices 0 is
a contradiction.  Verdicts are exhaustive, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mmp import Hypergraph


@dataclass(frozen=True)
class Coloring:
    """A total 0/1 assignment; ``ones`` is the set of vertices valued 1."""

    ones: frozenset[int]

    def is_valid_for(self, h: Hypergraph) -> bool:
        """Check the exactly-one-per-edge predicate directly, independent of
        the solver."""
        return all(len(self.ones.intersection(e)) == 1 for e in h.edges)


@dataclass(frozen=True)
class KsVerdict:
    colorable: bool
    witness: Coloring | None
    critical: bool | None  # defined only for non-colorable inputs
    parity: bool


def _solve(edge_masks: tuple[int, ...], num_vertices: int) -> int | None:
    """Return a bitmask of 1-valued vertices, or None if non-colorable."""
    vert_edges: list[list[int]] = [[] for _ in range(num_vertices)]
    for ei, m in enumerate(edge_masks):
        mm = m
        while mm:
            b = mm & -mm
            vert_edges[b.bit_length() - 1].append(ei)
            mm ^= b

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


def is_colorable(h: Hypergraph) -> tuple[bool, Coloring | None]:
    """Decide 0/1 colorability; on success the witness verifies
    independently."""
    mask = _solve(h.masks, h.num_vertices)
    if mask is None:
        return False, None
    ones = frozenset(v for v in range(h.num_vertices) if (mask >> v) & 1)
    return True, Coloring(ones)


def is_ks(h: Hypergraph) -> bool:
    """True iff h admits no 0/1 coloring (h is a KS set)."""
    return _solve(h.masks, h.num_vertices) is None


def is_critical(h: Hypergraph) -> bool:
    """True iff h is a KS set and every single-edge removal is colorable."""
    return _solve(h.masks, h.num_vertices) is None and _removals_colorable(
        h.masks, h.num_vertices
    )


def _removals_colorable(masks: tuple[int, ...], num_vertices: int) -> bool:
    return all(
        _solve(masks[:i] + masks[i + 1 :], num_vertices) is not None
        for i in range(len(masks))
    )


def has_parity_proof(h: Hypergraph) -> bool:
    """Parity argument: every vertex of even degree and an odd number of
    edges.

    Each edge carries exactly one 1, so a coloring would have an odd number
    of 1s counted with multiplicity over edges; even vertex degrees force
    that count to be even.  When this holds, non-colorability follows
    without search.
    """
    if h.num_edges % 2 == 0:
        return False
    return all(d % 2 == 0 for d in h.vertex_degrees())


def verdict(h: Hypergraph) -> KsVerdict:
    colorable, witness = is_colorable(h)
    critical = (
        None if colorable else _removals_colorable(h.masks, h.num_vertices)
    )
    return KsVerdict(colorable, witness, critical, has_parity_proof(h))
