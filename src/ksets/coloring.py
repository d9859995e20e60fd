"""0/1 colorability of MMP hypergraphs: the KS property and criticality.

A coloring assigns 0 or 1 to every vertex so that each edge contains
exactly one vertex with value 1.  A hypergraph admitting no such coloring
is a KS set; a KS set that becomes colorable on removal of any single edge
is critical.

The solver is a backtracking search over vertex bitmasks with constraint
propagation: a 1 forces 0 on all co-edge vertices, an edge whose vertices
are all 0 but one forces the last to 1, and an edge with all vertices 0 is
a contradiction.  Verdicts are exhaustive, not sampled.

Before searching, the solver tries the GF(2) relaxation: a coloring puts
exactly one 1, an odd number, on each edge, so it also solves the linear
system "the XOR of each edge's vertex bits is 1".  Gaussian elimination
that reaches 0 = 1 proves the set KS without search: some odd number of
edges covers every vertex an even number of times, a parity proof on an
edge subset (Waegell and Aravind, J. Phys. A 44, 2011).  It proves almost
every KS subset of the 60-75 with 45 edges or more, but no even-edge
critical set.

When GF(2) fails, a call whose coloring nobody sees searches in proof
order: it branches on the edges of highest total vertex degree first, which
fails sooner (Haralick and Elliott, Artificial Intelligence 14, 1980) and
shrinks the search trees that prove a set KS.  ``is_ks`` returns only a
bool, and ``classify``'s removal solves only feed model rotation, so both
search in proof order.  ``is_colorable``, whose coloring is returned, and
the first solve of ``classify`` keep index order.

``classify`` tells colorable, KS and critical sets apart from the one-edge
removals first.  A KS removal makes the set KS and not critical after one
solve.  Criticality asks that the edges form a minimal unsatisfiable set
of constraints, and model rotation (Marques-Silva and Lynce, SAT 2011)
proves many edges necessary without solving their removals: a coloring
that fails only edge e, with one vertex of e flipped, often fails only one
other edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mmp import Hypergraph

# the kinds ``classify`` returns
COLORABLE, KS, CRITICAL = 0, 1, 2


@dataclass(frozen=True)
class Coloring:
    """A total 0/1 assignment; ``ones`` is the set of vertices valued 1."""

    ones: frozenset[int]

    def is_valid_for(self, h: Hypergraph) -> bool:
        """Check the exactly-one-per-edge predicate directly, independent of
        the solver."""
        return all(len(self.ones.intersection(e)) == 1 for e in h.edges)

    @staticmethod
    def from_mask(mask: int, num_vertices: int) -> "Coloring":
        return Coloring(
            frozenset(v for v in range(num_vertices) if (mask >> v) & 1)
        )


def _vertex_edges(
    edge_masks: tuple[int, ...], num_vertices: int
) -> list[list[int]]:
    """For each vertex, the indices of the edges on it."""
    vert_edges: list[list[int]] = [[] for _ in range(num_vertices)]
    for ei, m in enumerate(edge_masks):
        mm = m
        while mm:
            b = mm & -mm
            vert_edges[b.bit_length() - 1].append(ei)
            mm ^= b
    return vert_edges


def _parity_refutes(edge_masks: tuple[int, ...], num_vertices: int) -> bool:
    """True iff the edge equations "XOR of the edge's vertex bits = 1" have
    no solution over GF(2), which proves that no 0/1 coloring exists.

    An equation is its edge mask plus a constant bit above every vertex
    bit; it is reduced against a basis keyed by each row's lowest set bit.
    One that loses all its vertex bits reads 0 = 0 (redundant) or 0 = 1.
    """
    one = 1 << num_vertices
    vertex_bits = one - 1
    basis: dict[int, int] = {}
    for m in edge_masks:
        eq = m | one
        while eq & vertex_bits:
            low = eq & -eq
            row = basis.get(low)
            if row is None:
                basis[low] = eq
                break
            eq ^= row
        else:
            if eq:
                return True
    return False


def _solve(
    edge_masks: tuple[int, ...], num_vertices: int, *, proof: bool = False
) -> int | None:
    """Return a bitmask of 1-valued vertices, or None if non-colorable.

    A set whose GF(2) relaxation is infeasible returns None at once; every
    other set is searched, so the result never depends on the relaxation.

    The search branches on an edge with the fewest undetermined vertices,
    the first such edge in index order.  With ``proof`` it scans the edges
    in descending total vertex degree instead, ties to the lower index.
    The verdict is the same; only the coloring found may differ.
    """
    if _parity_refutes(edge_masks, num_vertices):
        return None
    vert_edges = _vertex_edges(edge_masks, num_vertices)
    scan = edge_masks
    if proof:
        weight = [0] * len(edge_masks)
        for edges in vert_edges:
            for ei in edges:
                weight[ei] += len(edges)
        order = sorted(
            range(len(edge_masks)), key=weight.__getitem__, reverse=True
        )
        scan = tuple(edge_masks[ei] for ei in order)

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
        for m in scan:
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
    return True, Coloring.from_mask(mask, h.num_vertices)


def is_ks(h: Hypergraph) -> bool:
    """True iff h admits no 0/1 coloring (h is a KS set)."""
    return _solve(h.masks, h.num_vertices, proof=True) is None


def is_critical(h: Hypergraph) -> bool:
    """True iff h is a KS set and every single-edge removal is colorable."""
    return classify(h) == CRITICAL


def classify(h: Hypergraph) -> int:
    """COLORABLE, KS for a KS set that is not critical, or CRITICAL.

    h - e0 is solved first: if it is KS, so is h, and h is not critical.  A
    coloring of h - e0 that gives e0 exactly one 1 colors h.  Otherwise h
    is solved itself, in proof order.  When h is KS, every coloring of a
    removal h - e fails e alone and proves e necessary, and rotating it
    proves more edges necessary; each edge not yet proven costs one solve
    of its removal, and the first KS removal ends the check.
    """
    masks, num_vertices = h.masks, h.num_vertices
    if not masks:
        return COLORABLE
    ones = _solve(masks[1:], num_vertices)
    if ones is None:
        return KS
    on_e0 = ones & masks[0]
    if on_e0 and not on_e0 & (on_e0 - 1):
        return COLORABLE
    if _solve(masks, num_vertices, proof=True) is not None:
        return COLORABLE
    vert_edges = _vertex_edges(masks, num_vertices)
    necessary: set[int] = set()
    for e in range(len(masks)):
        if e in necessary:
            continue
        if e:
            ones = _solve(masks[:e] + masks[e + 1 :], num_vertices, proof=True)
            if ones is None:
                return KS
        _rotate(masks, vert_edges, ones, e, necessary)
    return CRITICAL


def _rotate(
    masks: tuple[int, ...],
    vert_edges: list[list[int]],
    ones: int,
    e: int,
    necessary: set[int],
) -> list[tuple[int, int]]:
    """Recursive model rotation from ``ones``, a coloring that fails edge
    ``e`` alone.

    Flipping a vertex of ``e`` that leaves ``e`` exactly one 1 fails every
    other edge on that vertex, so a vertex on one other edge j gives a
    coloring that fails j alone: j is necessary, and the rotation goes on
    from there.  Adds ``e`` and each such j to ``necessary`` and returns
    the new (j, coloring mask) pairs.
    """
    necessary.add(e)
    found = []
    stack = [(e, ones)]
    while stack:
        e, ones = stack.pop()
        m = masks[e]
        on = m & ones
        rest = on & (on - 1)
        if not on:
            flips = m  # any vertex of e may take the 1
        elif rest and not rest & (rest - 1):
            flips = on  # either of its two 1s may drop to 0
        else:
            continue
        while flips:
            b = flips & -flips
            flips ^= b
            edges = vert_edges[b.bit_length() - 1]
            if len(edges) != 2:
                continue
            j = edges[1] if edges[0] == e else edges[0]
            if j not in necessary:
                necessary.add(j)
                stack.append((j, ones ^ b))
                found.append((j, ones ^ b))
    return found


def has_parity_proof(h: Hypergraph) -> bool:
    """Parity argument: every vertex of even degree and an odd number of
    edges.

    Each edge carries exactly one 1, so a coloring would have an odd number
    of 1s counted with multiplicity over edges; even vertex degrees force
    that count to be even.  When this holds, non-colorability follows
    without search.  It is the special case, with the odd edge subset all
    the edges, of the GF(2) relaxation that ``_solve`` tries first.
    """
    if h.num_edges % 2 == 0:
        return False
    return all(d % 2 == 0 for d in h.vertex_degrees())
