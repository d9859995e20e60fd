"""MMP hypergraph data model (each edge a vertex tuple plus the vertex
bitmask every search reads) and the bit-exact text encoding.

An MMP hypergraph is written as one ASCII line: each vertex is a single
printable character, each edge a string of such characters, edges separated
by commas, the line terminated by a full stop.  Vertices beyond the base
character list are written with '+' prefixes ('+1', '++1', ...), without
bound.

A well-formed MMP hypergraph satisfies
  (i)   every vertex belongs to at least one edge,
  (ii)  every edge contains at least 3 vertices,
  (iii) edges that intersect each other in n-2 vertices contain at least
        n vertices (read as: two edges sharing k vertices each have >= k+2
        vertices; see ``validate_mmp``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from collections.abc import Iterable, Iterator, Sequence

# Vertex characters in their fixed interchange order.  ',' '.' and '+' are
# syntax and never vertex characters; '0' is not used.
BASE_CHARS = (
    "123456789"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "!\"#$%&'()*-/:;<=>?@[\\]^_`{|}~"
)
_CHAR_INDEX = {c: i for i, c in enumerate(BASE_CHARS)}
_BASE = len(BASE_CHARS)  # 90


class MmpError(ValueError):
    """Malformed MMP text or an invalid hypergraph."""


def vertex_to_chars(index: int) -> str:
    """Encode a 0-based vertex index as its MMP character sequence."""
    if index < 0:
        raise ValueError(f"negative vertex index {index}")
    return "+" * (index // _BASE) + BASE_CHARS[index % _BASE]


def chars_to_vertex(token: str) -> int:
    """Decode one '+'-prefixed character group to a 0-based vertex index."""
    plus = 0
    while plus < len(token) and token[plus] == "+":
        plus += 1
    if plus != len(token) - 1:
        raise MmpError(f"bad vertex token {token!r}")
    ch = token[-1]
    if ch not in _CHAR_INDEX:
        raise MmpError(f"character {ch!r} is not a vertex character")
    return plus * _BASE + _CHAR_INDEX[ch]


# values of the parsers' ``lenient`` flag
STRICT, LENIENT = False, True


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph over dense 0-based vertex ids.

    ``edges`` preserves both edge order and the vertex order within each
    edge; ``masks`` holds one int per edge, bit v set iff vertex v is on
    it, built once here so that no search rebuilds vertex sets.  Edges
    given as any iterables are stored as a tuple of tuples.  A
    ``num_vertices`` that is not a non-negative int, an edge that is not
    iterable, or a vertex id that is not an int in ``range(num_vertices)``,
    raises ``MmpError``.

    ``_from_checked(num_vertices, edges, masks)`` builds one without these
    checks, for edges and masks taken from hypergraphs that passed them:
    ``edges`` must be a tuple of tuples of ints in ``range(num_vertices)``
    and ``masks`` their bitmasks in the same order.  Nothing checks this.
    """

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.num_vertices
        if not isinstance(n, int) or n < 0:
            raise MmpError(f"num_vertices must be an int >= 0, got {n!r}")
        try:
            edges = tuple(self.edges)
        except TypeError:
            msg = f"edges must be iterable, got {self.edges!r}"
            raise MmpError(msg) from None
        try:
            # tuple() hands a tuple edge back as is, so nothing is copied
            edges = tuple(map(tuple, edges))
        except TypeError:
            ei, e = next(
                (ei, e)
                for ei, e in enumerate(edges)
                if not isinstance(e, Iterable)
            )
            msg = f"edge {ei} is {e!r}, not a vertex sequence"
            raise MmpError(msg) from None
        object.__setattr__(self, "edges", edges)
        masks: list[int] | None = []
        try:
            for e in edges:
                m = 0
                for v in e:
                    m |= 1 << v
                masks.append(m)
        except (TypeError, ValueError):  # a non-int or negative vertex id
            masks = None
        if masks is None or reduce(or_, masks, 0) >> n:
            ei, v = next(
                (ei, v)
                for ei, e in enumerate(edges)
                for v in e
                if not isinstance(v, int) or not 0 <= v < n
            )
            if not isinstance(v, int):
                raise MmpError(f"edge {ei} has vertex {v!r}, not an int")
            raise MmpError(f"edge {ei} has vertex {v} outside 0..{n - 1}")
        object.__setattr__(self, "masks", tuple(masks))

    @classmethod
    def _from_checked(
        cls,
        num_vertices: int,
        edges: tuple[tuple[int, ...], ...],
        masks: tuple[int, ...],
    ) -> "Hypergraph":
        """An unchecked hypergraph; see the class docstring."""
        h = object.__new__(cls)
        vars(h).update(num_vertices=num_vertices, edges=edges, masks=masks)
        return h

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def signature(self) -> str:
        """The conventional 'vertices-edges' name, e.g. '60-75'."""
        return f"{self.num_vertices}-{self.num_edges}"

    def vertex_degrees(self) -> list[int]:
        deg = [0] * self.num_vertices
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def without_edge(self, index: int) -> "Hypergraph":
        """Remove one edge; vertex set unchanged (use renormalize to drop
        orphans).  An index outside ``range(num_edges)`` raises
        ``IndexError``."""
        edges, masks = self.edges, self.masks
        if not 0 <= index < len(edges):
            raise IndexError(
                f"edge index {index} outside 0..{len(edges) - 1} "
                f"of {len(edges)} edges"
            )
        return Hypergraph._from_checked(
            self.num_vertices,
            edges[:index] + edges[index + 1 :],
            masks[:index] + masks[index + 1 :],
        )


def parse_mmp(text: str, lenient: bool = STRICT) -> Hypergraph:
    """Parse one MMP line into a Hypergraph.

    With ``lenient``, empty edge tokens (doubled commas) are skipped and a
    missing final '.' is accepted; strict parsing rejects any deviation
    from the grammar.

    Distinct characters are mapped to dense vertex ids in character-sequence
    order, so gaps in the character usage are closed on input while a
    gap-free line round-trips byte-identically through serialize_mmp.
    """
    line = text.rstrip("\r\n")
    if not line:
        raise MmpError("empty MMP line")
    if " " in line:
        raise MmpError("MMP lines contain no spaces")
    if line.endswith("."):
        body = line[:-1]
    elif lenient:
        body = line
    else:
        raise MmpError("missing final '.'")
    if "." in body:
        raise MmpError("'.' before end of line")

    tokens = body.split(",")
    raw_edges: list[tuple[int, ...]] = []
    for pos, tok in enumerate(tokens):
        if not tok:
            if lenient:
                continue
            raise MmpError(f"empty edge token at position {pos}")
        edge = tuple(_split_vertices(tok))
        if len(set(edge)) != len(edge):
            raise MmpError(f"repeated vertex in edge {tok!r}")
        raw_edges.append(edge)
    if not raw_edges:
        raise MmpError("no edges")

    used = sorted({v for e in raw_edges for v in e})
    remap = {v: i for i, v in enumerate(used)}
    edges = tuple(tuple(remap[v] for v in e) for e in raw_edges)
    return Hypergraph(len(used), edges)


def _split_vertices(token: str) -> Iterator[int]:
    i = 0
    while i < len(token):
        j = i
        while j < len(token) and token[j] == "+":
            j += 1
        if j >= len(token):
            raise MmpError(f"dangling '+' in edge {token!r}")
        yield chars_to_vertex(token[i : j + 1])
        i = j + 1


def serialize_mmp(h: Hypergraph) -> str:
    """Serialize to the interchange line form; inverse of parse_mmp for
    gap-free inputs."""
    return ",".join(["".join(map(vertex_to_chars, e)) for e in h.edges]) + "."


def renormalize(h: Hypergraph) -> Hypergraph:
    """Rename vertices to 0..k-1 in first-appearance order and drop any
    vertex no longer on an edge.  Idempotent."""
    remap: dict[int, int] = {}
    edges = []
    masks = []
    for e in h.edges:
        edge = []
        m = 0
        for v in e:
            w = remap.setdefault(v, len(remap))
            edge.append(w)
            m |= 1 << w
        edges.append(tuple(edge))
        masks.append(m)
    return Hypergraph._from_checked(len(remap), tuple(edges), tuple(masks))


def is_connected(h: Hypergraph) -> bool:
    """True iff the edge-intersection graph has a single component.

    Edges are adjacent when they share at least one vertex.  Hypergraphs
    with zero or one edge count as connected.
    """
    return _connected(h.masks)


def _connected(masks: Sequence[int]) -> bool:
    """Mask flood from the first edge: OR in every edge that meets the
    reached vertex mask until a pass adds nothing."""
    reached = masks[0] if masks else 0
    rest = masks[1:]
    while rest:
        left = []
        for m in rest:
            if m & reached:
                reached |= m
            else:
                left.append(m)
        if len(left) == len(rest):
            return False
        rest = left
    return True


@dataclass(frozen=True)
class Violation:
    condition: str  # "i", "ii", "iii", "duplicate-edge", "repeated-vertex"
    message: str
    edges: tuple[int, ...] = ()


def validate_mmp(h: Hypergraph) -> list[Violation]:
    """Check MMP conditions (i)-(iii); the returned list is empty iff valid.

    Condition (iii) as printed is ambiguous about what n binds to; we use
    the reading that two edges sharing k common vertices must each contain
    at least k+2 vertices.  (The alternative reading -- n is the size of the
    larger edge -- flags strictly fewer pairs and would accept two identical
    tetrads, which are physically meaningless.)  Identical vertex sets are
    additionally reported as duplicate edges.
    """
    out: list[Violation] = []
    covered = 0
    for ei, (e, m) in enumerate(zip(h.edges, h.masks)):
        if m.bit_count() != len(e):
            out.append(
                Violation("repeated-vertex", f"edge {ei} repeats a vertex", (ei,))
            )
        covered |= m
        if len(e) < 3:
            out.append(
                Violation(
                    "ii", f"edge {ei} has {len(e)} vertices (minimum 3)", (ei,)
                )
            )
    for v in range(h.num_vertices):
        if not covered >> v & 1:
            out.append(Violation("i", f"vertex {v} belongs to no edge"))
    for i, mi in enumerate(h.masks):
        for j, mj in enumerate(h.masks[i + 1 :], i + 1):
            k = (mi & mj).bit_count()
            if k == 0:
                continue
            if mi == mj:
                out.append(
                    Violation(
                        "duplicate-edge",
                        f"edges {i} and {j} contain the same vertex set",
                        (i, j),
                    )
                )
                continue
            if min(mi.bit_count(), mj.bit_count()) < k + 2:
                out.append(
                    Violation(
                        "iii",
                        f"edges {i} and {j} share {k} vertices but one has "
                        f"fewer than {k + 2}",
                        (i, j),
                    )
                )
    return out


def read_mmp_file(
    path: str | os.PathLike, lenient: bool = STRICT
) -> list[Hypergraph]:
    """Parse and validate every non-blank line of an MMP file.

    The first line that does not parse, or parses to a hypergraph breaking
    an MMP condition, raises ``MmpError("<file>:<line>: <problem>")``.
    """
    # an undecodable byte becomes a lone surrogate, which parse_mmp rejects
    with open(path, errors="surrogateescape") as f:
        lines = f.read().splitlines()
    out = []
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            h = parse_mmp(line, lenient)
        except MmpError as exc:
            raise MmpError(f"{path}:{ln}: {exc}") from None
        violations = validate_mmp(h)
        if violations:
            raise MmpError(f"{path}:{ln}: {violations[0].message}")
        out.append(h)
    return out


def write_mmp_file(path: str | os.PathLike, hs: Iterable[Hypergraph]) -> int:
    """Stream one MMP line per hypergraph to ``path``; returns the count."""
    count = 0
    with open(path, "w") as f:
        for h in hs:
            f.write(serialize_mmp(h) + "\n")
            count += 1
    return count


def hypergraph_from_edges(
    edges: Sequence[Sequence[int]], num_vertices: int | None = None
) -> Hypergraph:
    """Build a Hypergraph from integer edge lists."""
    tedges = tuple(tuple(e) for e in edges)
    if num_vertices is None:
        num_vertices = max((v for e in tedges for v in e), default=-1) + 1
    return Hypergraph(num_vertices, tedges)
