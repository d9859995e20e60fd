"""The 600-cell: 60 rays, 75 orthogonal tetrads, and the induced 60-75
MMP hypergraph.

The 120 vertices of the 600-cell are the 8 unit-axis vectors, the 16
half-integer sign vectors, and the 96 even coordinate permutations of
(+-tau, +-1, +-kappa, 0)/2.  Antipodal identification leaves 60 rays, and
the maximal mutually-orthogonal 4-sets of rays form exactly 75 bases, each
ray lying in exactly 5 of them.  Everything is computed in exact golden
field arithmetic.  Every coordinate lies in Z[tau]/2, so orthogonality is
decided on doubled coordinates, as integer pairs (2a, 2b) in Z[tau]; no
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Mapping

from .golden import KAPPA, ONE, TAU, ZERO, GoldenNumber, Ray, inner_product
from .mmp import Hypergraph


class ConstructionError(RuntimeError):
    """The construction produced inconsistent counts or coordinates."""


@dataclass(frozen=True)
class RaySet600:
    rays: tuple[Ray, ...]            # 60, in canonical sort order
    bases: tuple[tuple[int, int, int, int], ...]  # 75, lexicographic
    hypergraph: Hypergraph           # the induced 60-75 MMP hypergraph


def _even_permutations() -> list[tuple[int, ...]]:
    out = []
    for p in permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]
        )
        if inversions % 2 == 0:
            out.append(p)
    return out


def _vertices_600cell() -> list[tuple[GoldenNumber, ...]]:
    half = Fraction(1, 2)
    verts: list[tuple[GoldenNumber, ...]] = []
    for axis in range(4):
        for s in (1, -1):
            v = [ZERO] * 4
            v[axis] = ONE.scale(s)
            verts.append(tuple(v))
    for signs in product((1, -1), repeat=4):
        verts.append(tuple(ONE.scale(Fraction(s, 2)) for s in signs))
    pattern = (TAU, ONE, KAPPA, ZERO)
    for perm in _even_permutations():
        for signs in product((1, -1), repeat=3):
            v = [ZERO] * 4
            si = 0
            for pos in range(4):
                comp = pattern[perm[pos]]
                if comp is ZERO:
                    continue
                v[pos] = comp.scale(signs[si] * half)
                si += 1
            verts.append(tuple(v))
    return verts


def _doubled(c: GoldenNumber) -> tuple[int, int]:
    """(2a, 2b) for a component a + b*tau, which must lie in Z[tau]/2."""
    a, b = 2 * c.a, 2 * c.b
    if a.denominator != 1 or b.denominator != 1:
        raise ConstructionError(f"component {c} is not in Z[tau]/2")
    return a.numerator, b.numerator


def _orthogonality(rays: list[Ray]) -> list[int]:
    """Bit j of entry i is set iff rays i and j are orthogonal.

    Decided on doubled coordinates in Z[tau]: (a + b t)(c + d t) =
    (ac + bd) + (ad + bc + bd) t since t^2 = t + 1, and a sum of such
    products is zero iff both integer parts are.
    """
    doubled = [[_doubled(c) for c in r.components] for r in rays]
    orth = [0] * len(rays)
    for i, u in enumerate(doubled):
        for j in range(i + 1, len(rays)):
            p = q = 0
            for (a, b), (c, d) in zip(u, doubled[j]):
                p += a * c + b * d
                q += a * d + b * c + b * d
            if p == 0 and q == 0:
                orth[i] |= 1 << j
                orth[j] |= 1 << i
    return orth


def build_600cell() -> RaySet600:
    """Construct the 60 rays and 75 orthogonal tetrads of the 600-cell."""
    verts = _vertices_600cell()
    if len(verts) != 120:
        raise ConstructionError(f"expected 120 vertices, got {len(verts)}")

    rays = sorted({Ray.of(*v) for v in verts}, key=Ray.sort_key)
    if len(rays) != 60:
        raise ConstructionError(f"expected 60 rays, got {len(rays)}")

    n = len(rays)
    orth = _orthogonality(rays)
    bases: list[tuple[int, int, int, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if not orth[i] >> j & 1:
                continue
            both = orth[i] & orth[j]
            for k in range(j + 1, n):
                if not both >> k & 1:
                    continue
                for l in range(k + 1, n):
                    if (both & orth[k]) >> l & 1:
                        bases.append((i, j, k, l))
    if len(bases) != 75:
        raise ConstructionError(f"expected 75 bases, got {len(bases)}")

    membership = [0] * n
    for b in bases:
        for v in b:
            membership[v] += 1
    if set(membership) != {5}:
        raise ConstructionError(
            f"per-ray basis membership not uniformly 5: {sorted(set(membership))}"
        )

    h = Hypergraph(n, tuple(bases))
    return RaySet600(tuple(rays), tuple(bases), h)


@dataclass(frozen=True)
class OrthogonalityViolation:
    edge: int
    u: int
    v: int
    value: GoldenNumber


def verify_assignment(
    h: Hypergraph, assignment: Mapping[int, Ray]
) -> list[OrthogonalityViolation]:
    """Report every within-edge vertex pair with nonzero inner product.

    An empty report means the assignment realizes every orthogonality the
    edges demand.
    """
    missing = [v for e in h.edges for v in e if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing vertices {sorted(set(missing))}")
    out = []
    for ei, e in enumerate(h.edges):
        for x in range(len(e)):
            for y in range(x + 1, len(e)):
                ip = inner_product(assignment[e[x]], assignment[e[y]])
                if not ip.is_zero():
                    out.append(OrthogonalityViolation(ei, e[x], e[y], ip))
    return out


def format_vectors(rays: Iterable[Ray]) -> str:
    """One line per ray, four 'a+b t' exact golden components separated by
    spaces."""
    return "".join(
        " ".join(str(c) for c in r.components) + "\n" for r in rays
    )


def parse_vectors(text: str) -> list[Ray]:
    rays = []
    for line in text.splitlines():
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"expected 4 components per line, got {line!r}")
        rays.append(Ray.of(*(GoldenNumber.parse(p) for p in parts)))
    return rays
