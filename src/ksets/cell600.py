"""The 600-cell: 60 rays, 75 orthogonal tetrads, and the induced 60-75
MMP hypergraph.

The 120 vertices of the 600-cell are the 8 unit-axis vectors, the 16
half-integer sign vectors, and the 96 even coordinate permutations of
(+-tau, +-1, +-kappa, 0)/2, where tau = (1 + sqrt5)/2 and kappa = 1/tau =
tau - 1.  Antipodal identification leaves 60 rays, and the maximal
mutually-orthogonal 4-sets of rays form exactly 75 bases, each ray lying in
exactly 5 of them.  Every coordinate lies in Z[tau]/2, so each is stored
from the start as the integer pair (p, q) of (p + q*tau)/2, and all
arithmetic is exact integer arithmetic in Z[tau]; no floating point is used
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Mapping

from .mmp import Hypergraph

Pair = tuple[int, int]  # (p, q) standing for (p + q*tau)/2
Ray = tuple[Pair, Pair, Pair, Pair]  # first nonzero component positive


class ConstructionError(RuntimeError):
    """The construction produced inconsistent counts."""


@dataclass(frozen=True)
class RaySet600:
    rays: tuple[Ray, ...]            # 60, in canonical sort order
    bases: tuple[tuple[int, int, int, int], ...]  # 75, lexicographic
    hypergraph: Hypergraph           # the induced 60-75 MMP hypergraph


def _sign(p: int, q: int) -> int:
    """Exact sign of (p + q*tau)/2, that is of (2p + q) + q*sqrt5."""
    x = 2 * p + q
    if x >= 0 and q >= 0:
        return 1 if x or q else 0
    if x <= 0 and q <= 0:
        return -1
    # opposite signs, and x*x == 5*q*q only at zero: the larger term wins
    return (1 if x > 0 else -1) if x * x > 5 * q * q else (1 if q > 0 else -1)


def _ray(v: Ray) -> Ray:
    """The representative of the ray through v: v or -v, whichever has a
    positive first nonzero component, so antipodes collapse to one ray."""
    if len(v) != 4:
        raise ValueError("rays are 4-dimensional")
    for p, q in v:
        sign = _sign(p, q)
        if sign:
            return v if sign > 0 else tuple((-a, -b) for a, b in v)
    raise ValueError("zero vector is not a ray")


def inner_product(u: Ray, v: Ray) -> Pair:
    """(P, Q) with P + Q*tau four times the real inner product; (0, 0) iff
    the rays are orthogonal.

    (a + b t)(c + d t) = (ac + bd) + (ad + bc + bd) t since t^2 = t + 1.
    """
    p = q = 0
    for (a, b), (c, d) in zip(u, v):
        p += a * c + b * d
        q += a * d + b * c + b * d
    return p, q


def _even_permutations() -> list[tuple[int, ...]]:
    out = []
    for p in permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]
        )
        if inversions % 2 == 0:
            out.append(p)
    return out


def _vertices_600cell() -> list[Ray]:
    zero = (0, 0)
    verts: list[Ray] = []
    for axis in range(4):
        for s in (2, -2):
            v = [zero] * 4
            v[axis] = (s, 0)
            verts.append(tuple(v))
    for signs in product((1, -1), repeat=4):
        verts.append(tuple((s, 0) for s in signs))
    pattern = ((0, 1), (1, 0), (-1, 1), zero)  # tau/2, 1/2, kappa/2, 0
    for perm in _even_permutations():
        for signs in product((1, -1), repeat=3):
            v = [zero] * 4
            si = 0
            for pos in range(4):
                p, q = pattern[perm[pos]]
                if (p, q) == zero:
                    continue
                v[pos] = (signs[si] * p, signs[si] * q)
                si += 1
            verts.append(tuple(v))
    return verts


def _orthogonality(rays: list[Ray]) -> list[int]:
    """Bit j of entry i is set iff rays i and j are orthogonal."""
    orth = [0] * len(rays)
    for i, u in enumerate(rays):
        for j in range(i + 1, len(rays)):
            if inner_product(u, rays[j]) == (0, 0):
                orth[i] |= 1 << j
                orth[j] |= 1 << i
    return orth


def build_600cell() -> RaySet600:
    """Construct the 60 rays and 75 orthogonal tetrads of the 600-cell."""
    verts = _vertices_600cell()
    if len(verts) != 120:
        raise ConstructionError(f"expected 120 vertices, got {len(verts)}")

    rays = sorted({_ray(v) for v in verts})
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
    value: Pair  # inner_product of the two rays, nonzero


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
                if ip != (0, 0):
                    out.append(OrthogonalityViolation(ei, e[x], e[y], ip))
    return out


def _half(n: int) -> str:
    return str(n // 2) if n % 2 == 0 else f"{n}/2"


def format_vectors(rays: Iterable[Ray]) -> str:
    """One line per ray, four exact components 'a+bt' standing for a + b*tau
    separated by spaces, with a and b written as integers or halves."""
    return "".join(
        " ".join(f"{_half(p)}+{_half(q)}t" for p, q in r) + "\n" for r in rays
    )
