"""Edge-stripping: subset generation from a parent hypergraph.

Three modes cover the survey's needs: exhaustive enumeration of all
C(n, k) edge-removal subsets in a fixed colexicographic order (with
optional rank windows for splitting work), thinning by an increment
parameter that keeps every i-th candidate on average, and seeded uniform
random sampling with replacement.

Ranks and order are those of the removed index sets, but the enumeration
walks the kept edges: removal colex order is kept-set colex order
reversed, so it seeks a window by unranking a kept set and steps to each
colex predecessor, touching the n - k kept indices per child instead of
scanning all n.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import comb, isfinite
from typing import Iterable, Iterator

from .mmp import Hypergraph, is_connected, renormalize, serialize_mmp


# a run seed is a plain int; the name stays for callers that spell it
SamplerSeed = int


def rng_for(seed: int, stream: int = 0) -> random.Random:
    """Deterministic per-stream generator.

    Streams are derived by hashing (seed, stream index), so each consumer
    of one run seed (thinning, one-edge thinning, sampling) gets its own
    independent, reproducible randomness.
    """
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


SELECTION_MODES = ("uniform", "randomized")


@dataclass(frozen=True)
class StripPlan:
    """Parameters for one stripping pass.

    ``start``/``end`` are colex subset ranks (half-open window) against the
    enumeration order below.  ``increment`` >= 1 keeps one candidate in
    every ``increment`` on average: uniform mode by accumulator spacing,
    randomized mode by Bernoulli(1/increment) trials.
    ``connectivity_filter`` and ``renormalize_output`` apply to
    ``enumerate_subsets``; ``strip_one_each`` accepts only their defaults.
    """

    k: int
    start: int | None = None
    end: int | None = None
    increment: float = 1.0
    selection_mode: str = "uniform"  # "uniform" | "randomized"
    connectivity_filter: bool = False
    renormalize_output: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")
        # nan compares false against every bound, so test finiteness too
        if not (isfinite(self.increment) and self.increment >= 1):
            raise ValueError(
                f"increment must be a finite number >= 1, got {self.increment}"
            )
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection_mode!r}")
        for name, rank in (("start", self.start), ("end", self.end)):
            if rank is not None and rank < 0:
                raise ValueError(f"{name} must be non-negative, got {rank}")
        if (
            self.start is not None
            and self.end is not None
            and self.start > self.end
        ):
            raise ValueError("start must not exceed end")


def _window(total: int, start: int, end: int | None) -> tuple[int, int]:
    """The rank window [start, end) clipped to ``total`` subsets."""
    if end is None or end > total:
        end = total
    if start < 0 or start > total:
        raise ValueError(f"window start {start} outside 0..{total}")
    return start, end


def colex_combinations(
    n: int, k: int, start: int = 0, end: int | None = None
) -> Iterator[tuple[int, ...]]:
    """k-subsets of range(n) in colexicographic order, ranks [start, end).

    The rank of c_1 < ... < c_k is sum_i C(c_i, i); colex order makes rank
    windows cheap to seek, which is what distributed splitting keys on.
    """
    start, end = _window(comb(n, k), start, end)
    if start >= end:
        return
    combo = list(colex_unrank(n, k, start))
    for _ in range(end - start):
        yield tuple(combo)
        # successor: bump the lowest slot that has room before the next one
        i = 0
        while i < k:
            nxt = combo[i + 1] if i + 1 < k else n
            if combo[i] + 1 < nxt:
                combo[i] += 1
                for j in range(i):
                    combo[j] = j
                break
            i += 1


def _kept_edges(
    n: int, k: int, start: int, end: int | None
) -> Iterator[tuple[int, ...]]:
    """The kept indices, ascending, of each k-of-n removal in colex order,
    ranks [start, end).  Removal rank r keeps the set of kept colex rank
    C(n, k) - 1 - r, so the walk goes down the kept sets."""
    total = comb(n, k)
    start, end = _window(total, start, end)
    if start >= end:
        return
    m = n - k
    kept = list(colex_unrank(n, m, total - 1 - start))
    for _ in range(end - start):
        yield tuple(kept)
        # predecessor: lower the lowest slot above its minimum and pack
        # the slots below it right under it
        i = 0
        while i < m and kept[i] == i:
            i += 1
        if i < m:
            kept[i] -= 1
            for j in range(i):
                kept[j] = kept[i] - i + j


def colex_rank(combo: Iterable[int]) -> int:
    return sum(comb(c, i + 1) for i, c in enumerate(sorted(combo)))


def colex_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    if not 0 <= rank < comb(n, k):
        raise ValueError(f"rank {rank} outside 0..{comb(n, k) - 1}")
    combo = []
    for i in range(k, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= rank:
            c += 1
        combo.append(c)
        rank -= comb(c, i)
    return tuple(reversed(combo))


def _thin(
    items: Iterator, increment: float, mode: str, rng: random.Random
) -> Iterator:
    if increment == 1.0:
        yield from items
        return
    if mode == "uniform":
        acc = 0.0
        step = 1.0 / increment
        for item in items:
            acc += step
            if acc >= 1.0:
                acc -= 1.0
                yield item
    else:
        p = 1.0 / increment
        for item in items:
            if rng.random() < p:
                yield item


def _child(h: Hypergraph, kept: Iterable[int]) -> Hypergraph:
    """The child of ``h`` that keeps the edges at the ``kept`` indices."""
    kept = tuple(kept)
    return Hypergraph._from_checked(
        h.num_vertices,
        tuple(map(h.edges.__getitem__, kept)),
        tuple(map(h.masks.__getitem__, kept)),
    )


def enumerate_subsets(h: Hypergraph, plan: StripPlan) -> Iterator[Hypergraph]:
    """All k-edge-removal subsets of h in colex order of the removed
    indices, thinned and filtered per plan.

    The walk steps through the n - k kept edges, from each kept set to
    its colex predecessor, with the same order and rank windows.  Each
    child keeps its edges in parent order.
    """
    n = h.num_edges
    if plan.k > n:
        raise ValueError(f"cannot remove {plan.k} of {n} edges")
    rng = rng_for(plan.seed, stream=0)
    kept_sets = _kept_edges(n, plan.k, plan.start or 0, plan.end)
    for kept in _thin(kept_sets, plan.increment, plan.selection_mode, rng):
        child = _child(h, kept)
        if plan.connectivity_filter and not is_connected(child):
            continue
        yield renormalize(child) if plan.renormalize_output else child


def one_edge_children(
    hs: Iterable[Hypergraph], increment: float, mode: str, seed: int
) -> Iterator[tuple[int, int, Hypergraph]]:
    """Renormalized one-edge children of every input, thinned by
    ``increment`` in selection ``mode``, with exact duplicates removed
    within the batch, and their origins: (index of the parent in ``hs``,
    index of the edge it strips, child)."""
    rng = rng_for(seed, stream=1)
    seen: set[str] = set()
    for p, h in enumerate(hs):
        for i in _thin(iter(range(h.num_edges)), increment, mode, rng):
            norm = renormalize(h.without_edge(i))
            key = serialize_mmp(norm)
            if key not in seen:
                seen.add(key)
                yield p, i, norm


def strip_one_each(
    hs: Iterable[Hypergraph], plan: StripPlan
) -> Iterator[Hypergraph]:
    """One-edge children of every input, with exact duplicates removed
    within the batch.

    Each input with b edges yields up to b children (thinned per the plan's
    increment); children whose renormalized serializations coincide are
    emitted once, renormalized and unfiltered.  The plan must remove one
    edge (k=1) over no rank window, with both output flags at their
    defaults.
    """
    shape = (plan.k, plan.start, plan.end, plan.connectivity_filter)
    if shape != (1, None, None, False) or not plan.renormalize_output:
        raise ValueError(
            "strip_one_each needs k=1 and no rank window, and the output"
            " flags at their defaults"
        )
    for _, _, child in one_edge_children(
        hs, plan.increment, plan.selection_mode, plan.seed
    ):
        yield child


def sample_subsets(
    h: Hypergraph, k: int, count: int, seed: int = 0
) -> Iterator[Hypergraph]:
    """``count`` uniform random k-edge-removal subsets, with replacement
    across samples; a pure function of (h, k, count, seed)."""
    n = h.num_edges
    if k > n:
        raise ValueError(f"cannot remove {k} of {n} edges")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    rng = rng_for(seed, stream=2)
    for _ in range(count):
        drop = set(rng.sample(range(n), k))
        yield renormalize(_child(h, (i for i in range(n) if i not in drop)))
