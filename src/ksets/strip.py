"""Edge-stripping: subset generation from a parent hypergraph.

Three modes cover the survey's needs: exhaustive enumeration of all
C(n, k) edge-removal subsets in a fixed colexicographic order (with
optional rank windows for splitting work), thinning by an increment
parameter that keeps every i-th candidate on average, and seeded uniform
random sampling with replacement.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from math import comb, isfinite
from typing import Iterable, Iterator

from .mmp import Hypergraph, is_connected, renormalize, serialize_mmp


@dataclass(frozen=True)
class SamplerSeed:
    """A 64-bit seed; identical seeds produce identical sample streams."""

    seed: int
    provenance: str = "user-supplied"

    @staticmethod
    def from_entropy() -> "SamplerSeed":
        material = f"{time.time_ns()}:{os.getpid()}:{time.process_time_ns()}"
        digest = hashlib.sha256(material.encode()).digest()
        return SamplerSeed(
            int.from_bytes(digest[:8], "big"), provenance="entropy-derived"
        )


def rng_for(seed: SamplerSeed, stream: int = 0) -> random.Random:
    """Deterministic per-stream generator.

    Streams are derived by hashing (seed, stream index) so parallel workers
    get independent, reproducible randomness from one run seed.
    """
    digest = hashlib.sha256(f"{seed.seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


SELECTION_MODES = ("uniform", "randomized")


@dataclass(frozen=True)
class StripPlan:
    """Parameters for one stripping pass.

    ``start``/``end`` are colex subset ranks (half-open window) against the
    enumeration order below.  ``increment`` >= 1 keeps one candidate in
    every ``increment`` on average: uniform mode by accumulator spacing,
    randomized mode by Bernoulli(1/increment) trials.
    """

    k: int
    start: int | None = None
    end: int | None = None
    increment: float = 1.0
    selection_mode: str = "uniform"  # "uniform" | "randomized"
    connectivity_filter: bool = False
    renormalize_output: bool = True
    seed: SamplerSeed = field(default_factory=lambda: SamplerSeed(0))

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
        if (
            self.start is not None
            and self.end is not None
            and self.start > self.end
        ):
            raise ValueError("start must not exceed end")


def colex_combinations(
    n: int, k: int, start: int = 0, end: int | None = None
) -> Iterator[tuple[int, ...]]:
    """k-subsets of range(n) in colexicographic order, ranks [start, end).

    The rank of c_1 < ... < c_k is sum_i C(c_i, i); colex order makes rank
    windows cheap to seek, which is what distributed splitting keys on.
    """
    total = comb(n, k)
    if end is None or end > total:
        end = total
    if start < 0 or start > total:
        raise ValueError(f"window start {start} outside 0..{total}")
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


def _without(h: Hypergraph, removed: Iterable[int]) -> Hypergraph:
    """The child of ``h`` with the edges at the ``removed`` indices gone."""
    drop = set(removed)
    return Hypergraph(
        h.num_vertices, tuple(e for i, e in enumerate(h.edges) if i not in drop)
    )


def enumerate_subsets(h: Hypergraph, plan: StripPlan) -> Iterator[Hypergraph]:
    """All k-edge-removal subsets of h in colex order, thinned and filtered
    per plan."""
    n = h.num_edges
    if plan.k > n:
        raise ValueError(f"cannot remove {plan.k} of {n} edges")
    rng = rng_for(plan.seed, stream=0)
    combos = colex_combinations(
        n, plan.k, plan.start or 0, plan.end
    )
    for removed in _thin(combos, plan.increment, plan.selection_mode, rng):
        child = _without(h, removed)
        if plan.connectivity_filter and not is_connected(child):
            continue
        yield renormalize(child) if plan.renormalize_output else child


def strip_one_each(
    hs: Iterable[Hypergraph], plan: StripPlan
) -> Iterator[Hypergraph]:
    """One-edge children of every input, with exact duplicates removed
    within the batch.

    Each input with b edges yields up to b children (thinned per the plan's
    increment); children whose renormalized serializations coincide are
    emitted once.  The plan must remove one edge (k=1) over no rank window.
    """
    if plan.k != 1 or plan.start is not None or plan.end is not None:
        raise ValueError("strip_one_each needs k=1 and no rank window")
    rng = rng_for(plan.seed, stream=1)
    seen: set[str] = set()
    for h in hs:
        indices = _thin(
            iter(range(h.num_edges)), plan.increment, plan.selection_mode, rng
        )
        for i in indices:
            child = h.without_edge(i)
            norm = renormalize(child)
            key = serialize_mmp(norm)
            if key in seen:
                continue
            seen.add(key)
            if plan.connectivity_filter and not is_connected(norm):
                continue
            yield norm if plan.renormalize_output else child


def sample_subsets(
    h: Hypergraph, k: int, count: int, seed: SamplerSeed
) -> Iterator[Hypergraph]:
    """``count`` uniform random k-edge-removal subsets, with replacement
    across samples; a pure function of (h, k, count, seed)."""
    n = h.num_edges
    if k > n:
        raise ValueError(f"cannot remove {k} of {n} edges")
    rng = rng_for(seed, stream=2)
    for _ in range(count):
        yield renormalize(_without(h, rng.sample(range(n), k)))
