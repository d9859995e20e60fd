from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ksets.mmp import parse_mmp, renormalize, serialize_mmp
from ksets.strip import (
    SamplerSeed,
    StripPlan,
    colex_combinations,
    colex_rank,
    colex_unrank,
    enumerate_subsets,
    rng_for,
    sample_subsets,
    strip_one_each,
)

H6 = parse_mmp("123,345,561,246,135,642.")


def test_colex_full_coverage():
    for n, k in ((5, 2), (7, 3), (8, 0), (8, 8), (6, 1)):
        combos = list(colex_combinations(n, k))
        assert len(combos) == comb(n, k)
        assert len(set(combos)) == comb(n, k)
        assert set(combos) == {
            tuple(sorted(c)) for c in combinations(range(n), k)
        }


def test_colex_rank_unrank_inverse():
    for i, c in enumerate(colex_combinations(9, 4)):
        assert colex_rank(c) == i
        assert colex_unrank(9, 4, i) == c


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.data(),
)
def test_colex_unrank_property(n, k, data):
    if k > n:
        with pytest.raises(ValueError):
            colex_unrank(n, k, 0)
        return
    rank = data.draw(st.integers(min_value=0, max_value=comb(n, k) - 1))
    combo = colex_unrank(n, k, rank)
    assert colex_rank(combo) == rank
    assert len(combo) == k and list(combo) == sorted(set(combo))


def test_windows_partition_enumeration():
    full = list(colex_combinations(8, 3))
    split = list(colex_combinations(8, 3, 0, 20)) + list(
        colex_combinations(8, 3, 20, None)
    )
    assert split == full
    with pytest.raises(ValueError):
        list(colex_combinations(8, 3, comb(8, 3) + 1, None))


def test_enumerate_subsets_complete():
    plan = StripPlan(k=2, renormalize_output=False)
    subs = list(enumerate_subsets(H6, plan))
    assert len(subs) == comb(6, 2)
    assert len({s.edges for s in subs}) == comb(6, 2)
    for s in subs:
        assert s.num_edges == 4


def test_enumerate_subsets_renormalizes():
    plan = StripPlan(k=5)
    for s in enumerate_subsets(H6, plan):
        assert s.num_vertices == len({v for e in s.edges for v in e})


def test_uniform_thinning_count():
    plan = StripPlan(k=2, increment=3.0)
    kept = list(enumerate_subsets(H6, plan))
    assert len(kept) == comb(6, 2) // 3


def test_randomized_thinning_deterministic():
    plan = StripPlan(
        k=2, increment=2.0, selection_mode="randomized", seed=SamplerSeed(5)
    )
    a = [s.edges for s in enumerate_subsets(H6, plan)]
    b = [s.edges for s in enumerate_subsets(H6, plan)]
    assert a == b


def test_connectivity_filter():
    h = parse_mmp("123,345,678.")
    plan = StripPlan(k=1, connectivity_filter=True)
    kept = list(enumerate_subsets(h, plan))
    # only removing the isolated third edge leaves a connected remainder
    assert len(kept) == 1 and kept[0].num_edges == 2


def test_plan_validation():
    with pytest.raises(ValueError):
        StripPlan(k=-1)
    with pytest.raises(ValueError):
        StripPlan(k=1, increment=0.5)
    # nan compares false against 1, and inf keeps no candidate
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            StripPlan(k=1, increment=bad)
    with pytest.raises(ValueError):
        StripPlan(k=1, selection_mode="magic")
    with pytest.raises(ValueError):
        StripPlan(k=1, start=5, end=2)
    with pytest.raises(ValueError):
        list(enumerate_subsets(H6, StripPlan(k=7)))


def test_strip_one_each_dedupes_exact():
    h = parse_mmp("123,123,345.")
    children = list(strip_one_each([h], StripPlan(k=1)))
    # removing either copy of the duplicate edge yields the same child
    keys = {serialize_mmp(renormalize(c)) for c in children}
    assert len(children) == len(keys) == 2


def test_strip_one_each_counts():
    children = list(strip_one_each([H6], StripPlan(k=1)))
    assert len(children) == 6


@pytest.mark.parametrize(
    "plan",
    [StripPlan(k=3), StripPlan(k=1, start=2), StripPlan(k=1, end=4)],
)
def test_strip_one_each_rejects_a_plan_it_cannot_honour(plan):
    with pytest.raises(ValueError, match="k=1 and no rank window"):
        list(strip_one_each([H6], plan))


def test_sample_subsets_deterministic():
    seed = SamplerSeed(123)
    a = [s.edges for s in sample_subsets(H6, 2, 10, seed)]
    b = [s.edges for s in sample_subsets(H6, 2, 10, seed)]
    assert a == b and len(a) == 10
    for s in sample_subsets(H6, 2, 5, seed):
        assert s.num_edges == 4


def test_rng_streams_independent():
    seed = SamplerSeed(1)
    r0 = rng_for(seed, 0).random()
    r0_again = rng_for(seed, 0).random()
    r1 = rng_for(seed, 1).random()
    assert r0 == r0_again
    assert r0 != r1


def test_entropy_seed_has_provenance():
    s = SamplerSeed.from_entropy()
    assert s.provenance == "entropy-derived"
    assert 0 <= s.seed < 2**64


def test_strip_one_each_renormalizes_each_child_once(monkeypatch):
    import ksets.strip

    calls = []

    def counting(h):
        calls.append(h)
        return renormalize(h)

    monkeypatch.setattr(ksets.strip, "renormalize", counting)
    children = list(strip_one_each([H6], StripPlan(k=1)))
    assert len(children) == len(calls) == 6


def test_strip_one_each_keeps_orphans_unless_renormalizing():
    h = parse_mmp("123,345,561.")
    plan = StripPlan(k=1, renormalize_output=False, connectivity_filter=True)
    raw = list(strip_one_each([h], plan))
    # the third child repeats the first once renormalized
    assert [c.num_vertices for c in raw] == [6, 6]
    assert raw[0].edges == h.edges[1:]
    norm = list(strip_one_each([h], StripPlan(k=1, connectivity_filter=True)))
    assert norm == [renormalize(c) for c in raw]
    assert [c.num_vertices for c in norm] == [5, 5]
