from functools import lru_cache

import pytest

from ksets import build_600cell


@pytest.fixture(scope="session")
def cell600():
    return build_600cell()


@pytest.fixture(scope="session")
def h75(cell600):
    return cell600.hypergraph


@lru_cache(maxsize=None)
def _power(base: int, exp: int) -> int:
    return pow(base, exp)


def _exact_drops(j: int, n: int, c: int) -> bool:
    """Exact-integer form of the coupon MLE inequality, an oracle
    independent of ``ksets.stats``.  Powers are cached: the worked example
    (n = 545961) costs seconds per power and is checked in two modules."""
    return (j + 1) * _power(j, n) < (j + 1 - c) * _power(j + 1, n)


@pytest.fixture(scope="session")
def exact_drops():
    return _exact_drops
