import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, inf, nan
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

import ksets
from ksets.stats import (
    DEFAULT_DIGITS,
    ConvergenceError,
    PrecisionError,
    confidence_bounds,
    coupon_mle,
    reg_inc_beta,
    reg_inc_beta_inv,
)
from ksets.survey import StageResult


def test_coupon_worked_example_with_exact_oracle(exact_drops):
    est = coupon_mle(545961, 516604, digits=35)
    assert est.classes == 4893025
    assert not est.unbounded
    # smallest j: the inequality flips exactly at the estimate
    assert exact_drops(est.classes, 545961, 516604)
    assert not exact_drops(est.classes - 1, 545961, 516604)


def test_mpmath_is_loaded_by_the_estimators_only():
    code = (
        "import sys, ksets\n"
        "ksets.build_600cell()\n"
        "assert 'mpmath' not in sys.modules, 'loaded at import'\n"
        "print(ksets.coupon_mle(545961, 516604, digits=35))\n"
        "assert 'mpmath' in sys.modules, 'not loaded by coupon_mle'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ksets.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "4893025\n"


def test_coupon_trivial_cases():
    assert coupon_mle(2, 1).classes == 1
    assert coupon_mle(1, 1).unbounded
    assert coupon_mle(10, 10).unbounded
    assert "unbounded" in str(coupon_mle(1, 1))
    assert str(coupon_mle(2, 1)) == "1"


def test_coupon_validation():
    with pytest.raises(ValueError):
        coupon_mle(5, 6)
    with pytest.raises(ValueError):
        coupon_mle(5, 0)
    with pytest.raises(PrecisionError):
        coupon_mle(10, 5, digits=20)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=2000), st.data())
def test_coupon_matches_exact_oracle(exact_drops, n, data):
    c = data.draw(st.integers(min_value=1, max_value=n - 1))
    est = coupon_mle(n, c)
    j = est.classes
    assert j is not None and j >= c
    assert exact_drops(j, n, c)
    if j > c:
        assert not exact_drops(j - 1, n, c)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=500), st.data())
def test_coupon_monotone_in_distinct(n, data):
    c = data.draw(st.integers(min_value=1, max_value=n - 2))
    a = coupon_mle(n, c).classes
    b = coupon_mle(n, c + 1).classes
    assert b is None or (a is not None and b >= a)


def test_beta_inverse_worked_example():
    x = reg_inc_beta_inv(0.975, 581, 52799421)
    assert abs(x / mp.mpf("1.19163e-5") - 1) < 1e-4


def test_beta_inverse_closed_forms():
    with mp.workdps(60):
        for p in (mp.mpf("0.025"), mp.mpf("0.5"), mp.mpf("0.975")):
            for b in (1, 3, 11):
                want = 1 - (1 - p) ** (mp.mpf(1) / b)
                got = reg_inc_beta_inv(p, 1, b, digits=60)
                assert abs(got - want) < mp.mpf(10) ** -50
            for a in (1, 2, 7):
                want = p ** (mp.mpf(1) / a)
                got = reg_inc_beta_inv(p, a, 1, digits=60)
                assert abs(got - want) < mp.mpf(10) ** -50


def test_beta_inverse_returns_an_exact_root(monkeypatch):
    # a Newton step that lands exactly on the root must end the search,
    # not restart it by bisection from the far end of the bracket
    import ksets.stats as stats

    calls = []

    def counting(*args):
        calls.append(args)
        return reg_inc_beta(*args)

    monkeypatch.setattr(stats, "reg_inc_beta", counting)
    for a, b in ((1, 90), (3, 199), (5001, 52795001)):
        calls.clear()
        reg_inc_beta_inv(0.975, a, b)
        assert len(calls) <= 15, (a, b)
    with mp.workdps(DEFAULT_DIGITS):
        want = 1 - (1 - mp.mpf(0.975)) ** (mp.mpf(1) / 90)
        assert abs(reg_inc_beta_inv(0.975, 1, 90) - want) < mp.mpf(10) ** -90


def test_beta_inverse_that_cannot_converge_raises(monkeypatch):
    import ksets.stats as stats

    # an I_x that never comes down to p leaves no root in the bracket
    monkeypatch.setattr(stats, "reg_inc_beta", lambda *args: mp.mpf(1))
    with pytest.raises(ConvergenceError):
        reg_inc_beta_inv(0.5, 2, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.5, max_value=50),
    st.floats(min_value=0.5, max_value=50),
)
def test_beta_inverse_round_trip(p, a, b):
    x = reg_inc_beta_inv(p, a, b, digits=50)
    assert abs(reg_inc_beta(x, a, b, digits=50) - p) < mp.mpf(10) ** -35


def test_beta_inverse_reaches_tiny_roots_for_small_a():
    # for a < 1 and a small p the root sits near (p*a*B(a, b))^(1/a),
    # 10^-393 and 10^-134 for the first two cases: bisection from the
    # bracket [0, 1] cannot get there within its iteration cap
    rng = random.Random(7)
    cases = [(0.000114, 0.01, 0.326), (2.1e-09, 0.0657, 26.7)]
    for _ in range(40):
        p = 10 ** -rng.uniform(1, 300)
        cases.append((p, rng.uniform(0.01, 1), 10 ** rng.uniform(-2, 8)))
    with mp.workdps(35):
        for p, a, b in cases:
            x = reg_inc_beta_inv(p, a, b, digits=35)
            err = abs(reg_inc_beta(x, a, b, digits=35) - p)
            assert err <= p * mp.mpf(10) ** -30, (p, a, b)


def test_beta_inverse_refuses_a_root_it_cannot_hold():
    # the root is 1 - 1.7e-134, which 35 digits round to 1; the converged
    # Newton step used to land past the bracket, at x > 1
    with mp.workdps(35):
        p = 1 - mp.mpf("1e-20")
        with pytest.raises(ConvergenceError):
            reg_inc_beta_inv(p, 0.53, 0.149, digits=35)


def test_beta_inverse_roots_lie_inside_the_unit_interval():
    rng = random.Random(11)
    with mp.workdps(35):
        for _ in range(120):
            tiny = mp.mpf(10) ** -rng.uniform(1, 300)
            near_one = 1 - mp.mpf(10) ** -rng.uniform(1, 30)
            p = rng.choice((tiny, near_one, mp.mpf(rng.random())))
            a, b = rng.uniform(0.01, 1), 10 ** rng.uniform(-2, 8)
            try:
                x = reg_inc_beta_inv(p, a, b, digits=35)
            except ConvergenceError:
                continue
            assert 0 < x < 1, (p, a, b, x)


def test_beta_edge_values_and_validation():
    assert reg_inc_beta(0, 2, 3) == 0
    assert reg_inc_beta(1, 2, 3) == 1
    with pytest.raises(ValueError):
        reg_inc_beta_inv(0, 2, 3)
    with pytest.raises(ValueError):
        reg_inc_beta_inv(0.5, -1, 3)
    with pytest.raises(PrecisionError):
        reg_inc_beta_inv(0.5, 2, 3, digits=10)


def test_beta_refuses_invalid_shapes_and_x():
    # a negative shape used to give 1, and a NaN ran the continued
    # fraction to its step cap
    for a, b in ((-1, 3), (0, 3), (2, 0), (inf, 3), (2, inf), (nan, 3)):
        with pytest.raises(ValueError, match="shape parameters must be"):
            reg_inc_beta(0.5, a, b)
        with pytest.raises(ValueError, match="shape parameters must be"):
            reg_inc_beta_inv(0.5, a, b)
    with pytest.raises(ValueError, match="x must be a number"):
        reg_inc_beta(nan, 2, 3)
    assert reg_inc_beta(-inf, 2, 3) == 0
    assert reg_inc_beta(inf, 2, 3) == 1


@lru_cache(maxsize=None)
def _binomial_tail(x: Fraction, a: int, b: int) -> Fraction:
    """I_x(a, b) for integer shapes: P(Binomial(a+b-1, x) >= a), exactly."""
    n = a + b - 1
    return sum(
        comb(n, j) * x**j * (1 - x) ** (n - j) for j in range(a, n + 1)
    )


@pytest.mark.parametrize("digits", [35, 40, 60, 100])
def test_reg_inc_beta_matches_exact_binomial_tail(digits):
    shapes = [(1, 1), (2, 3), (7, 1), (1, 13), (10, 10), (40, 3), (3, 40),
              (150, 250), (199, 200), (300, 100)]
    # dyadic x, so the float handed to reg_inc_beta is exactly x
    xs = [Fraction(1, 1024), Fraction(1, 64), Fraction(1, 4),
          Fraction(1, 2), Fraction(7, 8)]
    for a, b in shapes:
        for x in xs:
            got = reg_inc_beta(float(x), a, b, digits)
            want = _binomial_tail(x, a, b)
            with mp.workdps(digits + 20):
                want = mp.mpf(want.numerator) / want.denominator
                rel = abs(got / want - 1)
                assert rel <= mp.mpf(10) ** -digits, (a, b, x, rel)


def test_estimators_refuse_invalid_inputs():
    for population in (nan, inf, -inf):
        with pytest.raises(ValueError, match="population"):
            confidence_bounds(population, 10, 2)
    for n, m, name in ((10, 2.5, "hits"), (10.0, 2, "samples"),
                       (10, True, "hits"), (True, 0, "samples")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            confidence_bounds(100, n, m)
    for n, c, name in ((10.5, 3, "samples"), (10, 3.0, "distinct"),
                       (True, 1, "samples"), (2, True, "distinct")):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            coupon_mle(n, c)


@pytest.mark.parametrize(
    "b, ks, hits, want",
    [
        (71, 200, 0, ("0.0", "0.0", "22103.2621786038")),
        (71, 200, 7, ("21072.6638968618", "42540.75", "85610.7332982872")),
        (40, 187, 0, ("0.0", "0.0", "5.34599319764607e+19")),
        (40, 143, 2, ("9.08308950142664e+18", "2.94261881540366e+19",
                      "1.03661590812832e+20")),
        (40, 96, 31, ("3.35821329822614e+20", "4.56105916387568e+20",
                      "5.96072703973241e+20")),
    ],
)
def test_confidence_bounds_values_are_pinned(b, ks, hits, want):
    # shaped like the survey benchmark's calls: ks KS sets among 200 draws
    # of b-edge subsets of the 60-75, hits of them critical
    ci = confidence_bounds(comb(75, b) * ks / 200, ks, hits)
    assert (str(ci.lower), str(ci.point), str(ci.upper)) == want


def test_reg_inc_beta_at_large_equal_shapes():
    # I_1/2(a, a) = 1/2; mpmath.betainc raises here, its series cancelling
    # about 4000 bits
    for digits in (40, 100):
        got = reg_inc_beta(0.5, 4001, 4001, digits)
        with mp.workdps(digits):
            assert abs(2 * got - 1) <= mp.mpf(10) ** -digits


@pytest.mark.parametrize(
    "n, m, want",
    [
        (52800000, 5000, ("828980374722.438", "852272727272.727",
                          "876228751564.265")),
        (10000, 3000, ("2.61987690171175e+15", "2.7e+15",
                       "2.78152463199901e+15")),
    ],
)
def test_confidence_bounds_with_thousands_of_hits(n, m, want):
    # a bound with m hits needs I_x(m+1, n-m+1) near x = m/n, where
    # mpmath.betainc's series cancels about 1.44*m bits and gives up
    ci = confidence_bounds(9.0e15, n, m)
    assert (str(ci.lower), str(ci.point), str(ci.upper)) == want


def test_confidence_bounds_worked_example():
    ci = confidence_bounds(9.0e15, 52800000, 580)
    assert abs(ci.upper / mp.mpf("1.1e11") - 1) < 0.05
    assert ci.lower < ci.point < ci.upper


def test_confidence_bounds_zero_hits():
    ci = confidence_bounds(100, 10, 0)
    assert ci.lower == 0
    with mp.workdps(50):
        want = 100 * (1 - mp.mpf("0.025") ** (mp.mpf(1) / 11))
    assert abs(ci.upper - want) < 1e-20


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=5000),
    st.data(),
    st.floats(min_value=1, max_value=1e12),
)
def test_bounds_bracket_point_estimate(n, data, k):
    m = data.draw(st.integers(min_value=0, max_value=n))
    ci = confidence_bounds(k, n, m, digits=40)
    point = mp.mpf(k) * m / n
    assert ci.lower <= point + 1e-25
    if m < n:
        # at m == n the Beta(n+1, 1) upper quantile sits below m/n = 1,
        # so the formula itself places the point estimate above the bound
        assert point <= ci.upper + 1e-25


def test_bounds_validation():
    with pytest.raises(ValueError):
        confidence_bounds(10, 5, 6)
    with pytest.raises(ValueError):
        confidence_bounds(10, 5, 2, level=1.0)
    with pytest.raises(ValueError):
        confidence_bounds(0, 5, 2)


def test_survey_record_json_round_trip():
    # the stage record is the survey's one record type; its JSON text is
    # what resumes and ``ks stats aggregate`` read, so it is pinned
    r = StageResult(70, 75, 75, 75, 75, 73, 73, 1, 2, 0.089)
    assert r.to_json() == (
        '{"children": 75, "connected": 75, "criticals_even": 2, '
        '"criticals_odd": 1, "edges": 70, "exact_unique": 75, "inputs": 75, '
        '"ks": 73, "non_isomorphic": 73, "seconds": 0.089}'
    )
    assert StageResult.from_json(r.to_json()) == r


def test_survey_record_invariants():
    # each link of the filter chain children >= connected >= exact_unique
    # >= non_isomorphic >= ks is checked on its own
    for link in range(1, 5):
        chain = [5, 5, 5, 5, 5]
        chain[link] = 6
        with pytest.raises(ValueError, match="filter chain counts increased"):
            StageResult(70, 1, *chain, 0, 0, 0.5)
    for line in ("[70]", '"edges"', "null"):
        with pytest.raises(ValueError, match="not a JSON object"):
            StageResult.from_json(line)
