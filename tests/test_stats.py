import json
from math import comb

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ksets.stats import (
    DEFAULT_DIGITS,
    ConvergenceError,
    PrecisionError,
    SurveyRecord,
    binomial,
    confidence_bounds,
    coupon_mle,
    estimate_record,
    reg_inc_beta,
    reg_inc_beta_inv,
    survey_aggregate,
)


def test_binomial_exact():
    assert binomial(75, 2) == 2775
    assert binomial(75, 0) == 1
    assert sum(binomial(75, b) for b in range(76)) == 2**75
    assert binomial(200, 100) == comb(200, 100)
    with pytest.raises(ValueError):
        binomial(5, 6)
    with pytest.raises(ValueError):
        binomial(5, -1)


def test_coupon_worked_example_with_exact_oracle(exact_drops):
    est = coupon_mle(545961, 516604, digits=35)
    assert est.classes == 4893025
    assert not est.unbounded
    # smallest j: the inequality flips exactly at the estimate
    assert exact_drops(est.classes, 545961, 516604)
    assert not exact_drops(est.classes - 1, 545961, 516604)


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
    for a, b in ((1, 90), (3, 199)):
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


def test_beta_edge_values_and_validation():
    assert reg_inc_beta(0, 2, 3) == 0
    assert reg_inc_beta(1, 2, 3) == 1
    with pytest.raises(ValueError):
        reg_inc_beta_inv(0, 2, 3)
    with pytest.raises(ValueError):
        reg_inc_beta_inv(0.5, -1, 3)
    with pytest.raises(PrecisionError):
        reg_inc_beta_inv(0.5, 2, 3, digits=10)


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
    r = SurveyRecord(
        edges=35,
        total=binomial(75, 35),
        ks=9.0e15,
        criticals_odd=3,
        criticals_even=577,
        min_crit=9.1e10,
        max_crit=1.07e11,
    )
    back = SurveyRecord.from_json(r.to_json())
    assert back == r
    raw = json.loads(r.to_json())
    assert raw["total"] == str(binomial(75, 35))  # exact integer as string


def test_survey_record_invariants():
    with pytest.raises(ValueError):
        SurveyRecord(edges=5, total=10, min_crit=2.0, max_crit=1.0)
    with pytest.raises(ValueError):
        SurveyRecord(edges=5, total=10, criticals_odd=5, max_crit=1.0)
    # the fields are typed as the stage records' are
    for bad, problem in (
        ({"total": -4}, "field total must be an int >= 0, got -4"),
        ({"edges": True}, "field edges must be an int >= 0, got True"),
        ({"ks": float("inf")}, "field ks must be a finite number, got inf"),
    ):
        with pytest.raises(ValueError) as err:
            SurveyRecord(**{"edges": 5, "total": 10, **bad})
        assert str(err.value) == problem


def test_survey_aggregate_table_and_duplicates():
    rows = [
        SurveyRecord(edges=74, total=binomial(75, 74), non_isomorphic=1.0),
        SurveyRecord(edges=73, total=binomial(75, 73), non_isomorphic=4.0),
        SurveyRecord(edges=75, total=1, non_isomorphic=1.0),
    ]
    table, plot = survey_aggregate(rows)
    lines = table.strip().splitlines()
    assert len(lines) == 4
    assert plot["edges"] == [73, 74, 75]
    assert plot["non_isomorphic"] == [4.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        survey_aggregate(rows + [rows[0]])


def test_estimate_record_proportion():
    # the 28-edge scale: total about 3.1e20, KS proportion from a sample
    r = estimate_record(28, samples=10**6, ks_hits=52)
    assert abs(r.total / 3.1e20 - 1) < 0.02
    assert r.ks == pytest.approx(float(r.total) * 52e-6, rel=1e-12)


def test_empty_observation_row_convention():
    r = estimate_record(
        30, samples=1000, ks_hits=10, crit_samples=500, criticals_odd=0
    )
    assert r.min_crit == 0.0
    assert r.max_crit is not None and r.max_crit > 0
