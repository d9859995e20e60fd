"""Survey estimators: coupon-collector class-count MLE and Bernoulli
confidence bounds from the inverse regularized incomplete beta function.

All non-integer work runs in arbitrary-precision decimal floating point
(mpmath) with the working precision passed per call; the coupon inequality
involves subtraction of almost-equal logarithms and silently gives wrong
answers below 35 significant digits, so that floor is enforced.  The
incomplete beta is a Lentz continued fraction rather than
``mpmath.betainc``: mpmath 1.3's ``betainc`` sums an alternating series
that cancels about b*log2(1/(1-x)) bits, so it raises once a confidence
bound has more than a few thousand hits.  The incomplete beta is
evaluated at GUARD_DIGITS more digits than asked and rounded once, so the
fraction's stopping error stays below the last asked digit.  mpmath is
imported by the estimators themselves, on their first call, so importing
this module (or the package) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath as mp

MIN_DIGITS = 35
DEFAULT_DIGITS = 100
COUPON_CAP = 10**30
GUARD_DIGITS = 10


class PrecisionError(ValueError):
    """Working precision below the supported floor."""


class ConvergenceError(ArithmeticError):
    """An iterative evaluation failed to converge within its cap."""


def _check_digits(digits: int) -> None:
    if digits < MIN_DIGITS:
        raise PrecisionError(
            f"{digits} significant digits requested; coupon and beta "
            f"computations need at least {MIN_DIGITS}"
        )


def _check_ints(**values) -> None:
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")


def _check_shapes(a, b) -> None:
    if not (0 < a < inf and 0 < b < inf):
        raise ValueError("shape parameters must be positive finite numbers")


@dataclass(frozen=True)
class CouponEstimate:
    """MLE of the total class count from a with-replacement sample.

    ``classes`` is None when the likelihood keeps growing past the search
    cap (always the case when every sample was distinct), which the text
    form reports as unbounded.
    """

    samples: int
    distinct: int
    classes: int | None

    @property
    def unbounded(self) -> bool:
        return self.classes is None

    def __str__(self) -> str:
        if self.classes is None:
            return f"unbounded (no maximum below {COUPON_CAP:.1e})"
        return str(self.classes)


def coupon_mle(
    samples: int, distinct: int, digits: int = DEFAULT_DIGITS
) -> CouponEstimate:
    """Smallest j >= c with (j+1)/(j+1-c) * (j/(j+1))^n < 1.

    The likelihood of seeing c distinct classes in n draws from j classes
    is unimodal in j, so the first j where the likelihood ratio drops below
    one is the maximum; binary search finds it.  Evaluated in log form at
    the requested precision.
    """
    import mpmath as mp
    _check_digits(digits)
    _check_ints(samples=samples, distinct=distinct)
    n, c = samples, distinct
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= distinct <= samples, got c={c}, n={n}")
    if c == n:
        # every draw distinct: the ratio is >= 1 for all j
        return CouponEstimate(n, c, None)

    with mp.workdps(digits):

        def drops(j: int) -> bool:
            # log((j+1)/(j+1-c)) + n*log(j/(j+1)) < 0, via log1p for the
            # near-cancelling large-j regime
            lhs = mp.log1p(mp.mpf(c) / (j + 1 - c)) - n * mp.log1p(
                mp.mpf(1) / j
            )
            return lhs < 0

        if not drops(COUPON_CAP):
            return CouponEstimate(n, c, None)
        lo, hi = c, COUPON_CAP
        while lo < hi:
            mid = (lo + hi) // 2
            if drops(mid):
                hi = mid
            else:
                lo = mid + 1
    return CouponEstimate(n, c, lo)


def _beta_cf(a, b, x, digits: int):
    """Continued fraction for the incomplete beta tail (Lentz iteration)."""
    import mpmath as mp
    eps = mp.mpf(10) ** (-(digits - 5))
    tiny = mp.mpf(10) ** (-(4 * digits))
    qab, qap, qam = a + b, a + 1, a - 1
    c = mp.mpf(1)
    d = 1 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1 / d
    h = d
    for m in range(1, 20000):
        m2 = 2 * m
        # the even then the odd partial numerator of step m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1 / d
            delta = d * c
            h *= delta
        if abs(delta - 1) < eps:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})"
    )


def reg_inc_beta(x, a, b, digits: int = DEFAULT_DIGITS):
    """I_x(a, b), the regularized incomplete beta function."""
    import mpmath as mp
    _check_digits(digits)
    with mp.workdps(digits + GUARD_DIGITS):
        x, a, b = mp.mpf(x), mp.mpf(a), mp.mpf(b)
        _check_shapes(a, b)
        if mp.isnan(x):
            raise ValueError("x must be a number, got nan")
        if x <= 0:
            return mp.mpf(0)
        if x >= 1:
            return mp.mpf(1)
        # I_x(a, b) = 1 - I_{1-x}(b, a) keeps the fraction in its fast region
        flip = x >= a / (a + b)
        p, q, y = (b, a, 1 - x) if flip else (a, b, x)
        front = mp.exp(
            p * mp.log(y)
            + q * mp.log1p(-y)
            - mp.log(p)
            - mp.log(mp.beta(a, b))
        )
        tail = front * _beta_cf(p, q, y, digits + GUARD_DIGITS)
        value = 1 - tail if flip else tail
    with mp.workdps(digits):
        return +value


def reg_inc_beta_inv(p, a, b, digits: int = DEFAULT_DIGITS):
    """x with I_x(a, b) = p, by bracketing bisection plus Newton polish.

    Raises ConvergenceError (never returns a silent bad value) when the
    underlying continued fraction or the root search fails.
    """
    import mpmath as mp
    _check_digits(digits)
    with mp.workdps(digits):
        p, a, b = mp.mpf(p), mp.mpf(a), mp.mpf(b)
        if not 0 < p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        _check_shapes(a, b)
        lo, hi = mp.mpf(0), mp.mpf(1)
        x = a / (a + b)
        if a < 1:
            # I_x(a, b) ~ x^a / (a*B(a, b)) as x -> 0: start from that
            # root, since from the mean Newton steps past 0 and bisection
            # takes log2(1/x) halvings to reach a root like 10^-393
            x = min(x, (p * a * mp.beta(a, b)) ** (1 / a))
        for _ in range(max(digits * 4, 200)):
            fx = reg_inc_beta(x, a, b, digits) - p
            if fx == 0:
                return x
            if fx > 0:
                hi = x
            else:
                lo = x
            # Newton step from the beta density, clamped to the bracket
            logpdf = (
                (a - 1) * mp.log(x)
                + (b - 1) * mp.log1p(-x)
                - mp.log(mp.beta(a, b))
            )
            step = fx * mp.exp(-logpdf)
            # tested before the clamp, which would restart bisection from
            # a converged x when the step is below x's last digit
            if abs(step) <= abs(x) * mp.mpf(10) ** (-(digits - 5)):
                if not (lo <= x - step <= hi and 0 < x - step < 1):
                    break  # the root is nearer 0 or 1 than x can hold
                return x - step
            x = x - step
            if not lo < x < hi:
                x = (lo + hi) / 2
        raise ConvergenceError(
            f"incomplete beta inverse did not converge (p={p}, a={a}, b={b})"
        )


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: mp.mpf
    upper: mp.mpf
    point: mp.mpf
    level: float


def confidence_bounds(
    population,
    samples: int,
    hits: int,
    level: float = 0.95,
    digits: int = DEFAULT_DIGITS,
) -> ConfidenceInterval:
    """Bounds on the number of successes in a size-``population`` space
    from ``hits`` successes in ``samples`` with-replacement draws.

    lower = K * Iinv((1-L)/2; m+1, n-m+1) and upper with (1+L)/2; the lower
    bound is reported as 0 when nothing was observed.  A ``population``
    that is itself an estimate is propagated verbatim, with no extra
    uncertainty.
    """
    import mpmath as mp
    _check_digits(digits)
    _check_ints(samples=samples, hits=hits)
    n, m = samples, hits
    if not 0 <= m <= n or n < 1:
        raise ValueError(f"need 0 <= hits <= samples, got m={m}, n={n}")
    if not 0 < level < 1:
        raise ValueError("confidence level must lie strictly in (0, 1)")
    with mp.workdps(digits):
        k = mp.mpf(population)
        if not 0 < k < inf:
            raise ValueError("population must be positive and finite")
        # decimal re-read so a float level like 0.95 means exactly 0.95
        lv = mp.mpf(str(level))
        if m == 0:
            lower = mp.mpf(0)
        else:
            lower = k * reg_inc_beta_inv(
                (1 - lv) / 2, m + 1, n - m + 1, digits
            )
        upper = k * reg_inc_beta_inv(
            (1 + lv) / 2, m + 1, n - m + 1, digits
        )
        return ConfidenceInterval(lower, upper, k * m / n, level)

