"""Confidence intervals for sequential Monte-Carlo estimation.

Every quantitative claim this repo reproduces is an estimated
proportion (attack success, alarm rate) or an estimated mean
(eavesdropper BER), so the statistical fidelity story rests on exactly
three interval constructions:

* :func:`wilson_interval` -- the score interval for a binomial
  proportion.  Well-behaved at the extremes the paper's figures live at
  (0 successes behind the shield, ``n`` successes without it), unlike
  the Wald interval, which collapses to a width of zero there.
* :func:`jeffreys_interval` -- the Beta(1/2, 1/2)-prior equal-tailed
  credible interval.  Tighter than Wilson at 0 and ``n`` successes,
  which is where adaptive runs spend most of their stopping decisions;
  this is the default for adaptive precision targets.
* :func:`mean_interval` -- the Student-t interval for a sample mean,
  reconstructed from streaming ``(count, total, sq_total)`` sufficient
  statistics so per-chunk cache entries can be merged without keeping
  raw samples.

The three historical confidence levels (0.90/0.95/0.99) keep the exact
z constants the repo has always used, so every previously reported
number is bit-identical; any other level in (0, 1) resolves through
:meth:`statistics.NormalDist.inv_cdf`.

The beta and Student-t quantiles are computed here with the standard
library: the regularized incomplete beta function is a modified-Lentz
continued fraction, its inverse takes safeguarded Newton steps (with
Halley's curvature correction, bisection as the fallback) from a
normal-approximation start, and a t quantile is a beta quantile through
``P(|T| > t) = I_x(df/2, 1/2)`` with ``x = df / (df + t^2)``.  Tests
pin all three quantiles to scipy's over confidences 0.8-0.999, 1-400
degrees of freedom and up to 4,000 trials: normal and t to 1e-15 and
1e-12 relative, beta to 1e-13 absolute.  Not importing scipy here
keeps its ~70 MB and ~0.9 s out of every process that judges an
interval.
"""

from __future__ import annotations

import math

__all__ = [
    "jeffreys_interval",
    "mean_interval",
    "normal_quantile",
    "wilson_interval",
]

#: Legacy two-sided z values -- kept verbatim so the intervals the seed
#: repo reported (benchmarks, sweep tables) do not move by a ULP.
_LEGACY_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie strictly between 0 and 1, got {confidence}"
        )


def _check_counts(successes: int, trials: int) -> None:
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")


def _normal_ppf(p: float) -> float:
    """The standard normal ``p``-quantile.  ``statistics`` loads
    ``decimal`` and ``fractions`` (about 4 ms), so it is imported on
    first use, off the package's import path."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(p)


def normal_quantile(confidence: float) -> float:
    """The two-sided z value of a confidence level in (0, 1)."""
    _check_confidence(confidence)
    z = _LEGACY_Z.get(confidence)
    if z is None:
        z = _normal_ppf(0.5 + confidence / 2.0)
    return z


def _stirling_gap(z: float) -> float:
    """``lgamma(z)`` minus Stirling's ``(z - 1/2) ln z - z + ln(2 pi) / 2``."""
    if z >= 10.0:
        w = 1.0 / (z * z)
        return (
            1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))
        ) / z
    return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of ``I_x(a, b)`` by the modified Lentz method;
    it converges fast for ``x < (a + 1) / (a + b + 2)``."""
    s = a + b
    d = 1.0 / (1.0 - s * x / (a + 1.0))
    c = 1.0
    h = d
    for m in range(1, 10_000):
        am = a + 2 * m
        num = m * (b - m) * x / ((am - 1.0) * am)
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        h *= d * c
        num = -(a + m) * (s + m) * x / (am * (am + 1.0))
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h
    raise ArithmeticError(f"incomplete beta fraction diverged at a={a}, b={b}")


def _beta_quantile(p: float, a: float, b: float, x: float | None = None) -> float:
    """The ``x`` with ``I_x(a, b) = p``, from ``x`` or a normal-approximation
    start.

    Each step is Newton's with Halley's curvature correction; a step
    that leaves the bracket the iterates have proved bisects it instead.
    """
    s = a + b
    # x^a (1-x)^b / B(a, b) = exp(a ln(x s/a) + b ln((1-x) s/b) + log_scale):
    # centred on the mean a/s, with Stirling's series for the rest, so no
    # digits cancel between lgamma's large values.
    log_scale = (
        0.5 * math.log(a * b / s) - _HALF_LOG_2PI
        - _stirling_gap(a) - _stirling_gap(b) + _stirling_gap(s)
    )
    log_tail = math.log1p(a / b)
    if x is None:
        x = _beta_start(p, a, b)
    if not 0.0 < x < 1.0:
        x = 0.5
    lo, hi = 0.0, 1.0
    for _ in range(200):
        front = math.exp(
            a * math.log(x * s / a) + b * (math.log1p(-x) + log_tail)
            + log_scale
        )
        if x * (s + 2.0) < a + 1.0:
            err = front * _beta_fraction(a, b, x) / a - p
        else:
            err = (1.0 - p) - front * _beta_fraction(b, a, 1.0 - x) / b
        if err == 0.0:
            return x
        if err < 0.0:
            lo = x
        else:
            hi = x
        pdf = front / (x * (1.0 - x))
        new = 0.5 * (lo + hi)
        if 0.0 < pdf < math.inf:
            step = err / pdf
            bend = step * ((a - 1.0) / x - (b - 1.0) / (1.0 - x))
            step /= 1.0 - 0.5 * max(-1.0, min(1.0, bend))
            # Cubic convergence: a step this small leaves no error.
            if abs(step) < 1e-8 * min(x, 1.0 - x):
                return x - step
            if lo < x - step < hi:
                new = x - step
        if new in (lo, hi):
            return new
        x = new
    return x


def _beta_start(p: float, a: float, b: float) -> float:
    """Paulson's cube-root normal approximation to the Beta(a, b)
    ``p``-quantile (through ``F(2a, 2b)``), or the small-shape power
    law where that approximation has no root."""
    z = _normal_ppf(p)
    u, v = 1.0 / (9.0 * a), 1.0 / (9.0 * b)
    spread = u * (1.0 - v) ** 2 + v * (1.0 - u) ** 2 - z * z * u * v
    scale = (1.0 - v) ** 2 - z * z * v
    if spread >= 0.0 and scale > 0.0:
        root = ((1.0 - u) * (1.0 - v) + z * math.sqrt(spread)) / scale
        if root > 0.0:
            f = a * root**3
            return f / (f + b)
    head = (a / (a + b)) ** a / a
    mass = head + (b / (a + b)) ** b / b
    if p * mass < head:
        return (a * mass * p) ** (1.0 / a)
    return 1.0 - (b * mass * (1.0 - p)) ** (1.0 / b)


def _t_quantile(confidence: float, df: int) -> float:
    """The two-sided Student-t value at ``confidence`` with ``df`` degrees
    of freedom, started from its Cornish-Fisher expansion in ``z``."""
    z = _normal_ppf(0.5 + confidence / 2.0)
    z2 = z * z
    t = z * (
        1.0
        + (z2 + 1.0) / (4.0 * df)
        + ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * df**2)
        + (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / (384.0 * df**3)
    )
    x = _beta_quantile(1.0 - confidence, df / 2.0, 0.5, df / (df + t * t))
    return math.sqrt(df * (1.0 - x) / x)


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval on a binomial proportion."""
    _check_counts(successes, trials)
    z = normal_quantile(confidence)
    p = successes / trials
    denom = 1 + z**2 / trials
    centre = (p + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return max(0.0, centre - half), min(1.0, centre + half)


def jeffreys_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Jeffreys-prior equal-tailed interval on a binomial proportion.

    Posterior is Beta(s + 1/2, n - s + 1/2); per the standard
    construction the lower limit is pinned to 0 when ``s == 0`` and the
    upper to 1 when ``s == n``, so the interval never excludes an
    observed boundary.
    """
    _check_counts(successes, trials)
    _check_confidence(confidence)
    alpha = 1.0 - confidence
    a = successes + 0.5
    b = trials - successes + 0.5
    low = 0.0 if successes == 0 else _beta_quantile(alpha / 2, a, b)
    high = (
        1.0 if successes == trials else _beta_quantile(1 - alpha / 2, a, b)
    )
    return low, high


def mean_interval(
    count: int,
    total: float,
    sq_total: float,
    confidence: float = 0.95,
    bounds: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Student-t interval on a mean from streaming sufficient statistics.

    ``total`` and ``sq_total`` are the running sum and sum of squares of
    the sample; ``bounds`` optionally clips the interval to the metric's
    physical range (e.g. ``(0, 1)`` for a bit error rate).  Needs at
    least two samples -- a one-point sample has no variance estimate.
    """
    if count < 2:
        raise ValueError(
            f"a mean interval needs at least 2 samples, got {count}"
        )
    _check_confidence(confidence)
    mean = total / count
    # Sample variance from the sufficient statistics; tiny negative
    # round-off from the subtraction clamps to zero.
    variance = max(0.0, (sq_total - count * mean**2) / (count - 1))
    t = _t_quantile(confidence, count - 1)
    half = t * math.sqrt(variance / count)
    low, high = mean - half, mean + half
    if bounds is not None:
        low = max(low, bounds[0])
        high = min(high, bounds[1])
    return low, high
