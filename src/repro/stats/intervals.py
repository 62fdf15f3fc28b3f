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
``scipy.stats.norm``.
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


def normal_quantile(confidence: float) -> float:
    """The two-sided z value of a confidence level in (0, 1)."""
    _check_confidence(confidence)
    z = _LEGACY_Z.get(confidence)
    if z is None:
        from scipy import stats

        z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    return z


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
    from scipy import stats

    _check_counts(successes, trials)
    _check_confidence(confidence)
    alpha = 1.0 - confidence
    a = successes + 0.5
    b = trials - successes + 0.5
    low = 0.0 if successes == 0 else float(stats.beta.ppf(alpha / 2, a, b))
    high = (
        1.0
        if successes == trials
        else float(stats.beta.ppf(1 - alpha / 2, a, b))
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
    from scipy import stats

    if count < 2:
        raise ValueError(
            f"a mean interval needs at least 2 samples, got {count}"
        )
    _check_confidence(confidence)
    mean = total / count
    # Sample variance from the sufficient statistics; tiny negative
    # round-off from the subtraction clamps to zero.
    variance = max(0.0, (sq_total - count * mean**2) / (count - 1))
    t = float(stats.t.ppf(0.5 + confidence / 2.0, count - 1))
    half = t * math.sqrt(variance / count)
    low, high = mean - half, mean + half
    if bounds is not None:
        low = max(low, bounds[0])
        high = min(high, bounds[1])
    return low, high
