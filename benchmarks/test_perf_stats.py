"""Cost of the confidence-interval quantiles.

Every golden verdict and every adaptive stopping decision computes a
Jeffreys (beta-quantile) or Student-t interval, and adaptive stopping
does so once per metric per grid cell per round.  These entries guard
the standard-library quantiles in ``repro.stats.intervals`` against
slowing down.
"""

from repro.stats.intervals import jeffreys_interval, mean_interval


def test_perf_jeffreys_interval_4000(benchmark):
    """Both tails of a Jeffreys interval at 1,000 of 4,000 trials."""
    low, high = benchmark(jeffreys_interval, 1000, 4000, 0.999)
    assert 0.22 < low < 0.25 < high < 0.28


def test_perf_mean_interval_student_t(benchmark):
    """A Student-t mean interval over 30 samples at confidence 0.999."""
    low, high = benchmark(mean_interval, 30, 12.0, 5.1, 0.999)
    assert low < 0.4 < high
