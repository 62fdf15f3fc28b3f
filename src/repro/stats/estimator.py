"""Sequential estimators: mergeable sufficient statistics per metric cell.

An adaptive campaign feeds trial chunks to each (grid point, metric)
cell in rounds and needs to ask, after every round, "how wide is this
cell's confidence interval now?".  The estimators here hold exactly the
sufficient statistics that question needs -- counts for proportions,
``(count, total, sq_total)`` for means -- and nothing else, so they can
be rebuilt from cached per-unit results in any order and always answer
identically.

:class:`SequentialEstimator` puts the Wilson construction, plus the
Jeffreys interval adaptive stopping prefers, behind an accumulating
``update``/``merge`` API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stats.intervals import jeffreys_interval, mean_interval, wilson_interval

__all__ = ["MeanEstimator", "SequentialEstimator"]

#: Interval constructions a proportion estimator can be queried with.
INTERVAL_METHODS = ("wilson", "jeffreys")


@dataclass
class SequentialEstimator:
    """Accumulating binomial proportion estimator (Wilson/Jeffreys CIs)."""

    successes: int = 0
    trials: int = 0

    def update(self, successes: int, trials: int) -> "SequentialEstimator":
        """Fold one chunk's counts in; returns self for chaining."""
        if trials < 0:
            raise ValueError(f"trials cannot be negative, got {trials}")
        if not 0 <= successes <= trials:
            raise ValueError(
                f"chunk successes must lie in [0, {trials}], got {successes}"
            )
        self.successes += successes
        self.trials += trials
        return self

    def merge(self, other: "SequentialEstimator") -> "SequentialEstimator":
        return self.update(other.successes, other.trials)

    @property
    def estimate(self) -> float:
        if self.trials == 0:
            raise ValueError("no trials observed yet")
        return self.successes / self.trials

    def interval(
        self, confidence: float = 0.95, method: str = "jeffreys"
    ) -> tuple[float, float]:
        """The (low, high) confidence interval at the current counts."""
        if method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown interval method {method!r}; "
                f"expected one of {INTERVAL_METHODS}"
            )
        fn = wilson_interval if method == "wilson" else jeffreys_interval
        return fn(self.successes, self.trials, confidence)

    def half_width(
        self, confidence: float = 0.95, method: str = "jeffreys"
    ) -> float:
        """Half the CI width; ``inf`` before any trial has run."""
        if self.trials == 0:
            return math.inf
        low, high = self.interval(confidence, method)
        return (high - low) / 2.0

    def converged(
        self,
        target_half_width: float,
        confidence: float = 0.95,
        method: str = "jeffreys",
    ) -> bool:
        """Whether the cell's CI has reached the requested precision."""
        if target_half_width <= 0:
            raise ValueError("target half-width must be positive")
        return self.half_width(confidence, method) <= target_half_width


@dataclass
class MeanEstimator:
    """Accumulating sample-mean estimator from streaming moments.

    Chunks contribute ``(count, total, sq_total)`` -- the per-chunk
    sample count, sum, and sum of squares -- so cached unit results
    merge in any order.  ``bounds`` clips intervals to the metric's
    physical range (bit error rates live in [0, 1]).
    """

    count: int = 0
    total: float = 0.0
    sq_total: float = 0.0
    bounds: tuple[float, float] | None = None

    def update(
        self, count: int, total: float, sq_total: float
    ) -> "MeanEstimator":
        """Fold one chunk's moments in; returns self for chaining."""
        if count < 0:
            raise ValueError(f"count cannot be negative, got {count}")
        if sq_total < 0:
            raise ValueError(f"sq_total cannot be negative, got {sq_total}")
        self.count += count
        self.total += total
        self.sq_total += sq_total
        return self

    def merge(self, other: "MeanEstimator") -> "MeanEstimator":
        return self.update(other.count, other.total, other.sq_total)

    @property
    def estimate(self) -> float:
        if self.count == 0:
            raise ValueError("no samples observed yet")
        return self.total / self.count

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        return mean_interval(
            self.count, self.total, self.sq_total, confidence, self.bounds
        )

    def half_width(self, confidence: float = 0.95) -> float:
        """Half the CI width; ``inf`` until two samples exist."""
        if self.count < 2:
            return math.inf
        # Half-width before bounds clipping: convergence must reflect
        # sampling precision, not how close the mean sits to a wall.
        low, high = mean_interval(
            self.count, self.total, self.sq_total, confidence, None
        )
        return (high - low) / 2.0

    def converged(
        self, target_half_width: float, confidence: float = 0.95
    ) -> bool:
        if target_half_width <= 0:
            raise ValueError("target half-width must be positive")
        return self.half_width(confidence) <= target_half_width
