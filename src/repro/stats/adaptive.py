"""Adaptive precision: the statistics of spending trials where they count.

A fixed-budget campaign runs ``n_trials`` everywhere, which buys wildly
uneven precision: 25 trials pin an attack-success probability of 0.0
down to a ~0.1-wide interval but leave a mid-range probability smeared
across ~0.35.  Adaptive precision inverts the contract -- the caller
states the precision, the run finds the trial counts.  The campaign
runner (:meth:`~repro.campaigns.runner.CampaignRunner.run_adaptive`)
feeds trial chunks through its one execution loop in *rounds*; after
each round every still-active grid cell re-checks
:meth:`AdaptiveCell.precise`, and stops as soon as every tracked
metric's confidence-interval half-width reaches its target.

This module holds only that statistics: the policy, a cell's
accumulated estimators and its stopping test, and the run's outcome.
It names no metric -- targets and estimators come from the scenario
kind, which declares each metric it measures
(:class:`~repro.campaigns.kinds.base.Metric`) -- and
:attr:`AdaptivePolicy.precision` overrides every target at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stats.estimator import INTERVAL_METHODS, MeanEstimator, SequentialEstimator
from repro.stats.expectations import CellStats

__all__ = [
    "AdaptiveCell",
    "AdaptivePolicy",
    "AdaptiveRunResult",
]


@dataclass(frozen=True)
class AdaptivePolicy:
    """How an adaptive run trades trials for precision.

    ``precision`` overrides every metric's target half-width at once;
    ``None`` uses the precision each metric's scenario kind declares
    (:attr:`~repro.campaigns.kinds.base.Metric.precision`).  ``method``
    picks the proportion-interval construction for stopping decisions
    (Jeffreys by default: tighter at the 0%/100% extremes the paper's
    claims live at).  ``max_trials`` bounds any one cell, so a
    stubbornly mid-range metric degrades to "ran out of budget, CI
    reported" rather than running forever.
    """

    precision: float | None = None
    confidence: float = 0.95
    method: str = "jeffreys"
    round_size: int = 6
    min_trials: int = 6
    max_trials: int = 100

    def __post_init__(self) -> None:
        if self.precision is not None and self.precision <= 0:
            raise ValueError(f"precision must be positive, got {self.precision}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must lie strictly between 0 and 1, "
                f"got {self.confidence}"
            )
        if self.method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown interval method {self.method!r}; "
                f"expected one of {INTERVAL_METHODS}"
            )
        if self.round_size < 2:
            raise ValueError(
                f"round_size must be at least 2 (a variance needs two "
                f"samples), got {self.round_size}"
            )
        if self.min_trials < 2:
            raise ValueError(f"min_trials must be at least 2, got {self.min_trials}")
        if self.max_trials < self.min_trials:
            raise ValueError(
                f"max_trials ({self.max_trials}) cannot be smaller than "
                f"min_trials ({self.min_trials})"
            )


@dataclass
class AdaptiveCell:
    """One grid point's adaptive state: estimators, budget, stop status."""

    position: int
    axis: object
    label: str
    estimators: dict[str, SequentialEstimator | MeanEstimator]
    tracked: tuple[str, ...]
    trials: int = 0
    rounds: int = 0
    converged: bool = False

    def precise(
        self, policy: AdaptivePolicy, targets: dict[str, float]
    ) -> bool:
        """Whether the cell may stop: past ``policy.min_trials``, with
        every tracked metric's interval as tight as its target."""
        if self.trials < policy.min_trials:
            return False
        for metric in self.tracked:
            estimator = self.estimators[metric]
            if isinstance(estimator, SequentialEstimator):
                done = estimator.converged(
                    targets[metric], policy.confidence, policy.method
                )
            else:
                done = estimator.converged(targets[metric], policy.confidence)
            if not done:
                return False
        return True

    def stats(self) -> CellStats:
        return CellStats(self.axis, self.label, dict(self.estimators))


@dataclass
class AdaptiveRunResult:
    """The outcome of one adaptive-precision run.

    ``fixed_trials`` is what the scenario's fixed-count budget would
    have spent; ``targets`` the stopping half-width of each tracked
    metric.
    """

    scenario: object
    policy: AdaptivePolicy
    fixed_trials: int
    targets: dict[str, float]
    cells: list[AdaptiveCell] = field(default_factory=list)
    rounds: int = 0
    computed_units: int = 0
    cached_units: int = 0

    @property
    def converged(self) -> bool:
        """Whether every cell reached its precision inside the budget."""
        return all(cell.converged for cell in self.cells)

    @property
    def trials_used(self) -> int:
        return sum(cell.trials for cell in self.cells)

    def cell_stats(self) -> list[CellStats]:
        return [cell.stats() for cell in self.cells]
