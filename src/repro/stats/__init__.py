"""Statistical fidelity subsystem: adaptive precision + golden figures.

The paper's claims are statistical -- near-zero passive decode rates
behind the shield, >99% attack-packet rejection, graceful degradation
under raw transmit power -- so reproducing them faithfully means (a)
quantifying the confidence of every reproduced number and (b) machine-
checking that those numbers still match the paper within sampling
error.  This package owns both halves:

* :mod:`repro.stats.intervals` -- Wilson, Jeffreys, and Student-t
  interval constructions from streaming sufficient statistics;
* :mod:`repro.stats.estimator` -- mergeable sequential estimators
  (:class:`SequentialEstimator` for proportions, :class:`MeanEstimator`
  for means) that rebuild identically from cached per-unit results;
* :mod:`repro.stats.adaptive` -- the statistics of adaptive precision:
  :class:`AdaptivePolicy`, and the :class:`AdaptiveCell` stopping test
  that ends a grid cell the moment every tracked metric's confidence
  interval hits its precision target.  The campaign runner
  (:meth:`~repro.campaigns.runner.CampaignRunner.run_adaptive`) runs
  the rounds through its one cache-or-compute loop;
* :mod:`repro.stats.expectations` -- declarative golden-figure
  :class:`Expectation` records (two-sided CI overlap, one-sided bounds,
  exact matches) and their verdict semantics;
* :mod:`repro.stats.validation` -- the harness ``python -m repro
  validate`` drives: fixed or adaptive execution, expectation
  evaluation, reporting, exit codes.

This package names no metric.  Each scenario kind declares its metrics
-- estimator family and default stopping precision -- and its built-in
scenarios with their expectation tables
(:mod:`repro.campaigns.kinds`); the campaign registry
(:mod:`repro.campaigns.registry`) looks them up by name.  See
``docs/validation.md`` for the semantics and for how to add a golden
figure to a new scenario.
"""

from repro.stats.adaptive import (
    AdaptiveCell,
    AdaptivePolicy,
    AdaptiveRunResult,
)
from repro.stats.estimator import MeanEstimator, SequentialEstimator
from repro.stats.expectations import (
    CellOutcome,
    CellStats,
    Expectation,
    ExpectationOutcome,
    evaluate_expectation,
    worst_verdict,
)
from repro.stats.intervals import (
    jeffreys_interval,
    mean_interval,
    normal_quantile,
    wilson_interval,
)
from repro.stats.validation import (
    ScenarioValidation,
    ValidationReport,
    cells_from_result,
    tracked_metrics,
    validate_scenario,
)

__all__ = [
    "AdaptiveCell",
    "AdaptivePolicy",
    "AdaptiveRunResult",
    "CellOutcome",
    "CellStats",
    "Expectation",
    "ExpectationOutcome",
    "MeanEstimator",
    "ScenarioValidation",
    "SequentialEstimator",
    "ValidationReport",
    "cells_from_result",
    "evaluate_expectation",
    "jeffreys_interval",
    "mean_interval",
    "normal_quantile",
    "tracked_metrics",
    "validate_scenario",
    "wilson_interval",
    "worst_verdict",
]
