"""The golden-figure validation harness behind ``python -m repro validate``.

Ties the pieces together: resolve a scenario's expectations from the
campaign registry, obtain per-cell estimators from one
:class:`~repro.campaigns.runner.CampaignRunner` (a fixed-budget
``run()`` or an adaptive-precision ``run_adaptive()``), evaluate every
expectation, and fold the verdicts into a :class:`ValidationReport`
that renders as tables, markdown, or JSON and maps onto a process exit
code.

Validation is cache-aware end to end: on a warm cache the campaign
computes zero units and the entire ``repro validate`` invocation is
pure statistics -- re-checking the paper's claims costs milliseconds,
which is what lets CI enforce them on every push.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.stats.adaptive import AdaptivePolicy
from repro.stats.expectations import (
    CellStats,
    Expectation,
    ExpectationOutcome,
    evaluate_expectation,
    worst_verdict,
)

__all__ = [
    "ScenarioValidation",
    "ValidationReport",
    "cells_from_result",
    "tracked_metrics",
    "validate_scenario",
]


def _json_float(value: float) -> float | None:
    """NaN/inf (an unjudgeable cell) as JSON null, not an invalid token."""
    return value if math.isfinite(value) else None


def cells_from_result(result) -> list[CellStats]:
    """Per-cell estimators of a fixed-budget :class:`CampaignResult`.

    The reduced points carry integer counts or raw moments, and each
    point is absorbed the way the adaptive path absorbs a unit result,
    so the estimators hold exactly what a fresh evaluation would have
    accumulated.
    """
    from repro.campaigns.kinds import KINDS

    scenario = result.scenario
    kind = KINDS[scenario.kind]
    cells = []
    for point in result.points:
        estimators = kind.estimators()
        kind.absorb(estimators, scenario.n_trials, point)
        cells.append(CellStats(point["axis"], point["label"], estimators))
    return cells


def tracked_metrics(scenario, expectations) -> dict[int, set[str]]:
    """Which metrics gate each cell's adaptive stopping decision.

    A cell tracks the metrics of every expectation that covers it, plus
    the scenario's headline metric as a floor -- so precision is bought
    exactly where a claim will be judged, and an alarm-rate expectation
    on the near locations does not hold the far locations open.
    """
    from repro.campaigns.kinds import KINDS

    kind = KINDS[scenario.kind]
    headline = kind.headline(scenario)
    axes = scenario.axis_values()
    tracked = {position: {headline} for position in range(len(axes))}
    for expectation in expectations:
        if expectation.metric not in kind.metric_names():
            continue
        for position, axis in enumerate(axes):
            if expectation.axes is None or axis in expectation.axes:
                tracked[position].add(expectation.metric)
    return tracked


@dataclass
class ScenarioValidation:
    """One scenario checked against its expectation table."""

    scenario: object
    outcomes: tuple[ExpectationOutcome, ...]
    cells: list[CellStats]
    adaptive: bool
    trials_used: int
    fixed_trials: int
    computed_units: int
    cached_units: int
    rounds: int | None = None
    converged: bool | None = None

    @property
    def verdict(self) -> str:
        return worst_verdict(o.verdict for o in self.outcomes)

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "title": self.scenario.title,
            "verdict": self.verdict,
            "adaptive": self.adaptive,
            "trials_used": self.trials_used,
            "fixed_trials": self.fixed_trials,
            "rounds": self.rounds,
            "converged": self.converged,
            "units": {
                "computed": self.computed_units,
                "from_cache": self.cached_units,
            },
            "expectations": [
                {
                    "metric": o.expectation.metric,
                    "kind": o.expectation.kind,
                    "value": o.expectation.value,
                    "tolerance": o.expectation.tolerance,
                    "axes": (
                        None
                        if o.expectation.axes is None
                        else list(o.expectation.axes)
                    ),
                    "note": o.expectation.note,
                    "verdict": o.verdict,
                    "confirmed": o.confirmed,
                    "skipped_axes": list(o.skipped_axes),
                    "cells": [
                        {
                            "axis": c.axis,
                            "estimate": _json_float(c.estimate),
                            "low": _json_float(c.low),
                            "high": _json_float(c.high),
                            "n": c.n,
                            "verdict": c.verdict,
                            "confirmed": c.confirmed,
                        }
                        for c in o.cells
                    ],
                }
                for o in self.outcomes
            ],
        }


def validate_scenario(
    scenario,
    expectations: tuple[Expectation, ...],
    adaptive: bool = False,
    policy: AdaptivePolicy | None = None,
    cache_dir: Path | str | None = None,
    workers: int | None = None,
    persist: bool = True,
    confidence: float | None = None,
) -> ScenarioValidation:
    """Run (or re-read) one scenario and judge its expectations.

    Fixed mode runs the scenario's registered Monte-Carlo budget; adaptive
    mode lets :meth:`CampaignRunner.run_adaptive` choose trial counts per
    cell, tracking exactly the metrics the expectations judge.  Both
    resume from (and fill) the same content-addressed cache.

    ``confidence`` overrides every expectation's own interval level for
    the verdicts (``None`` keeps each expectation's declared level);
    adaptive *stopping* decisions use ``policy.confidence`` either way.
    """
    from repro.campaigns.kinds import KINDS
    from repro.campaigns.runner import CampaignRunner

    if not expectations:
        raise ValueError(
            f"scenario {scenario.name!r} has no registered expectations; "
            f"register some before validating against it"
        )
    policy = policy or AdaptivePolicy()
    runner = CampaignRunner(
        scenario, cache_dir=cache_dir, workers=workers, persist=persist
    )
    # ``validate --adaptive`` runs a fixed-budget-only kind at its fixed
    # budget instead of refusing the whole invocation.
    if adaptive and KINDS[scenario.kind].adaptive:
        run = runner.run_adaptive(
            policy, tracked_metrics(scenario, expectations)
        )
        cells = run.cell_stats()
        counts = dict(
            adaptive=True,
            trials_used=run.trials_used,
            fixed_trials=run.fixed_trials,
            computed_units=run.computed_units,
            cached_units=run.cached_units,
            rounds=run.rounds,
            converged=run.converged,
        )
    else:
        result = runner.run()
        cells = cells_from_result(result)
        trials = KINDS[scenario.kind].fixed_trials(scenario)
        counts = dict(
            adaptive=False,
            trials_used=trials,
            fixed_trials=trials,
            computed_units=result.computed_units,
            cached_units=result.cached_units,
        )
    return ScenarioValidation(
        scenario=scenario,
        outcomes=tuple(
            evaluate_expectation(
                e, cells, method=policy.method, confidence=confidence
            )
            for e in expectations
        ),
        cells=cells,
        **counts,
    )


@dataclass
class ValidationReport:
    """Every validated scenario of one ``repro validate`` invocation."""

    scenarios: list[ScenarioValidation] = field(default_factory=list)
    strict: bool = False

    @property
    def verdict(self) -> str:
        return worst_verdict(s.verdict for s in self.scenarios)

    @property
    def passed(self) -> bool:
        """Whether this run should exit 0.

        ``fail`` always fails; ``inconclusive`` (a bound the CI still
        straddles -- more trials would settle it) fails only under
        ``strict``, so smoke budgets stay useful while nightly runs can
        demand conclusive statistics.
        """
        if self.verdict == "fail":
            return False
        if self.strict and self.verdict != "pass":
            return False
        return True

    @property
    def trials_used(self) -> int:
        return sum(s.trials_used for s in self.scenarios)

    @property
    def fixed_trials(self) -> int:
        return sum(s.fixed_trials for s in self.scenarios)

    def to_payload(self) -> dict:
        return {
            "verdict": self.verdict,
            "passed": self.passed,
            "strict": self.strict,
            "trials_used": self.trials_used,
            "fixed_trials": self.fixed_trials,
            "scenarios": [s.to_payload() for s in self.scenarios],
        }

    def summary(self) -> str:
        """One line for terminals and CI logs."""
        parts = [
            f"validate: {self.verdict.upper()}",
            f"{len(self.scenarios)} scenario(s)",
            f"{self.trials_used} trials",
        ]
        if self.trials_used != self.fixed_trials:
            parts.append(f"fixed budget would be {self.fixed_trials}")
        return " -- ".join(parts)
