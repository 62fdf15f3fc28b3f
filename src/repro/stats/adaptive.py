"""Adaptive-precision execution: spend trials where the statistics need them.

A fixed-budget campaign runs ``n_trials`` everywhere, which buys wildly
uneven precision: 25 trials pin an attack-success probability of 0.0
down to a ~0.1-wide interval but leave a mid-range probability smeared
across ~0.35.  :class:`AdaptiveScheduler` inverts the contract -- the
caller states the precision, the scheduler finds the trial counts.  It
feeds trial chunks through the campaign work-unit machinery in
*rounds*: after each round every still-active (grid cell, metric) pair
is re-checked, and a cell stops as soon as every tracked metric's
confidence-interval half-width reaches its target.  Targets and
estimators come from the scenario kind, which declares each metric it
measures (:class:`~repro.campaigns.kinds.base.Metric`); this module
names no metric, and :attr:`AdaptivePolicy.precision` overrides every
target at once.

Determinism is the campaign runner's, exactly: a round unit's RNG
stream is a pure function of (scenario payload, cell, round index) via
:func:`repro.runtime.seeding.round_seed_sequence` -- never of which
cells are still active, the worker count, or scheduling -- and rounds
are submission barriers, so the set of units round ``r+1`` plans is a
pure function of the results of rounds ``0..r``.  Serial and parallel
runs therefore take bit-identical stopping decisions, and a run killed
mid-round resumes from cache onto the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.stats.estimator import INTERVAL_METHODS, MeanEstimator, SequentialEstimator
from repro.stats.expectations import CellStats

__all__ = [
    "AdaptiveCell",
    "AdaptivePolicy",
    "AdaptiveRunResult",
    "AdaptiveScheduler",
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

    def stats(self) -> CellStats:
        return CellStats(self.axis, self.label, dict(self.estimators))


@dataclass
class AdaptiveRunResult:
    """The outcome of one adaptive-precision run."""

    scenario: object
    policy: AdaptivePolicy
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

    @property
    def fixed_trials(self) -> int:
        """What the scenario's fixed-count budget would have spent."""
        from repro.campaigns.kinds import KINDS

        return KINDS[self.scenario.kind].fixed_trials(self.scenario)

    def cell_stats(self) -> list[CellStats]:
        return [cell.stats() for cell in self.cells]

    def to_payload(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "adaptive": True,
            "rounds": self.rounds,
            "converged": self.converged,
            "trials_used": self.trials_used,
            "fixed_trials": self.fixed_trials,
            "units": {
                "computed": self.computed_units,
                "from_cache": self.cached_units,
            },
            "cells": [
                {
                    "axis": cell.axis,
                    "label": cell.label,
                    "trials": cell.trials,
                    "rounds": cell.rounds,
                    "converged": cell.converged,
                    "estimates": {
                        name: est.estimate
                        for name, est in cell.estimators.items()
                    },
                }
                for cell in self.cells
            ],
        }


class AdaptiveScheduler:
    """Run one scenario to a precision target instead of a trial count.

    Parameters
    ----------
    scenario:
        A registered/validated :class:`~repro.campaigns.spec.Scenario`.
        Its ``n_trials`` is ignored for planning (it defines the fixed
        budget the result is compared against) but still participates in
        the cache namespace.
    policy:
        Precision targets and round sizing; default
        :class:`AdaptivePolicy`.
    tracked:
        Which metrics gate each cell's stopping decision: ``None``
        tracks every metric the kind measures, a set tracks the same
        metrics everywhere, a ``{position: set}`` dict varies them per
        cell (validation tracks exactly the metrics with expectations).
        Untracked metrics still accumulate -- their trials are already
        paid for -- they just never hold a cell open.
    cache_dir / workers / persist:
        As for :class:`~repro.campaigns.runner.CampaignRunner`; round
        units share the scenario's cache namespace (their coordinates
        carry the round index, so they can never collide with
        fixed-plan units).
    """

    def __init__(
        self,
        scenario,
        policy: AdaptivePolicy | None = None,
        tracked: dict[int, set[str]] | set[str] | None = None,
        cache_dir: Path | str | None = None,
        workers: int | None = None,
        persist: bool = True,
    ):
        # Deferred import: repro.campaigns pulls its registry in, which
        # itself imports the expectation records from this package.
        from repro.campaigns.cache import ResultCache, default_cache_dir
        from repro.campaigns.kinds import KINDS, fixed_budget_only
        from repro.runtime import SweepExecutor

        self._kind = KINDS[scenario.kind]
        if not self._kind.adaptive:
            raise fixed_budget_only(scenario.kind)
        self.scenario = scenario
        self.policy = policy or AdaptivePolicy()
        self.executor = SweepExecutor(workers)
        self.persist = persist
        self.cache = (
            ResultCache(
                cache_dir if cache_dir is not None else default_cache_dir()
            )
            if persist
            else None
        )
        metrics = self._kind.metric_names()
        self._tracked: dict[int, tuple[str, ...]] = {}
        for position in range(scenario.grid_size()):
            if tracked is None:
                wanted: set[str] = set(metrics)
            elif isinstance(tracked, dict):
                wanted = set(tracked.get(position, metrics))
            else:
                wanted = set(tracked)
            unknown = wanted - set(metrics)
            if unknown:
                raise ValueError(
                    f"metric(s) {sorted(unknown)} are not measured by a "
                    f"{scenario.kind!r} scenario; available: {metrics}"
                )
            if not wanted:
                raise ValueError(
                    f"cell {position} tracks no metrics; every cell needs "
                    f"at least one stopping criterion"
                )
            self._tracked[position] = tuple(sorted(wanted))
        # Each tracked metric's stopping target: the policy's one
        # precision, or the one the kind declares for that metric.
        declared = {m.name: m.precision for m in self._kind.metrics}
        self._targets: dict[str, float] = {}
        for metric in set().union(*self._tracked.values()):
            target = self.policy.precision or declared[metric]
            if target is None:
                raise ValueError(
                    f"no default precision for metric {metric!r}; "
                    f"set AdaptivePolicy.precision explicitly"
                )
            self._targets[metric] = target

    # -- cell bookkeeping ----------------------------------------------

    def _new_cells(self) -> list[AdaptiveCell]:
        return [
            AdaptiveCell(
                position=position,
                axis=axis,
                label=self._kind.cell_label(self.scenario, axis),
                estimators=self._kind.estimators(),
                tracked=self._tracked[position],
            )
            for position, axis in enumerate(self.scenario.axis_values())
        ]

    def _absorb(self, cell: AdaptiveCell, coords: dict, result: dict) -> None:
        self._kind.absorb(cell.estimators, coords["n_trials"], result)
        cell.trials += coords["n_trials"]

    def _cell_done(self, cell: AdaptiveCell) -> bool:
        policy = self.policy
        if cell.trials < policy.min_trials:
            return False
        for metric in cell.tracked:
            estimator = cell.estimators[metric]
            target = self._targets[metric]
            if isinstance(estimator, SequentialEstimator):
                done = estimator.converged(
                    target, policy.confidence, policy.method
                )
            else:
                done = estimator.converged(target, policy.confidence)
            if not done:
                return False
        return True

    # -- execution -----------------------------------------------------

    def run(self) -> AdaptiveRunResult:
        """Round-submit until every cell converges or exhausts its budget.

        Cached round units (from an interrupted or earlier identical
        run) are loaded instead of recomputed; because stopping
        decisions are pure functions of accumulated unit results, the
        resumed trajectory is bit-identical to an uninterrupted one.
        """
        from repro.campaigns.runner import evaluate_unit, plan_scenario_units

        policy = self.policy
        result = AdaptiveRunResult(scenario=self.scenario, policy=policy)
        cells = self._new_cells()
        result.cells = cells
        active = list(range(len(cells)))
        round_index = 0
        # One worker pool for the whole run: rounds are many small
        # batches, and per-round pool startup would dominate them.
        with self.executor.pool_session():
            while active:
                planned: list[tuple[AdaptiveCell, object]] = []
                for position in active:
                    cell = cells[position]
                    chunk = min(policy.round_size, policy.max_trials - cell.trials)
                    for unit in plan_scenario_units(
                        self.scenario,
                        positions=[position],
                        n_trials=chunk,
                        round_index=round_index,
                    ):
                        planned.append((cell, unit))

                pending: list[tuple[AdaptiveCell, object]] = []
                for cell, unit in planned:
                    cached = (
                        None
                        if self.cache is None
                        else self.cache.get(self.scenario, unit.key)
                    )
                    if cached is not None:
                        self._absorb(cell, unit.coords, cached)
                        result.cached_units += 1
                    else:
                        pending.append((cell, unit))
                streamed = self.executor.imap(
                    evaluate_unit, [unit.spec for _, unit in pending]
                )
                for (cell, unit), unit_result in zip(pending, streamed):
                    if self.cache is not None:
                        self.cache.put(
                            self.scenario, unit.key, unit.coords, unit_result
                        )
                    self._absorb(cell, unit.coords, unit_result)
                    result.computed_units += 1

                still_active = []
                for position in active:
                    cell = cells[position]
                    cell.rounds += 1
                    if self._cell_done(cell):
                        cell.converged = True
                    elif cell.trials < policy.max_trials:
                        still_active.append(position)
                active = still_active
                round_index += 1
        result.rounds = round_index
        return result
