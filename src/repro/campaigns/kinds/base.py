"""The scenario-kind protocol and the helpers the built-in kinds share."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.campaigns.cache import unit_hash
from repro.runtime import chunk_sizes
from repro.runtime.seeding import round_seed_sequence, unit_seed_sequence
from repro.stats.estimator import MeanEstimator, SequentialEstimator

#: ``validate --budget`` presets for grid kinds: fixed trials per grid
#: point (None = the scenario's registered budget) and whether to
#: shrink the grid to three representative cells (first / middle /
#: last).
BUDGETS = {
    "smoke": {"n_trials": 4, "shrink_grid": True},
    "default": {"n_trials": None, "shrink_grid": False},
    "full": {"n_trials": 100, "shrink_grid": False},
}


@dataclass(frozen=True)
class CampaignUnit:
    """One schedulable work unit: content key, plan coordinates, spec."""

    key: str
    coords: dict
    spec: object


@dataclass(frozen=True)
class Metric:
    """One quantity a kind's units measure, declared once by that kind.

    ``estimator`` builds a fresh, empty estimator of the metric's
    family (``None`` when the kind builds its estimators itself, as the
    fleet kind does from its accumulator); ``precision`` is the CI
    half-width adaptive stopping targets unless
    :attr:`~repro.stats.adaptive.AdaptivePolicy.precision` overrides
    it (``None`` for a fixed-budget-only kind).  ``moments`` names a
    mean metric's (sum, sum-of-squares) keys in a unit result and in a
    reduced point.
    """

    name: str
    estimator: Callable[[], object] | None = None
    precision: float | None = None
    moments: tuple[str, str] | None = None


def proportion(name: str, *, precision: float) -> Metric:
    """A success fraction, estimated by the binomial
    :class:`~repro.stats.estimator.SequentialEstimator`."""
    return Metric(name, SequentialEstimator, precision)


def mean(
    name: str,
    *,
    bounds: tuple[float, float] | None,
    precision: float,
    moments: tuple[str, str],
) -> Metric:
    """A per-trial mean whose interval clips to its physical ``bounds``
    (``None``: unbounded), estimated from the streaming ``moments``."""
    return Metric(
        name, functools.partial(MeanEstimator, bounds=bounds), precision, moments
    )


@functools.cache
def _testbed():
    """The default Fig. 6 geometry every scenario compiles against."""
    from repro.channel.geometry import TestbedGeometry

    return TestbedGeometry()


def location_label(index: int) -> str:
    """Human label of one Fig. 6 testbed location."""
    location = _testbed().location(index)
    sight = "LOS" if location.line_of_sight else "NLOS"
    return f"location {index} ({location.distance_m:g} m {sight})"


def check_locations(scenario) -> None:
    """Reject an empty, repeated or off-testbed ``location_indices``.

    An index outside the testbed would only fail deep inside a run;
    rejecting it at spec time keeps the error at the CLI/registration
    boundary.
    """
    if not scenario.location_indices:
        raise ValueError("scenario needs at least one location")
    if len(set(scenario.location_indices)) != len(scenario.location_indices):
        raise ValueError("location_indices must be unique")
    known = frozenset(loc.index for loc in _testbed().locations)
    bad = [loc for loc in scenario.location_indices if loc not in known]
    if bad:
        raise ValueError(
            f"unknown testbed location(s) {bad}; the Fig. 6 geometry "
            f"numbers locations {min(known)}-{max(known)}"
        )


def fixed_budget_only(kind: str) -> ValueError:
    """The error an adaptive round of a fixed-budget-only kind raises."""
    return ValueError(
        f"{kind} scenarios run fixed-budget only: they have no per-round "
        f"stopping statistic, so adaptive rounds are not planned for "
        f"kind={kind!r}; validate them without --adaptive (the CLI does "
        f"this automatically)"
    )


class ScenarioKind:
    """Everything one scenario kind decides.

    The defaults describe the common kind: a grid over Fig. 6 testbed
    locations, split into trial chunks, whose unit results are sums
    that reduce by plain addition.  Such a kind sets ``schema``,
    ``spec_type``, ``metrics``, ``builtins`` and ``report_headers`` and
    defines:

    * ``make_spec(scenario, cell, chunk_index, size, seed)`` -- the
      picklable unit spec of one chunk of ``size`` trials;
    * ``evaluate(spec)`` -- one unit's result, a JSON-ready dict of sums;
    * ``point(scenario, sums)`` -- one grid point's fields from its
      summed unit results;
    * ``absorb(estimators, n, data)`` -- fold one unit result (adaptive
      path) or one reduced point (fixed path) of ``n`` trials into the
      :meth:`estimators`, so both paths hold the same statistics;
    * ``summary(scenario)`` -- one human line;
    * ``report_rows(scenario, points)`` -- the ``repro run`` table rows,
      4-tuples of strings under ``report_headers`` (label, two values,
      note).

    ``schema`` is the payload schema version: the version at which the
    kind's payload semantics or unit-result shape last changed.  It is
    part of the content hash and it is per kind, so adding a kind never
    changes -- never orphans -- another kind's cached results.
    ``payload_fields`` are the scenario fields the hash covers; every
    other field is display or belongs to another kind.  ``metrics``
    declares what the units measure, one :class:`Metric` each, headline
    first.  ``builtins`` are the kind's named scenarios, each a mapping
    of :class:`~repro.campaigns.spec.Scenario` fields (``kind`` aside)
    paired with the golden-figure
    :class:`~repro.stats.expectations.Expectation` tuple ``repro
    validate`` judges it by; the registry builds and registers them.
    ``axis_field`` is the scenario field the grid sweeps and ``coord``
    the unit coordinate naming a cell; with ``int_seed`` an unsharded
    cell keeps the legacy ``seed + cell`` integer seed.
    """

    schema: int
    payload_fields = ("seed", "n_trials", "chunk_size", "location_indices")
    spec_type: type
    metrics: tuple[Metric, ...]
    builtins: tuple[tuple[dict, tuple], ...] = ()
    adaptive = True
    axis_field = "location_indices"
    coord = "location"
    int_seed = False
    report_headers: tuple[str, str, str, str]

    def validate(self, scenario) -> None:
        """Raise ``ValueError`` on a field value this kind cannot run."""
        check_locations(scenario)

    def axis_values(self, scenario) -> tuple:
        """The grid axis this scenario sweeps, one value per cell."""
        return getattr(scenario, self.axis_field)

    def cells(self, scenario):
        """The ``coord`` value of each grid cell, in axis order."""
        return self.axis_values(scenario)

    def cell_label(self, scenario, axis) -> str:
        return location_label(axis)

    def budget(self, scenario, budget: str) -> dict:
        """The field changes one :data:`BUDGETS` preset makes."""
        preset = BUDGETS[budget]
        changes: dict = {}
        if preset["n_trials"] is not None:
            changes["n_trials"] = preset["n_trials"]
        if preset["shrink_grid"]:
            axes = self.axis_values(scenario)
            picks = sorted({0, len(axes) // 2, len(axes) - 1})
            changes[self.axis_field] = tuple(axes[i] for i in picks)
        return changes

    def plan(self, scenario, positions, trials: int, round_index) -> list:
        """The :class:`CampaignUnit` list of the given grid positions.

        A unit's key and RNG stream are pure functions of (cell, chunk,
        trials[, round]) -- never of which cells are planned together.
        """
        units = []
        cells = self.cells(scenario)
        for position in positions:
            cell = cells[position]
            sizes = chunk_sizes(trials, scenario.chunk_size)
            for chunk, size in enumerate(sizes):
                if round_index is not None:
                    seed = round_seed_sequence(
                        scenario.seed, cell, round_index, chunk
                    )
                elif self.int_seed and len(sizes) == 1:
                    seed = scenario.seed + cell
                else:
                    seed = unit_seed_sequence(scenario.seed, (cell, chunk))
                coords = {
                    "kind": scenario.kind,
                    self.coord: cell,
                    "chunk": chunk,
                    "n_trials": size,
                }
                if round_index is not None:
                    coords["round"] = round_index
                spec = self.make_spec(scenario, cell, chunk, size, seed)
                units.append(CampaignUnit(unit_hash(coords), coords, spec))
        return units

    def reduce(self, scenario, units, results) -> list[dict]:
        """One point per grid cell: every result field summed in plan
        order, so cached and fresh unit mixes reduce to the same floats."""
        sums: dict = {}
        for unit, result in zip(units, results):
            bucket = sums.setdefault(unit.coords[self.coord], {})
            for key, value in result.items():
                bucket[key] = bucket.get(key, 0) + value
        return [
            {
                "axis": axis,
                "label": self.cell_label(scenario, axis),
                **self.point(scenario, sums[cell]),
            }
            for cell, axis in zip(
                self.cells(scenario), self.axis_values(scenario)
            )
        ]

    def headline(self, scenario) -> str:
        """The per-point quantity reports, compares and stopping lead with."""
        return self.metrics[0].name

    def metric_names(self) -> tuple[str, ...]:
        """Every metric the units measure, headline first."""
        return tuple(metric.name for metric in self.metrics)

    def estimators(self) -> dict:
        """Fresh estimators, one per metric, for ``absorb`` to fill."""
        return {metric.name: metric.estimator() for metric in self.metrics}

    def absorb_means(self, estimators, count: int, data) -> None:
        """Fold every mean metric's moments over ``count`` samples in
        ``data`` into its estimator."""
        for metric in self.metrics:
            if metric.moments is not None:
                total, sq_total = metric.moments
                estimators[metric.name].update(
                    count, data[total], data[sq_total]
                )

    def fixed_trials(self, scenario) -> int:
        """Trials the scenario's fixed budget spends."""
        return scenario.n_trials * scenario.grid_size()
