"""The scenario registry: every named run the repo knows how to reproduce.

Each scenario kind declares its built-in scenarios beside its other
rules (:attr:`~repro.campaigns.kinds.base.ScenarioKind.builtins`): the
paper's headline grids (passive BER by location, shielded/unshielded
attack success, the 100x-power sweep) and the grid entries its threat
model raises (battery drain, a crypto-only baseline, the MIMO
eavesdropper, population-scale fleet cohorts).  This module is the
lookup they are filled into, by iterating
:data:`~repro.campaigns.kinds.KINDS`; the campaign runner, cache, CLI
and examples all resolve scenarios from here, so a registered name is
immediately runnable, resumable and comparable.

A scenario is registered together with its *golden-figure expectation
table*: declarative :class:`~repro.stats.expectations.Expectation`
records stating what the paper's figures demand of its numbers.
``python -m repro validate`` judges runs against it; see
docs/validation.md.
"""

from __future__ import annotations

from repro.campaigns.kinds import KINDS
from repro.campaigns.spec import Scenario
from repro.stats.expectations import Expectation

__all__ = [
    "register",
    "get",
    "names",
    "all_scenarios",
    "expectations_for",
    "names_with_expectations",
]

#: Name -> (scenario, its expectation table): one entry, so a scenario
#: and the claims judged against its grid can never get out of step.
_REGISTRY: dict[str, tuple[Scenario, tuple[Expectation, ...]]] = {}


def register(
    scenario: Scenario, *expectations: Expectation, allow_replace: bool = False
) -> Scenario:
    """Add a scenario and its golden-figure expectations (names are unique).

    Expectations are validated against the scenario here -- the metric
    must be one the scenario's kind measures, and any named axes must
    exist on its grid -- so a typo fails at the registration boundary,
    not deep inside a validate run.  Replacing a scenario replaces its
    table with the one given.
    """
    if scenario.name in _REGISTRY and not allow_replace:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    # The same declarations the adaptive scheduler enforces at run time,
    # so registration-time checks can never drift from execution.
    known_metrics = KINDS[scenario.kind].metric_names()
    grid = set(scenario.axis_values())
    for expectation in expectations:
        if expectation.metric not in known_metrics:
            raise ValueError(
                f"metric {expectation.metric!r} is not measured by the "
                f"{scenario.kind!r} scenario {scenario.name!r}; "
                f"expected one of {known_metrics}"
            )
        if expectation.axes is not None:
            missing = [a for a in expectation.axes if a not in grid]
            if missing:
                raise ValueError(
                    f"expectation on {scenario.name!r} names grid point(s) "
                    f"{missing} the scenario does not sweep"
                )
    _REGISTRY[scenario.name] = (scenario, tuple(expectations))
    return scenario


def _register_builtins() -> None:
    """Register every kind's built-in scenarios with their tables."""
    for kind_name, kind in KINDS.items():
        for fields, expectations in kind.builtins:
            register(Scenario(kind=kind_name, **fields), *expectations)


def get(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return _REGISTRY[name][0]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def names() -> list[str]:
    return sorted(_REGISTRY)


def all_scenarios() -> list[Scenario]:
    return [get(name) for name in names()]


def expectations_for(name: str) -> tuple[Expectation, ...]:
    """The golden-figure expectations of a scenario (may be empty)."""
    get(name)  # surface unknown names with the standard error
    return _REGISTRY[name][1]


def names_with_expectations() -> list[str]:
    """Registered scenarios that have a golden-figure table."""
    return [name for name in names() if _REGISTRY[name][1]]


_register_builtins()
