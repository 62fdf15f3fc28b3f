"""``attack``: the Fig. 11/12/13 active-adversary sweeps.

Fix the adversary's hardware class and command, walk it through the
numbered Fig. 6 locations, run N trials at each, and count wins (and
shield alarms).  A unit is one block of trials at one location
(:func:`run_attack_chunk`); an unsharded location keeps the integer
``seed + location`` seed, so a location's numbers are a pure function
of ``(seed, location)`` whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaigns.kinds.base import ScenarioKind, check_locations
from repro.experiments.metrics import success_probability
from repro.experiments.testbed import AttackTestbed

#: Outcome fields a sweep may count as a "win"; ``"auto"`` selects the
#: paper's metric for the command (therapy changes for ``"therapy"``,
#: IMD replies for ``"interrogate"``).
ATTACK_METRICS = ("auto", "imd_responded", "therapy_changed", "imd_accepted")

_ATTACKERS = ("fcc", "highpower")
_COMMANDS = ("interrogate", "therapy")


@dataclass(frozen=True)
class AttackChunkSpec:
    """One self-contained work unit: a block of trials at one location.

    Everything a worker needs travels in the spec (it must survive
    pickling into a process pool); ``seed`` is either the integer for a
    whole-location block or the chunk's own
    :class:`numpy.random.SeedSequence` when a location's trials are
    sharded.  ``chunk_index`` is the block's position inside its
    location's trial plan.
    """

    location_index: int
    n_trials: int
    command: str
    attacker: str
    shield_present: bool
    antenna_gain_dbi: float | None
    seed: int | np.random.SeedSequence
    metric: str = "auto"
    chunk_index: int = 0


def run_attack_chunk(spec: AttackChunkSpec) -> tuple[int, int]:
    """Evaluate one work unit: (successes, alarms) over its trials."""
    bed = AttackTestbed(
        location_index=spec.location_index,
        shield_present=spec.shield_present,
        attacker=spec.attacker,
        seed=spec.seed,
        antenna_gain_dbi=spec.antenna_gain_dbi,
        # Outcomes are read from the IMD's and shield's own counters, so
        # the sweep skips the observer USRP's per-packet receptions.
        observer_enabled=False,
    )
    outcomes = bed.run_trials(spec.n_trials, command=spec.command)
    metric = spec.metric
    if metric == "auto":
        metric = "therapy_changed" if spec.command == "therapy" else "imd_responded"
    wins = sum(getattr(o, metric) for o in outcomes)
    alarms = sum(o.alarm_raised for o in outcomes)
    return wins, alarms


def check_attacker(scenario) -> None:
    """Reject an unknown active attacker, command or win metric."""
    if scenario.attacker not in _ATTACKERS:
        raise ValueError(
            f"unknown attacker {scenario.attacker!r}; "
            f"expected one of {_ATTACKERS}"
        )
    if scenario.command not in _COMMANDS:
        raise ValueError(
            f"unknown command {scenario.command!r}; "
            f"expected one of {_COMMANDS}"
        )
    if scenario.metric not in ATTACK_METRICS:
        raise ValueError(
            f"unknown metric {scenario.metric!r}; "
            f"expected one of {ATTACK_METRICS}"
        )


class AttackKind(ScenarioKind):
    schema = 3
    payload_fields = ScenarioKind.payload_fields + (
        "attacker", "command", "shield_present", "metric", "antenna_gain_dbi",
    )
    spec_type = AttackChunkSpec
    metrics = ("success_probability", "alarm_probability")
    int_seed = True
    report_headers = ("location", "success", "alarm", "95% CI")

    def validate(self, scenario) -> None:
        check_locations(scenario)
        check_attacker(scenario)

    def summary(self, scenario) -> str:
        shield = "shield on" if scenario.shield_present else "shield off"
        return (
            f"{scenario.attacker} attacker, {scenario.command} command, "
            f"{shield}, {len(scenario.location_indices)} locations x "
            f"{scenario.n_trials} trials"
        )

    def make_spec(self, scenario, cell, chunk_index, size, seed):
        return AttackChunkSpec(
            location_index=cell,
            n_trials=size,
            command=scenario.command,
            attacker=scenario.attacker,
            shield_present=scenario.shield_present,
            antenna_gain_dbi=scenario.antenna_gain_dbi,
            seed=seed,
            metric=scenario.metric,
            chunk_index=chunk_index,
        )

    def evaluate(self, spec) -> dict:
        wins, alarms = run_attack_chunk(spec)
        return {"wins": int(wins), "alarms": int(alarms)}

    def point(self, scenario, sums):
        # The integer counts ride along for intervals and merges.
        return {
            "success_probability": sums["wins"] / scenario.n_trials,
            "alarm_probability": sums["alarms"] / scenario.n_trials,
            "wins": sums["wins"],
            "alarms": sums["alarms"],
            "n_trials": scenario.n_trials,
        }

    def absorb(self, estimators, n, data):
        estimators["success_probability"].update(data["wins"], n)
        estimators["alarm_probability"].update(data["alarms"], n)

    def report_rows(self, scenario, points):
        rows = []
        for point in points:
            _, low, high = success_probability(point["wins"], point["n_trials"])
            rows.append((
                point["label"],
                f"{point['success_probability']:.2f}",
                f"{point['alarm_probability']:.2f}",
                f"[{low:.2f}, {high:.2f}]",
            ))
        return rows


KIND = AttackKind()
