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

from repro.campaigns.kinds.base import ScenarioKind, check_locations, proportion
from repro.experiments.metrics import success_probability
from repro.experiments.testbed import AttackTestbed
from repro.stats.expectations import Expectation

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
    # +/-0.10 is tighter than a fixed 25-trial sweep resolves mid-range.
    metrics = (
        proportion("success_probability", precision=0.10),
        proportion("alarm_probability", precision=0.10),
    )
    builtins = (
        # --- the paper's figures --------------------------------------
        (
            dict(
                name="attack-success-unshielded",
                title="Fig. 12: therapy tampering against the bare IMD",
                description=(
                    "An FCC-power adversary sends unauthorized therapy "
                    "commands at each location; without the shield it "
                    "succeeds out to ~14 m."
                ),
                tags=("paper", "fig12", "active"),
                attacker="fcc",
                command="therapy",
                shield_present=False,
                location_indices=tuple(range(1, 15)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="lower_bound",
                    value=0.9, axes=(1, 2, 3, 4, 5, 6),
                    note="Fig. 12: the bare IMD is reliably compromised "
                         "out to several metres",
                ),
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05, axes=(10, 11, 12, 13, 14),
                    note="Fig. 12: path loss alone ends the attack at the "
                         "far NLOS locations",
                ),
            ),
        ),
        (
            dict(
                name="attack-success-shielded",
                title="Fig. 12: therapy tampering against the shielded IMD",
                description=(
                    "The same FCC-power therapy attack with the shield "
                    "worn: the reactive jammer should hold the success "
                    "probability at zero everywhere."
                ),
                tags=("paper", "fig12", "active"),
                attacker="fcc",
                command="therapy",
                shield_present=True,
                location_indices=tuple(range(1, 15)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05,
                    note="Fig. 12: >99% attack-packet rejection -- the "
                         "reactive jammer holds success at zero everywhere",
                ),
            ),
        ),
        (
            dict(
                name="highpower-unshielded",
                title="Fig. 13: 100x-power directional adversary, bare IMD",
                description=(
                    "The high-power attacker with a directional antenna "
                    "sweeps all 18 locations against the unshielded IMD."
                ),
                tags=("paper", "fig13", "active", "highpower"),
                attacker="highpower",
                command="therapy",
                shield_present=False,
                location_indices=tuple(range(1, 19)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="lower_bound",
                    value=0.9, axes=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
                    note="Fig. 13: 100x power plus a directional antenna "
                         "compromises the bare IMD across the room",
                ),
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05, axes=(15, 16, 17, 18),
                    note="Fig. 13: even 100x power dies at the farthest "
                         "NLOS spots",
                ),
            ),
        ),
        (
            dict(
                name="highpower-shielded",
                title="Fig. 13: 100x-power directional adversary vs. the "
                      "shield",
                description=(
                    "The intrinsic limitation: raw power beats jamming "
                    "only from nearby line-of-sight spots, and every "
                    "dangerous transmission raises the patient alarm."
                ),
                tags=("paper", "fig13", "active", "highpower"),
                attacker="highpower",
                command="therapy",
                shield_present=True,
                location_indices=tuple(range(1, 19)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="lower_bound",
                    value=0.9, axes=(1, 2),
                    note="Fig. 13: raw power beats jamming only from "
                         "nearby line-of-sight spots (the intrinsic "
                         "limitation)",
                ),
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05, axes=tuple(range(7, 19)),
                    note="Fig. 13: beyond a few metres the shield holds "
                         "even against 100x power",
                ),
                Expectation(
                    metric="alarm_probability", kind="lower_bound",
                    value=0.9, axes=(1, 2, 3, 4, 5, 6),
                    note="S6: every dangerous transmission near the "
                         "patient raises the audible alarm",
                ),
            ),
        ),
        # --- beyond the paper's figures -------------------------------
        (
            dict(
                name="battery-drain-unshielded",
                title="Battery-DoS: sustained interrogation of the bare IMD",
                description=(
                    "The battery-depletion attacker model of Siddiqi et "
                    "al. (arXiv:1904.06893): repeated interrogations "
                    "force the IMD to receive and reply, draining a "
                    "~20 kJ battery from across the room."
                ),
                tags=("extension", "battery-dos"),
                attacker="fcc",
                command="interrogate",
                metric="imd_responded",
                shield_present=False,
                location_indices=tuple(range(1, 15)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="lower_bound",
                    value=0.9, axes=(1, 2, 3, 4, 5, 6),
                    note="Battery-DoS (arXiv:1904.06893): the bare IMD "
                         "answers every interrogation at close range",
                ),
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05, axes=(10, 11, 12, 13, 14),
                    note="Battery-DoS: the drain needs link margin; far "
                         "NLOS locations are safe",
                ),
            ),
        ),
        (
            dict(
                name="battery-drain-shielded",
                title="Battery-DoS: sustained interrogation vs. the shield",
                description=(
                    "The same sustained interrogation with the shield "
                    "worn; the reactive jammer keeps the IMD from ever "
                    "decoding the command, so the drain never starts."
                ),
                tags=("extension", "battery-dos"),
                attacker="fcc",
                command="interrogate",
                metric="imd_responded",
                shield_present=True,
                location_indices=tuple(range(1, 15)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05,
                    note="Battery-DoS: the shield stops the drain before "
                         "it starts -- the IMD never decodes the "
                         "interrogation",
                ),
            ),
        ),
        (
            dict(
                name="crypto-only-baseline",
                title="Crypto-only baseline: authenticated IMD, no shield",
                description=(
                    "No shield; commands are gated by authentication, so "
                    "therapy tampering is cryptographically blocked -- "
                    "but every delivered packet still reaches the IMD's "
                    "receiver and costs verify energy.  The metric counts "
                    "packets the bare IMD decodes (imd_accepted): the "
                    "residual battery-DoS surface crypto alone cannot "
                    "close (IMDfence, Siddiqi et al.)."
                ),
                tags=("extension", "crypto", "battery-dos"),
                attacker="fcc",
                command="interrogate",
                metric="imd_accepted",
                shield_present=False,
                location_indices=tuple(range(1, 15)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="success_probability", kind="lower_bound",
                    value=0.9, axes=(1, 2, 3, 4, 5, 6),
                    note="IMDfence: authentication cannot stop packet "
                         "delivery; the receive/verify energy drain "
                         "remains",
                ),
            ),
        ),
    )
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
