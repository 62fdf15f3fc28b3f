"""``attack``: the Fig. 11/12/13 active-adversary sweeps.

Units run :func:`~repro.experiments.sweeps.run_attack_chunk` with the
seeds of :func:`~repro.experiments.sweeps.plan_attack_chunks`, so a
campaign reproduces :func:`attack_success_sweep` number for number.
"""

from __future__ import annotations

from repro.campaigns.kinds.base import (
    ScenarioKind, check_attacker, check_locations,
)
from repro.experiments.metrics import success_probability
from repro.experiments.sweeps import AttackChunkSpec, run_attack_chunk


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
