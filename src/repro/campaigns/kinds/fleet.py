"""``fleet``: population cohorts (see docs/fleet.md).

The grid has one cell, the population; ``n_trials`` counts encounters
per patient and ``chunk_size`` patients per shard.  A cohort is one
population draw whose quantile sketches have no per-round stopping
statistic, so the kind is fixed-budget only.
"""

from __future__ import annotations

from repro.campaigns.cache import unit_hash
from repro.campaigns.kinds.attack import check_attacker
from repro.campaigns.kinds.base import (
    CampaignUnit, Metric, ScenarioKind, check_locations,
)
from repro.fleet.cohort import (
    FLEET_TASKS, cohort_from_scenario, validate_cohort_fields,
)
from repro.fleet.metrics import FleetAccumulator
from repro.fleet.runner import FleetChunkSpec, run_fleet_chunk
from repro.runtime import chunk_sizes
from repro.stats.expectations import Expectation

#: Patients per fleet work unit when the scenario does not set
#: ``chunk_size``.  Small enough that a shard's wall time stays in
#: seconds (resume granularity, pool balance), large enough that the
#: per-unit cache overhead vanishes against 10^4-10^6 patients.
DEFAULT_FLEET_SHARD = 100


class FleetKind(ScenarioKind):
    schema = 4
    payload_fields = ScenarioKind.payload_fields + (
        "n_patients", "fleet_task", "attacker", "command",
        "rhythm_prevalence", "location_weights", "shield_worn_fraction",
        "jam_margin_mean_db", "jam_margin_std_db", "p_thresh_std_db",
        "cancellation_std_db", "observation_days", "packets_per_record",
    )
    spec_type = FleetChunkSpec
    # The union over fleet tasks; a scenario populates only its task's.
    # ``absorb`` builds every estimator from the merged accumulator, and
    # a fixed-budget-only kind has no stopping precision.
    metrics = tuple(
        Metric(name)
        for name in (
            "attack_prevalence", "alarm_rate_per_day", "hr_leak_median_bpm",
            "hr_leak_p10_bpm", "hr_leak_p90_bpm", "mean_ber",
        )
    )
    builtins = (
        (
            dict(
                name="fleet-attack-prevalence",
                title=(
                    "Fleet: population prevalence of successful therapy "
                    "tampering"
                ),
                description=(
                    "A patient cohort with 90% shield adherence, "
                    "per-device calibration spread, and attacker "
                    "encounters drawn across the Fig. 6 geometry: what "
                    "fraction of the population has any successful "
                    "therapy-tampering attack?  The residual risk is the "
                    "non-adherent tail -- the ecosystem framing of "
                    "IMDfence and Newaz et al.'s healthcare-security "
                    "survey."
                ),
                tags=("extension", "fleet", "population", "active"),
                fleet_task="attack",
                attacker="fcc",
                command="therapy",
                n_patients=400,
                n_trials=2,
                shield_worn_fraction=0.9,
                location_indices=tuple(range(1, 15)),
            ),
            (
                Expectation(
                    metric="attack_prevalence", kind="upper_bound",
                    value=0.12,
                    note="Fleet: 90% shield adherence holds population "
                         "therapy-tampering prevalence near the "
                         "non-adherent tail",
                ),
                Expectation(
                    metric="attack_prevalence", kind="lower_bound",
                    value=0.02,
                    note="Fleet: the residual risk is real -- unshielded "
                         "patients at attackable range are reliably "
                         "compromised",
                ),
            ),
        ),
        (
            dict(
                name="fleet-privacy-leakage",
                title="Fleet: population distribution of heart-rate leakage",
                description=(
                    "Cardiac telemetry across a cohort with 80% shield "
                    "adherence and mixed rhythm prevalence: the median "
                    "patient's HR leaks nothing (error at the chance "
                    "floor), while the 10th percentile -- the unshielded "
                    "tail at clinical range -- still leaks to clinical "
                    "precision.  Population quantiles come from a "
                    "mergeable fixed-bin sketch, never a per-patient "
                    "list."
                ),
                tags=("extension", "fleet", "population", "privacy", "passive"),
                fleet_task="physio",
                n_patients=250,
                n_trials=1,
                packets_per_record=8,
                shield_worn_fraction=0.8,
                location_indices=tuple(range(1, 19)),
            ),
            (
                Expectation(
                    metric="hr_leak_median_bpm", kind="lower_bound",
                    value=20.0,
                    note="Fleet: the median patient's HR error sits at "
                         "the jamming chance floor -- tens of BPM, "
                         "clinically useless",
                ),
                Expectation(
                    metric="hr_leak_p10_bpm", kind="upper_bound", value=3.0,
                    note="Fleet: the 10th percentile (the unshielded tail "
                         "at clinical range) still leaks HR to a few BPM",
                ),
                Expectation(
                    metric="mean_ber", kind="lower_bound", value=0.35,
                    note="Fleet: population mean eavesdropper BER stays "
                         "near coin flips because most links are jammed",
                ),
            ),
        ),
        (
            dict(
                name="fleet-alarm-burden",
                title="Fleet: alarm burden per patient-day at full adherence",
                description=(
                    "Every patient wears the shield; unauthorized "
                    "interrogation attempts arrive across the geometry.  "
                    "The shield blocks every one (prevalence ~0) while "
                    "the audible alarm fires only on near-range attempts "
                    "-- the usability cost of the defense, measured as "
                    "alarms per patient-day across the population."
                ),
                tags=("extension", "fleet", "population", "active"),
                fleet_task="attack",
                attacker="fcc",
                command="interrogate",
                n_patients=300,
                n_trials=4,
                shield_worn_fraction=1.0,
                observation_days=1.0,
                location_indices=tuple(range(1, 15)),
            ),
            (
                Expectation(
                    metric="attack_prevalence", kind="upper_bound",
                    value=0.02,
                    note="Fleet: at full adherence the shield blocks "
                         "every interrogation across the population",
                ),
                Expectation(
                    metric="alarm_rate_per_day", kind="upper_bound",
                    value=0.6,
                    note="Fleet: the audible-alarm burden stays well under "
                         "one alarm per patient-day -- only near-range "
                         "attempts fire",
                ),
                Expectation(
                    metric="alarm_rate_per_day", kind="lower_bound",
                    value=0.1,
                    note="Fleet: alarms do fire on close-range attempts -- "
                         "the patient is actually notified (S7(d))",
                ),
            ),
        ),
    )
    adaptive = False
    report_headers = ("population", "metric", "value", "note")

    def validate(self, scenario) -> None:
        check_locations(scenario)
        check_attacker(scenario)
        if scenario.fleet_task not in FLEET_TASKS:
            raise ValueError(
                f"unknown fleet task {scenario.fleet_task!r}; "
                f"expected one of {FLEET_TASKS}"
            )
        if scenario.packets_per_record < 1:
            raise ValueError(
                f"packets_per_record must be positive, "
                f"got {scenario.packets_per_record}"
            )
        validate_cohort_fields(
            n_patients=scenario.n_patients,
            rhythm_prevalence=scenario.rhythm_prevalence,
            location_indices=scenario.location_indices,
            location_weights=scenario.location_weights,
            shield_worn_fraction=scenario.shield_worn_fraction,
            jam_margin_mean_db=scenario.jam_margin_mean_db,
            jam_margin_std_db=scenario.jam_margin_std_db,
            p_thresh_std_db=scenario.p_thresh_std_db,
            cancellation_std_db=scenario.cancellation_std_db,
            observation_days=scenario.observation_days,
        )

    def axis_values(self, scenario) -> tuple:
        return ("population",)

    def cell_label(self, scenario, axis) -> str:
        return f"cohort of {scenario.n_patients} patients"

    def summary(self, scenario) -> str:
        encounter = (
            "attack encounters"
            if scenario.fleet_task == "attack"
            else "telemetry records"
        )
        return (
            f"{scenario.n_patients}-patient cohort "
            f"({scenario.shield_worn_fraction:.0%} shield-worn) x "
            f"{scenario.n_trials} {encounter}"
        )

    def budget(self, scenario, budget: str) -> dict:
        # Population statistics converge in patients, not encounters.
        if budget == "smoke":
            return {
                "n_patients": min(scenario.n_patients, 30),
                "n_trials": min(scenario.n_trials, 2),
            }
        if budget == "full":
            return {"n_patients": scenario.n_patients * 4}
        return {}

    def plan(self, scenario, positions, trials, round_index):
        """Shard the cohort into contiguous patient-range work units.

        Patient streams are keyed by absolute patient index, so the
        shard layout sets only the caching/parallelism grain.
        """
        cohort = cohort_from_scenario(scenario)
        shard = scenario.chunk_size or DEFAULT_FLEET_SHARD
        units = []
        start = 0
        for shard_index, size in enumerate(
            chunk_sizes(scenario.n_patients, shard)
        ):
            coords = {
                "kind": scenario.kind,
                "shard": shard_index,
                "start": start,
                "n_patients": size,
                "n_trials": trials,
            }
            spec = FleetChunkSpec(
                cohort=cohort,
                start=start,
                count=size,
                trials_per_patient=trials,
                task=scenario.fleet_task,
                attacker=scenario.attacker,
                command=scenario.command,
                packets_per_record=scenario.packets_per_record,
            )
            units.append(CampaignUnit(unit_hash(coords), coords, spec))
            start += size
        return units

    def evaluate(self, spec) -> dict:
        return run_fleet_chunk(spec)

    def reduce(self, scenario, units, results):
        """Merge shard accumulators into the one population point.

        Memory is O(1) in cohort size.  The merged accumulator rides
        along so validation rebuilds exact estimators from the point.
        """
        merged = FleetAccumulator()
        for result in results:
            merged.merge(FleetAccumulator.from_payload(result))
        point: dict = {
            "axis": "population",
            "label": self.cell_label(scenario, "population"),
            "n_patients": merged.patients,
            "shield_worn": merged.shield_worn,
            "trials_total": merged.trials_total,
            "patient_days": merged.patient_days,
            "accumulator": merged.to_payload(),
        }
        if merged.patients:
            point["shield_worn_fraction"] = merged.shield_worn / merged.patients
        if scenario.fleet_task == "attack":
            point.update(
                attack_prevalence=merged.prevalence_estimator().estimate,
                patients_compromised=merged.patients_compromised,
                wins_total=merged.wins_total,
                alarms_total=merged.alarms_total,
                alarm_rate_per_day=merged.alarm_rate_estimator().estimate,
            )
        else:
            point.update(
                hr_leak_median_bpm=merged.hr_quantile_estimator(0.5).estimate,
                hr_leak_p10_bpm=merged.hr_quantile_estimator(0.1).estimate,
                hr_leak_p90_bpm=merged.hr_quantile_estimator(0.9).estimate,
                mean_hr_leak_bpm=merged.hr_err_sum / merged.physio_patients,
                mean_ber=merged.mean_ber_estimator().estimate,
                ber_strata=dict(merged.strata),
            )
        return [point]

    def headline(self, scenario) -> str:
        return (
            "attack_prevalence"
            if scenario.fleet_task == "attack"
            else "hr_leak_median_bpm"
        )

    def estimators(self) -> dict:
        # Population quantiles have no fresh-estimator form: absorb
        # builds every estimator from the merged accumulator.
        return {}

    def absorb(self, estimators, n, data):
        # Only the metrics this cohort's task simulated: a zero-count
        # prevalence estimator must stay absent (inconclusive), not
        # read as a measured 0%.
        acc = FleetAccumulator.from_payload(data["accumulator"])
        if acc.trials_total:
            estimators["attack_prevalence"] = acc.prevalence_estimator()
            estimators["alarm_rate_per_day"] = acc.alarm_rate_estimator()
        if acc.physio_patients:
            estimators["hr_leak_median_bpm"] = acc.hr_quantile_estimator(0.5)
            estimators["hr_leak_p10_bpm"] = acc.hr_quantile_estimator(0.1)
            estimators["hr_leak_p90_bpm"] = acc.hr_quantile_estimator(0.9)
            estimators["mean_ber"] = acc.mean_ber_estimator()

    def fixed_trials(self, scenario) -> int:
        return scenario.n_trials * scenario.n_patients

    def report_rows(self, scenario, points):
        (point,) = points
        worn = f"{point.get('shield_worn_fraction', 0.0):.0%}"
        rows = [("shield adherence", worn, "")]
        if scenario.fleet_task == "attack":
            compromised = point["patients_compromised"]
            rows.append((
                "attack prevalence",
                f"{point['attack_prevalence']:.3f}",
                f"{compromised} patient(s) compromised",
            ))
            rows.append((
                "alarms / patient-day",
                f"{point['alarm_rate_per_day']:.3f}",
                f"{point['alarms_total']} alarm(s) total",
            ))
        else:
            leak = " / ".join(
                f"{point[f'hr_leak_{q}_bpm']:.1f}" for q in ("median", "p10", "p90")
            )
            strata = point["ber_strata"]
            rows.append((
                "HR leak median / p10 / p90",
                f"{leak} bpm",
                "p10 = the unshielded tail",
            ))
            rows.append((
                "BER strata",
                " / ".join(f"{k} {v}" for k, v in strata.items()),
                f"mean BER {point['mean_ber']:.2f}",
            ))
        return [(point["label"], *row) for row in rows]


KIND = FleetKind()
