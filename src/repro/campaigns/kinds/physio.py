"""``physio``: cardiac-content leakage (see docs/physiology.md).

``n_trials`` counts cardiac records per location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaigns.kinds.base import (
    ScenarioKind, check_locations, mean, proportion,
)
from repro.physio.ecg import RHYTHM_CHOICES
from repro.stats.expectations import Expectation

_NON_NEGATIVE = (0.0, float("inf"))

#: Mean-valued metric -> the (sum, sum-of-squares) keys of a unit
#: result and of a reduced point; ``rhythm_accuracy`` is a proportion
#: and is absorbed separately.
MOMENT_KEYS: dict[str, tuple[str, str]] = {
    "hr_abs_error": ("hr_err_sum", "hr_err_sqsum"),
    "hr_error_vs_chance": ("hr_gap_sum", "hr_gap_sqsum"),
    "hr_abs_error_clear": ("hr_err_clear_sum", "hr_err_clear_sqsum"),
    "beat_f1": ("beat_f1_sum", "beat_f1_sqsum"),
    "waveform_nrmse": ("nrmse_sum", "nrmse_sqsum"),
}


@dataclass(frozen=True)
class PhysioChunkSpec:
    """One block of cardiac telemetry records at one location."""

    location_index: int
    n_records: int
    jam_margin_db: float
    shield_present: bool
    rhythm: str
    packets_per_record: int
    seed: int | np.random.SeedSequence


class PhysioKind(ScenarioKind):
    schema = 3
    payload_fields = ScenarioKind.payload_fields + (
        "jam_margin_db", "shield_present", "rhythm", "packets_per_record",
    )
    spec_type = PhysioChunkSpec
    # Heart-rate errors are in BPM: +/-3 BPM separates "leaks the heart
    # rate" from the ~45 BPM chance regime without demanding thousands
    # of records.  The versus-chance gap can be negative.
    metrics = (
        mean("hr_abs_error", bounds=_NON_NEGATIVE, precision=3.0),
        mean("hr_error_vs_chance", bounds=None, precision=3.0),
        mean("hr_abs_error_clear", bounds=_NON_NEGATIVE, precision=3.0),
        mean("beat_f1", bounds=(0.0, 1.0), precision=0.05),
        proportion("rhythm_accuracy", precision=0.10),
        mean("waveform_nrmse", bounds=_NON_NEGATIVE, precision=0.05),
    )
    builtins = (
        (
            dict(
                name="physio-leakage-by-location",
                title=(
                    "Privacy: heart-rate leakage from bare telemetry, by "
                    "location"
                ),
                description=(
                    "The IMD streams cardiac telemetry (encoded IEGM "
                    "windows + beat annotations) with no shield; an "
                    "eavesdropper at every testbed location runs the "
                    "bits-to-vitals pipeline.  Out to ~10 m the heart "
                    "rate leaks to well under 2 BPM; past the NLOS knee "
                    "the raw BER alone destroys the content."
                ),
                tags=("extension", "physio", "privacy", "passive"),
                shield_present=False,
                rhythm="normal",
                location_indices=tuple(range(1, 19)),
                n_trials=25,
            ),
            (
                Expectation(
                    metric="hr_abs_error", kind="upper_bound", value=2.0,
                    axes=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                    note="Bare telemetry: heart rate leaks to clinical "
                         "precision (< 2 BPM) everywhere the link is clean",
                ),
                Expectation(
                    metric="beat_f1", kind="lower_bound", value=0.9,
                    axes=(1, 2, 3, 4, 5, 6),
                    note="Bare telemetry: near the patient, every "
                         "individual beat is recoverable",
                ),
                Expectation(
                    metric="waveform_nrmse", kind="upper_bound", value=0.05,
                    axes=(1, 2, 3, 4, 5, 6),
                    note="Bare telemetry: the waveform itself reconstructs "
                         "to a few percent of its span",
                ),
                Expectation(
                    metric="hr_abs_error", kind="lower_bound", value=10.0,
                    axes=(17, 18),
                    note="Path loss alone ends the privacy leak at the far "
                         "NLOS spots: raw BER ~0.5 destroys the content",
                ),
            ),
        ),
        (
            dict(
                name="physio-leakage-shielded",
                title=(
                    "Privacy: the shield drives heart-rate inference to "
                    "chance"
                ),
                description=(
                    "The same cardiac telemetry with the shield jamming "
                    "at +20 dB: the attacker's heart-rate error becomes "
                    "statistically indistinguishable from a coin-flip "
                    "chance baseline at every distance, while the "
                    "clear-channel reference confirms the content was "
                    "there to steal."
                ),
                tags=("extension", "physio", "privacy", "passive"),
                shield_present=True,
                jam_margin_db=20.0,
                rhythm="mixed",
                location_indices=(1, 9, 17),
                n_trials=100,
            ),
            (
                Expectation(
                    metric="hr_error_vs_chance", kind="ci_overlap",
                    value=0.0, tolerance=15.0,
                    note="Shield on: attacker HR error is statistically "
                         "indistinguishable from the coin-flip chance "
                         "baseline",
                ),
                Expectation(
                    metric="hr_abs_error", kind="lower_bound", value=25.0,
                    note="Shield on: HR estimates are tens of BPM off -- "
                         "clinically useless at every location",
                ),
                Expectation(
                    metric="hr_abs_error_clear", kind="upper_bound",
                    value=2.0, axes=(1, 9),
                    note="Clear-channel reference: without the shield the "
                         "same records leak HR to < 2 BPM at the near "
                         "locations",
                ),
                Expectation(
                    metric="rhythm_accuracy", kind="upper_bound", value=0.5,
                    note="Shield on: rhythm classification collapses to "
                         "the chance prior",
                ),
                Expectation(
                    metric="beat_f1", kind="upper_bound", value=0.4,
                    note="Shield on: beat detection is no better than "
                         "random peak picking",
                ),
            ),
        ),
        (
            dict(
                name="physio-rhythm-privacy",
                title=(
                    "Privacy: rhythm-class recognition from eavesdropped "
                    "telemetry"
                ),
                description=(
                    "Records drawn uniformly from four rhythm classes "
                    "(normal sinus, bradycardia, tachycardia, AF-style "
                    "irregular RR); the unshielded eavesdropper "
                    "classifies the arrhythmia reliably at clinical range "
                    "and collapses toward the always-AF chance prior "
                    "where the link degrades."
                ),
                tags=("extension", "physio", "privacy", "passive"),
                shield_present=False,
                rhythm="mixed",
                location_indices=(1, 4, 8, 12, 14),
                n_trials=40,
            ),
            (
                Expectation(
                    metric="rhythm_accuracy", kind="lower_bound",
                    value=0.85, axes=(1, 4, 8),
                    note="Bare telemetry: the arrhythmia class is read "
                         "reliably at clinical range -- the privacy harm "
                         "is diagnostic, not just a bit rate",
                ),
                Expectation(
                    metric="rhythm_accuracy", kind="upper_bound", value=0.5,
                    axes=(14,),
                    note="Where the link degrades to coin flips the "
                         "classifier falls to its always-irregular prior",
                ),
                Expectation(
                    metric="hr_abs_error", kind="upper_bound", value=3.0,
                    axes=(1, 4),
                    note="Mixed rhythms included, near-range HR still "
                         "leaks to a few BPM",
                ),
            ),
        ),
    )
    report_headers = ("location", "HR error / vs chance", "rhythm acc", "note")

    def validate(self, scenario) -> None:
        check_locations(scenario)
        if scenario.rhythm not in RHYTHM_CHOICES:
            raise ValueError(
                f"unknown rhythm {scenario.rhythm!r}; "
                f"expected one of {RHYTHM_CHOICES}"
            )
        if scenario.packets_per_record < 1:
            raise ValueError(
                f"packets_per_record must be positive, "
                f"got {scenario.packets_per_record}"
            )

    def summary(self, scenario) -> str:
        condition = (
            f"shield at +{scenario.jam_margin_db:g} dB"
            if scenario.shield_present
            else "no shield"
        )
        return (
            f"{scenario.rhythm} cardiac telemetry, {condition}, "
            f"{len(scenario.location_indices)} locations x "
            f"{scenario.n_trials} records"
        )

    def make_spec(self, scenario, cell, chunk_index, size, seed):
        return PhysioChunkSpec(
            location_index=cell,
            n_records=size,
            jam_margin_db=scenario.jam_margin_db,
            shield_present=scenario.shield_present,
            rhythm=scenario.rhythm,
            packets_per_record=scenario.packets_per_record,
            seed=seed,
        )

    def evaluate(self, spec) -> dict:
        """Leakage sums and sums of squares over the record block."""
        from repro.experiments.physio_lab import PhysioLab

        seed = spec.seed
        if isinstance(seed, np.random.SeedSequence):
            # PhysioLab spawns from its seed, advancing the spawn
            # counter; a copy keeps the spec pure.
            seed = np.random.SeedSequence(
                seed.entropy,
                spawn_key=seed.spawn_key,
                pool_size=seed.pool_size,
                n_children_spawned=seed.n_children_spawned,
            )
        lab = PhysioLab(seed=seed, packets_per_record=spec.packets_per_record)
        batch = lab.run_records(
            spec.n_records,
            jam_margin_db=spec.jam_margin_db,
            location_index=spec.location_index,
            shield_present=spec.shield_present,
            rhythm=spec.rhythm,
        )
        return batch.moments()

    def point(self, scenario, sums):
        n = sums["n_records"]
        point = {
            "rhythm_accuracy": sums["rhythm_correct"] / n,
            "ber": sums["ber_sum"] / n,
            "ber_clear": sums["ber_clear_sum"] / n,
            "n_records": n,
        }
        for metric, (total, _) in MOMENT_KEYS.items():
            point[metric] = sums[total] / n
        # Raw moments ride along so downstream statistics never
        # reconstruct them from the means.
        point.update({key: sums[key] for key in sums if key != "n_records"})
        return point

    def absorb(self, estimators, n, data):
        n_records = data["n_records"]
        for metric, (total, sq_total) in MOMENT_KEYS.items():
            estimators[metric].update(n_records, data[total], data[sq_total])
        estimators["rhythm_accuracy"].update(data["rhythm_correct"], n_records)

    def report_rows(self, scenario, points):
        rows = []
        for point in points:
            if point["hr_abs_error"] < 2.0:
                note = "heart rate leaks"
            elif abs(point["hr_error_vs_chance"]) < 10.0:
                note = "~chance"
            else:
                note = ""
            hr = (
                f"{point['hr_abs_error']:.1f} bpm / "
                f"{point['hr_error_vs_chance']:+.1f}"
            )
            rows.append(
                (point["label"], hr, f"{point['rhythm_accuracy']:.2f}", note)
            )
        return rows


KIND = PhysioKind()
