"""``physio``: cardiac-content leakage (see docs/physiology.md).

``n_trials`` counts cardiac records per location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaigns.kinds.base import ScenarioKind, check_locations
from repro.physio.ecg import RHYTHM_CHOICES

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
    metrics = (
        "hr_abs_error", "hr_error_vs_chance", "hr_abs_error_clear",
        "beat_f1", "rhythm_accuracy", "waveform_nrmse",
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
