"""Fleet work units: patient shards and their streaming reduction.

A fleet campaign's work plan shards the cohort into contiguous patient
ranges; one :class:`FleetChunkSpec` is one shard.  Evaluating a shard
simulates every patient's encounter (active attack trials through the
event-level :class:`~repro.experiments.testbed.AttackTestbed`, or
cardiac-telemetry eavesdropping through
:class:`~repro.experiments.physio_lab.PhysioLab`) and folds each
patient straight into a :class:`~repro.fleet.metrics.FleetAccumulator`
-- the unit result is the shard's *reduced* sufficient statistic, a
fixed-size JSON payload, never a per-patient list.  Peak memory is
therefore bounded by one shard regardless of cohort size, and the
campaign-level reduction is a stream of accumulator merges.

Determinism: patient *i*'s profile and encounter streams come from the
cohort's spawn-key namespace (:mod:`repro.fleet.cohort`), so a shard's
result is a pure function of (cohort payload, patient range, trials
per patient) -- the campaign cache can content-address it, and any
shard layout or worker count reduces to bit-identical population
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fleet.cohort import FLEET_TASKS, CohortSpec
from repro.fleet.metrics import FleetAccumulator

__all__ = ["FleetChunkSpec", "patient_shield_config", "run_fleet_chunk"]


@dataclass(frozen=True)
class FleetChunkSpec:
    """One shard of a cohort: patients ``start .. start + count``.

    Self-contained and picklable (the process-pool contract every
    campaign unit honours); the cohort spec rides along whole, so a
    worker needs nothing but this object.
    """

    cohort: CohortSpec
    start: int
    count: int
    trials_per_patient: int
    task: str
    attacker: str = "fcc"
    command: str = "therapy"
    packets_per_record: int = 8

    def __post_init__(self) -> None:
        if self.task not in FLEET_TASKS:
            raise ValueError(
                f"unknown fleet task {self.task!r}; "
                f"expected one of {FLEET_TASKS}"
            )
        if self.count < 1:
            raise ValueError("a shard needs at least one patient")
        if self.trials_per_patient < 1:
            raise ValueError("trials_per_patient must be positive")
        if not 0 <= self.start:
            raise ValueError("shard start cannot be negative")
        if self.start + self.count > self.cohort.n_patients:
            raise ValueError(
                f"shard [{self.start}, {self.start + self.count}) exceeds "
                f"the {self.cohort.n_patients}-patient cohort"
            )


def patient_shield_config(profile):
    """The per-device :class:`ShieldConfig` of one worn shield.

    Applies the cohort's calibration spread -- the patient's P_thresh
    offset and antenna-cancellation (full-duplex rejection) offset --
    to the paper-calibrated defaults.  The link-budget and
    codec-derived fields are the default testbed's, so the testbed
    takes the config as is.  Shared by the batch shards below and the
    live engine's encounter sessions (:mod:`repro.live.engine`), so one
    definition of "this patient's device" serves both execution modes.
    """
    from repro.core.config import ShieldConfig
    from repro.experiments.testbed import worn_shield_config

    # One construction from the class defaults (a dataclass keeps each
    # plain field default as a class attribute).
    return worn_shield_config(
        p_thresh_dbm=ShieldConfig.p_thresh_dbm + profile.p_thresh_offset_db,
        antenna_cancellation_db=(
            ShieldConfig.antenna_cancellation_db
            + profile.cancellation_offset_db
        ),
        passive_jam_margin_db=profile.jam_margin_db,
    )


def _run_attack_shard(spec: FleetChunkSpec) -> FleetAccumulator:
    """Active command-injection encounters, one testbed per patient."""
    from repro.experiments.testbed import AttackTestbed

    metric = (
        "therapy_changed" if spec.command == "therapy" else "imd_responded"
    )
    acc = FleetAccumulator()
    for profile in spec.cohort.profiles(spec.start, spec.count):
        bed = AttackTestbed(
            location_index=profile.location_index,
            shield_present=profile.shield_worn,
            attacker=spec.attacker,
            seed=spec.cohort.encounter_seed(profile.index),
            shield_config=(
                patient_shield_config(profile)
                if profile.shield_worn
                else None
            ),
            observer_enabled=False,
        )
        outcomes = bed.run_trials(spec.trials_per_patient, command=spec.command)
        wins = sum(getattr(o, metric) for o in outcomes)
        alarms = sum(o.alarm_raised for o in outcomes)
        acc.add_attack_patient(
            worn=profile.shield_worn,
            wins=int(wins),
            alarms=int(alarms),
            trials=spec.trials_per_patient,
            observation_days=spec.cohort.observation_days,
        )
    return acc


def _run_physio_shard(spec: FleetChunkSpec) -> FleetAccumulator:
    """Telemetry-privacy encounters: records per patient, leakage scored."""
    from repro.experiments.physio_lab import PhysioLab

    acc = FleetAccumulator()
    for profile in spec.cohort.profiles(spec.start, spec.count):
        lab = PhysioLab(
            seed=spec.cohort.encounter_seed(profile.index),
            packets_per_record=spec.packets_per_record,
        )
        batch = lab.run_records(
            spec.trials_per_patient,
            jam_margin_db=profile.jam_margin_db,
            location_index=profile.location_index,
            shield_present=profile.shield_worn,
            rhythm=profile.rhythm,
        )
        acc.add_physio_patient(
            worn=profile.shield_worn,
            hr_abs_error=float(np.mean(batch.hr_abs_error)),
            mean_ber=float(np.mean(batch.ber_attacker)),
        )
    return acc


def run_fleet_chunk(spec: FleetChunkSpec) -> dict:
    """Evaluate one shard; the result is its reduced accumulator payload."""
    if spec.task == "attack":
        acc = _run_attack_shard(spec)
    else:
        acc = _run_physio_shard(spec)
    return acc.to_payload()
