"""Deterministic patient cohorts: the population a fleet campaign runs.

A :class:`CohortSpec` is a declarative description of a patient
population -- rhythm-class prevalence (reusing the
:data:`repro.physio.ecg.RHYTHM_CLASSES`), shield adherence (worn
vs. off), per-device calibration spread (passive jam margin, the
``P_thresh`` alarm threshold, the full-duplex cancellation), and the
attacker-encounter geometry distribution over the Fig. 6 testbed
locations.

The load-bearing property is *shard invariance*: patient *i*'s profile
and encounter RNG stream are pure functions of ``(cohort seed, i)``
via spawned ``SeedSequence`` keys in a dedicated namespace -- never of
the shard layout, worker count, or how many patients precede *i* in a
batch.  A 10,000-patient cohort sharded 100 ways synthesizes exactly
the patients a serial pass would, which is what lets fleet work units
be cached, resumed, and fanned across processes while reducing to
bit-identical population numbers.  The hypothesis suite pins this.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.physio.ecg import RHYTHM_CLASSES

__all__ = [
    "FLEET_SPAWN_NAMESPACE",
    "FLEET_TASKS",
    "CohortSpec",
    "PatientProfile",
    "cohort_from_scenario",
    "validate_cohort_fields",
]

#: First spawn-key word of every fleet RNG stream.  Fixed-plan campaign
#: units use 2-element spawn keys and adaptive rounds 4-element keys
#: (``ROUND_SPAWN_NAMESPACE``); fleet streams use 3-element keys
#: starting with this constant, so the three families can never alias
#: one another.
FLEET_SPAWN_NAMESPACE = 0xF1EE7

#: What each patient's encounter simulates: ``"attack"`` runs active
#: command-injection trials through the event-level testbed,
#: ``"physio"`` streams cardiac telemetry past a passive eavesdropper.
FLEET_TASKS = ("attack", "physio")

#: Floor on a sampled per-patient passive jam margin: a shield jamming
#: below this is a miscalibrated outlier, not a configuration the
#: cohort should silently include.
_MIN_JAM_MARGIN_DB = 3.0


def validate_cohort_fields(
    n_patients: int,
    rhythm_prevalence: tuple[float, ...],
    location_indices: tuple[int, ...],
    location_weights: tuple[float, ...] | None,
    shield_worn_fraction: float,
    jam_margin_mean_db: float,
    jam_margin_std_db: float,
    p_thresh_std_db: float,
    cancellation_std_db: float,
    observation_days: float,
) -> None:
    """Shared validation of the cohort axes (spec time = CLI boundary).

    Both :class:`CohortSpec` and the fleet
    :class:`~repro.campaigns.spec.Scenario` kind call this, so a bad
    cohort fails at registration/override time with one error message,
    never deep inside a sharded run.
    """
    if n_patients < 1:
        raise ValueError(f"n_patients must be positive, got {n_patients}")
    if len(rhythm_prevalence) != len(RHYTHM_CLASSES):
        raise ValueError(
            f"rhythm_prevalence needs one weight per rhythm class "
            f"{RHYTHM_CLASSES}, got {len(rhythm_prevalence)}"
        )
    if any(p < 0 for p in rhythm_prevalence):
        raise ValueError("rhythm prevalences cannot be negative")
    total = sum(rhythm_prevalence)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError(
            f"rhythm_prevalence must sum to 1, got {total:g}"
        )
    if not location_indices:
        raise ValueError("a cohort needs at least one encounter location")
    if location_weights is not None:
        if len(location_weights) != len(location_indices):
            raise ValueError(
                f"location_weights needs one weight per location "
                f"({len(location_indices)}), got {len(location_weights)}"
            )
        if any(w < 0 for w in location_weights):
            raise ValueError("location weights cannot be negative")
        if sum(location_weights) <= 0:
            raise ValueError("location weights must sum to a positive value")
    if not 0.0 <= shield_worn_fraction <= 1.0:
        raise ValueError(
            f"shield_worn_fraction must lie in [0, 1], "
            f"got {shield_worn_fraction}"
        )
    if jam_margin_mean_db < _MIN_JAM_MARGIN_DB:
        raise ValueError(
            f"jam_margin_mean_db must be at least {_MIN_JAM_MARGIN_DB:g} dB, "
            f"got {jam_margin_mean_db}"
        )
    for name, value in (
        ("jam_margin_std_db", jam_margin_std_db),
        ("p_thresh_std_db", p_thresh_std_db),
        ("cancellation_std_db", cancellation_std_db),
    ):
        if value < 0:
            raise ValueError(f"{name} cannot be negative, got {value}")
    if observation_days <= 0:
        raise ValueError(
            f"observation_days must be positive, got {observation_days}"
        )


def _choice_cdf(p: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(n, p=p)`` searches: the cumulative
    sum divided by its last entry, in the same float operations.

    ``bisect_right(cdf, rng.random())`` then picks the index ``choice``
    would, from the same single uniform draw.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


@dataclass(frozen=True)
class PatientProfile:
    """One synthesized patient: everything their encounter varies on.

    ``p_thresh_offset_db`` and ``cancellation_offset_db`` are additive
    deviations from the calibrated :class:`~repro.core.config.ShieldConfig`
    defaults -- per-device calibration spread, not absolute values --
    and are only consulted when ``shield_worn`` is true.
    """

    index: int
    rhythm: str
    location_index: int
    shield_worn: bool
    jam_margin_db: float
    p_thresh_offset_db: float
    cancellation_offset_db: float


@dataclass(frozen=True)
class CohortSpec:
    """A declarative patient population.

    ``rhythm_prevalence`` aligns with
    :data:`repro.physio.ecg.RHYTHM_CLASSES`; ``location_weights`` (when
    given) aligns with ``location_indices`` and defaults to uniform.
    """

    n_patients: int
    seed: int = 0
    rhythm_prevalence: tuple[float, ...] = (0.70, 0.10, 0.10, 0.10)
    location_indices: tuple[int, ...] = tuple(range(1, 15))
    location_weights: tuple[float, ...] | None = None
    shield_worn_fraction: float = 0.9
    jam_margin_mean_db: float = 20.0
    jam_margin_std_db: float = 1.5
    p_thresh_std_db: float = 1.0
    cancellation_std_db: float = 2.0
    observation_days: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rhythm_prevalence",
            tuple(float(p) for p in self.rhythm_prevalence),
        )
        object.__setattr__(
            self, "location_indices", tuple(self.location_indices)
        )
        if self.location_weights is not None:
            object.__setattr__(
                self,
                "location_weights",
                tuple(float(w) for w in self.location_weights),
            )
        validate_cohort_fields(
            n_patients=self.n_patients,
            rhythm_prevalence=self.rhythm_prevalence,
            location_indices=self.location_indices,
            location_weights=self.location_weights,
            shield_worn_fraction=self.shield_worn_fraction,
            jam_margin_mean_db=self.jam_margin_mean_db,
            jam_margin_std_db=self.jam_margin_std_db,
            p_thresh_std_db=self.p_thresh_std_db,
            cancellation_std_db=self.cancellation_std_db,
            observation_days=self.observation_days,
        )
        # Precomputed once: patient_profile is the cohort-synthesis hot
        # path (one call per patient at 10^5-10^6 patients), and these
        # CDFs depend only on the frozen spec.
        object.__setattr__(
            self, "_location_cdf", _choice_cdf(self._location_probabilities())
        )
        object.__setattr__(
            self,
            "_rhythm_cdf",
            _choice_cdf(np.asarray(self.rhythm_prevalence, dtype=float)),
        )

    # -- patient synthesis ---------------------------------------------

    def _location_probabilities(self) -> np.ndarray:
        if self.location_weights is None:
            n = len(self.location_indices)
            return np.full(n, 1.0 / n)
        weights = np.asarray(self.location_weights, dtype=float)
        return weights / weights.sum()

    def stream_seed(self, index: int, role: int) -> np.random.SeedSequence:
        """The ``SeedSequence`` of one patient's numbered randomness role.

        Every per-patient stream in the system is
        ``SeedSequence(cohort seed, (FLEET_SPAWN_NAMESPACE, index,
        role))``: role 0 is the profile, role 1 the batch encounter,
        and roles >= 2 are reserved for the live subsystem
        (:data:`repro.live.engine.LIVE_VITALS_ROLE` and friends).  New
        consumers claim a fresh role instead of re-deriving a stream,
        so no two subsystems can ever alias each other's randomness.
        """
        if not 0 <= index < self.n_patients:
            raise ValueError(
                f"patient index must lie in [0, {self.n_patients}), "
                f"got {index}"
            )
        if role < 0:
            raise ValueError(f"stream role cannot be negative, got {role}")
        return np.random.SeedSequence(
            self.seed, spawn_key=(FLEET_SPAWN_NAMESPACE, index, role)
        )

    def patient_profile(self, index: int) -> PatientProfile:
        """Synthesize patient ``index`` (shard-invariant).

        The profile stream is ``SeedSequence(seed, spawn_key=(FLEET,
        index, 0))`` and every field draws in a fixed order from that
        one stream, so the profile depends on nothing but (cohort seed,
        patient index).
        """
        rng = np.random.default_rng(self.stream_seed(index, 0))
        # Draw order is part of the determinism contract: changing it
        # is a cohort-schema change and must bump the fleet kind's
        # schema version.
        # Each categorical draw is ``rng.choice(n, p=...)`` inlined: one
        # ``random()`` located in the CDF ``choice`` would build.
        rhythm = RHYTHM_CLASSES[bisect_right(self._rhythm_cdf, rng.random())]
        location = self.location_indices[
            bisect_right(self._location_cdf, rng.random())
        ]
        worn = bool(rng.random() < self.shield_worn_fraction)
        jam_margin = max(
            _MIN_JAM_MARGIN_DB,
            self.jam_margin_mean_db
            + self.jam_margin_std_db * rng.standard_normal(),
        )
        p_thresh_offset = self.p_thresh_std_db * rng.standard_normal()
        cancellation_offset = (
            self.cancellation_std_db * rng.standard_normal()
        )
        return PatientProfile(
            index=index,
            rhythm=rhythm,
            location_index=location,
            shield_worn=worn,
            jam_margin_db=float(jam_margin),
            p_thresh_offset_db=float(p_thresh_offset),
            cancellation_offset_db=float(cancellation_offset),
        )

    def encounter_seed(self, index: int) -> np.random.SeedSequence:
        """The RNG stream of patient ``index``'s simulated encounter.

        Separate from the profile stream (spawn-key word 1, not 0) so
        adding a profile field can never perturb encounter randomness.
        """
        return self.stream_seed(index, 1)

    def profiles(self, start: int = 0, count: int | None = None):
        """Iterate profiles ``start .. start+count`` (a shard's view)."""
        if count is None:
            count = self.n_patients - start
        for index in range(start, start + count):
            yield self.patient_profile(index)


def cohort_from_scenario(scenario) -> CohortSpec:
    """The cohort a ``kind="fleet"`` scenario describes.

    The scenario spec carries the cohort axes flat (so they participate
    in the campaign content hash and the ``override`` machinery); this
    is the one place that mapping lives.
    """
    if scenario.kind != "fleet":
        raise ValueError(
            f"scenario {scenario.name!r} is {scenario.kind!r}, not 'fleet'"
        )
    return CohortSpec(
        n_patients=scenario.n_patients,
        seed=scenario.seed,
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
