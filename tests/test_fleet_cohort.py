"""Cohort determinism: patient *i* is a pure function of (seed, *i*).

The fleet subsystem's load-bearing guarantee mirrors the
``round_seed_sequence`` contract: shard layout, worker count, and
iteration order must never touch a patient's profile or encounter
stream.  The hypothesis tests here pin that across arbitrary shard
splits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns.spec import Scenario
from repro.fleet.cohort import (
    FLEET_SPAWN_NAMESPACE,
    CohortSpec,
    PatientProfile,
    cohort_from_scenario,
)
from repro.physio.ecg import RHYTHM_CLASSES


def _spec(**changes) -> CohortSpec:
    base = dict(n_patients=40, seed=11)
    base.update(changes)
    return CohortSpec(**base)


class TestValidation:
    def test_rejects_bad_prevalence_length(self):
        with pytest.raises(ValueError, match="one weight per rhythm class"):
            _spec(rhythm_prevalence=(0.5, 0.5))

    def test_rejects_prevalence_not_summing_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _spec(rhythm_prevalence=(0.5, 0.2, 0.2, 0.2))

    def test_rejects_negative_prevalence(self):
        with pytest.raises(ValueError, match="negative"):
            _spec(rhythm_prevalence=(1.2, -0.2, 0.0, 0.0))

    def test_rejects_mismatched_location_weights(self):
        with pytest.raises(ValueError, match="one weight per location"):
            _spec(location_indices=(1, 2, 3), location_weights=(1.0, 2.0))

    def test_rejects_worn_fraction_outside_unit_interval(self):
        with pytest.raises(ValueError, match="shield_worn_fraction"):
            _spec(shield_worn_fraction=1.5)

    def test_rejects_nonpositive_patients(self):
        with pytest.raises(ValueError, match="n_patients"):
            _spec(n_patients=0)

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError, match="jam_margin_std_db"):
            _spec(jam_margin_std_db=-1.0)

    def test_patient_index_bounds_checked(self):
        spec = _spec(n_patients=5)
        with pytest.raises(ValueError, match="patient index"):
            spec.patient_profile(5)
        with pytest.raises(ValueError, match="patient index"):
            spec.encounter_seed(-1)


class TestContentHash:
    """A cohort's content address is its fleet scenario's hash."""

    @staticmethod
    def _scenario(**changes) -> Scenario:
        fields = dict(name="cohort", kind="fleet", n_patients=40, seed=11)
        return Scenario(**{**fields, **changes})

    def test_hash_stable_across_instances(self):
        assert self._scenario().scenario_hash() == self._scenario().scenario_hash()

    def test_hash_changes_with_any_axis(self):
        base = self._scenario().scenario_hash()
        assert self._scenario(seed=12).scenario_hash() != base
        assert self._scenario(shield_worn_fraction=0.8).scenario_hash() != base
        assert self._scenario(jam_margin_std_db=0.0).scenario_hash() != base

    def test_payload_is_json_safe(self):
        import json

        json.dumps(self._scenario().payload())


class TestProfileSampling:
    def test_profiles_are_reproducible(self):
        a = [_spec().patient_profile(i) for i in range(10)]
        b = [_spec().patient_profile(i) for i in range(10)]
        assert a == b

    def test_rhythms_follow_prevalence(self):
        spec = _spec(
            n_patients=400, rhythm_prevalence=(0.0, 0.0, 0.0, 1.0)
        )
        assert all(p.rhythm == "afib" for p in spec.profiles())

    def test_worn_fraction_extremes(self):
        all_on = _spec(n_patients=50, shield_worn_fraction=1.0)
        all_off = _spec(n_patients=50, shield_worn_fraction=0.0)
        assert all(p.shield_worn for p in all_on.profiles())
        assert not any(p.shield_worn for p in all_off.profiles())

    def test_location_weights_concentrate_encounters(self):
        spec = _spec(
            n_patients=60,
            location_indices=(1, 12),
            location_weights=(0.0, 1.0),
        )
        assert all(p.location_index == 12 for p in spec.profiles())

    def test_zero_spread_pins_calibration(self):
        spec = _spec(
            jam_margin_std_db=0.0,
            p_thresh_std_db=0.0,
            cancellation_std_db=0.0,
        )
        for profile in spec.profiles(0, 10):
            assert profile.jam_margin_db == spec.jam_margin_mean_db
            assert profile.p_thresh_offset_db == 0.0
            assert profile.cancellation_offset_db == 0.0

    def test_jam_margin_never_below_floor(self):
        spec = _spec(jam_margin_mean_db=3.0, jam_margin_std_db=10.0)
        assert all(
            p.jam_margin_db >= 3.0 for p in spec.profiles(0, 40)
        )

    def test_profiles_vary_across_patients(self):
        rhythms = {p.rhythm for p in _spec(n_patients=200).profiles()}
        assert rhythms == set(RHYTHM_CLASSES)

    def test_encounter_stream_independent_of_profile_stream(self):
        """The two per-patient streams use distinct spawn-key words."""
        spec = _spec()
        profile_key = (FLEET_SPAWN_NAMESPACE, 3, 0)
        encounter = spec.encounter_seed(3)
        assert tuple(encounter.spawn_key) == (FLEET_SPAWN_NAMESPACE, 3, 1)
        assert tuple(encounter.spawn_key) != profile_key

    def test_encounter_seeds_draw_distinct_streams(self):
        spec = _spec()
        a = np.random.default_rng(spec.encounter_seed(0)).random(8)
        b = np.random.default_rng(spec.encounter_seed(1)).random(8)
        assert not np.allclose(a, b)


def _choice_oracle(spec: CohortSpec, index: int) -> PatientProfile:
    """Patient ``index`` synthesised with ``rng.choice(n, p=...)`` for
    the rhythm and location draws, then the remaining fields in order."""
    rng = np.random.default_rng(spec.stream_seed(index, 0))
    n_locations = len(spec.location_indices)
    if spec.location_weights is None:
        location_p = np.full(n_locations, 1.0 / n_locations)
    else:
        weights = np.asarray(spec.location_weights, dtype=float)
        location_p = weights / weights.sum()
    rhythm = RHYTHM_CLASSES[int(rng.choice(
        len(RHYTHM_CLASSES), p=np.asarray(spec.rhythm_prevalence, dtype=float)
    ))]
    location = spec.location_indices[int(rng.choice(n_locations, p=location_p))]
    worn = bool(rng.random() < spec.shield_worn_fraction)
    jam_margin = max(
        3.0, spec.jam_margin_mean_db + spec.jam_margin_std_db * rng.standard_normal()
    )
    return PatientProfile(
        index=index,
        rhythm=rhythm,
        location_index=location,
        shield_worn=worn,
        jam_margin_db=float(jam_margin),
        p_thresh_offset_db=float(spec.p_thresh_std_db * rng.standard_normal()),
        cancellation_offset_db=float(
            spec.cancellation_std_db * rng.standard_normal()
        ),
    )


def _normalised(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


@pytest.mark.statistical
class TestChoiceOracle:
    """The inlined categorical draws pick exactly what ``rng.choice``
    picks, from the same stream."""

    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        n_locations=st.integers(min_value=1, max_value=20),
        weighted=st.booleans(),
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(0.001, 50.0)),
            min_size=20, max_size=20,
        ),
        prevalence=st.one_of(
            st.just((0.70, 0.10, 0.10, 0.10)),
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                min_size=4, max_size=4,
            ).filter(lambda p: sum(p) > 0).map(_normalised),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_profiles_equal_the_choice_oracle(
        self, seed, n_locations, weighted, weights, prevalence
    ):
        location_weights = tuple(weights[:n_locations]) if weighted else None
        if location_weights is not None and sum(location_weights) <= 0:
            location_weights = None
        spec = CohortSpec(
            n_patients=25,
            seed=seed,
            rhythm_prevalence=prevalence,
            location_indices=tuple(range(1, n_locations + 1)),
            location_weights=location_weights,
        )
        assert list(spec.profiles()) == [
            _choice_oracle(spec, i) for i in range(spec.n_patients)
        ]

    @pytest.mark.parametrize(
        "weights", [None, tuple(float(i % 5) for i in range(14))],
        ids=["uniform", "weighted"],
    )
    def test_many_patients_of_a_14_location_cohort(self, weights):
        spec = CohortSpec(n_patients=1500, seed=7, location_weights=weights)
        assert list(spec.profiles()) == [
            _choice_oracle(spec, i) for i in range(spec.n_patients)
        ]


@pytest.mark.statistical
class TestShardInvariance:
    """Patient *i* is bit-identical across any shard layout."""

    @given(
        n_patients=st.integers(min_value=1, max_value=60),
        shard=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_profiles_identical_across_shard_counts(
        self, n_patients, shard, seed
    ):
        spec = CohortSpec(n_patients=n_patients, seed=seed)
        serial = list(spec.profiles())
        sharded = []
        start = 0
        while start < n_patients:
            count = min(shard, n_patients - start)
            sharded.extend(spec.profiles(start, count))
            start += count
        assert sharded == serial

    @given(
        index=st.integers(min_value=0, max_value=39),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_encounter_streams_shard_invariant(self, index, seed):
        """The encounter stream depends only on (seed, patient index)."""
        small = CohortSpec(n_patients=40, seed=seed)
        large = CohortSpec(n_patients=4000, seed=seed)
        draw_a = np.random.default_rng(small.encounter_seed(index)).random(4)
        draw_b = np.random.default_rng(large.encounter_seed(index)).random(4)
        assert np.array_equal(draw_a, draw_b)


class TestScenarioMapping:
    def test_cohort_from_scenario_round_trips_the_axes(self):
        from repro.campaigns.spec import Scenario

        scenario = Scenario(
            name="fleet-map-test",
            kind="fleet",
            n_patients=33,
            seed=9,
            shield_worn_fraction=0.5,
            location_indices=(1, 5, 9),
            location_weights=(1.0, 2.0, 3.0),
            jam_margin_std_db=0.5,
        )
        cohort = cohort_from_scenario(scenario)
        assert cohort.n_patients == 33
        assert cohort.seed == 9
        assert cohort.shield_worn_fraction == 0.5
        assert cohort.location_indices == (1, 5, 9)
        assert cohort.location_weights == (1.0, 2.0, 3.0)

    def test_rejects_non_fleet_scenarios(self):
        from repro.campaigns import registry

        with pytest.raises(ValueError, match="not 'fleet'"):
            cohort_from_scenario(registry.get("attack-success-shielded"))
