"""Fleet campaigns through the runner: sharding, caching, determinism.

The acceptance contract: any shard layout or worker count reduces a
cohort to bit-identical population numbers; a warm re-read of the cache
agrees with the run that filled it; a run killed mid-campaign resumes
from cache onto the same numbers; and the fleet kind's arrival must not
move any existing kind's content hash (pinned below against the
pre-fleet values).
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

import repro.campaigns.runner as runner_module
from repro.campaigns import CampaignRunner, registry
from repro.campaigns.spec import SCHEMA_VERSION, Scenario
from repro.fleet.runner import (
    FleetChunkSpec,
    patient_shield_config,
    run_fleet_chunk,
)
from repro.fleet.cohort import CohortSpec


def _attack_fleet(**changes) -> Scenario:
    base = dict(
        name="test-fleet",
        kind="fleet",
        fleet_task="attack",
        attacker="fcc",
        command="therapy",
        n_patients=24,
        n_trials=2,
        chunk_size=8,
        shield_worn_fraction=0.75,
        location_indices=tuple(range(1, 15)),
        seed=13,
    )
    base.update(changes)
    return Scenario(**base)


def _physio_fleet(**changes) -> Scenario:
    base = dict(
        name="test-fleet-physio",
        kind="fleet",
        fleet_task="physio",
        n_patients=12,
        n_trials=1,
        chunk_size=4,
        packets_per_record=4,
        shield_worn_fraction=0.5,
        location_indices=(1, 5, 12, 17),
        seed=13,
    )
    base.update(changes)
    return Scenario(**base)


class TestScenarioHashStability:
    """Adding the fleet kind must not invalidate any existing cache."""

    #: Content hashes of every builtin scenario as of schema v3 --
    #: captured immediately before the fleet kind landed.  If one of
    #: these moves, every user's cached results for that scenario are
    #: silently orphaned; that is only ever acceptable with a deliberate
    #: per-kind schema bump.
    PRE_FLEET_HASHES = {
        "attack-success-shielded": "c0652e4182dc0c01",
        "attack-success-unshielded": "142ce662a7c97493",
        "battery-drain-shielded": "97589ed51f0ce673",
        "battery-drain-unshielded": "4b43406a1c51bd3a",
        "crypto-only-baseline": "6641f24873469853",
        "highpower-shielded": "a6ab2cabcb0fee4f",
        "highpower-unshielded": "0801bd596b763fa3",
        "mimo-eavesdropper": "dd420bd9e092855f",
        "passive-ber-by-location": "92c7a87deecdf940",
        "physio-leakage-by-location": "23455f35f9f18cbe",
        "physio-leakage-shielded": "5432522a2444f20d",
        "physio-rhythm-privacy": "e6d74824f0eb87fc",
    }

    def test_existing_scenario_hashes_unchanged(self):
        for name, expected in self.PRE_FLEET_HASHES.items():
            assert registry.get(name).scenario_hash() == expected, name

    def test_fleet_payload_carries_v4_schema(self):
        assert SCHEMA_VERSION == 4
        assert _attack_fleet().payload()["schema"] == 4

    def test_existing_kinds_keep_v3_schema(self):
        for name in self.PRE_FLEET_HASHES:
            assert registry.get(name).payload()["schema"] == 3, name


class TestPlan:
    def test_sharding_partitions_the_cohort(self):
        units = CampaignRunner(_attack_fleet(), persist=False).plan()
        assert [u.coords["start"] for u in units] == [0, 8, 16]
        assert [u.coords["n_patients"] for u in units] == [8, 8, 8]
        assert len({u.key for u in units}) == 3

    def test_default_shard_bounds_unit_size(self):
        units = CampaignRunner(
            _attack_fleet(chunk_size=None, n_patients=250), persist=False
        ).plan()
        assert [u.coords["n_patients"] for u in units] == [100, 100, 50]

    def test_adaptive_rounds_rejected(self):
        from repro.campaigns.runner import plan_scenario_units

        with pytest.raises(ValueError, match="fixed-budget only"):
            plan_scenario_units(_attack_fleet(), round_index=0)

    def test_adaptive_run_rejects_fleet(self):
        with pytest.raises(ValueError, match="fixed-budget only"):
            CampaignRunner(_attack_fleet(), persist=False).run_adaptive()

    def test_shard_spec_validates_range(self):
        cohort = CohortSpec(n_patients=10, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            FleetChunkSpec(
                cohort=cohort, start=8, count=4, trials_per_patient=1,
                task="attack",
            )


class TestDeterminism:
    def test_shard_layout_does_not_change_the_numbers(self):
        coarse = CampaignRunner(
            _attack_fleet(chunk_size=24), persist=False
        ).run()
        fine = CampaignRunner(
            _attack_fleet(chunk_size=5), persist=False
        ).run()
        assert coarse.points == fine.points

    def test_serial_equals_parallel(self):
        serial = CampaignRunner(_attack_fleet(), persist=False).run()
        parallel = CampaignRunner(
            _attack_fleet(), persist=False, workers=3
        ).run()
        assert serial.points == parallel.points

    def test_physio_task_serial_equals_parallel(self):
        serial = CampaignRunner(_physio_fleet(), persist=False).run()
        parallel = CampaignRunner(
            _physio_fleet(), persist=False, workers=3
        ).run()
        assert serial.points == parallel.points

    def test_unit_result_is_reduced_not_per_patient(self):
        """The streaming contract: a shard's payload has no per-patient
        list -- its size is set by the accumulator schema alone."""
        cohort = CohortSpec(n_patients=40, seed=3, shield_worn_fraction=1.0)
        small = run_fleet_chunk(FleetChunkSpec(
            cohort=cohort, start=0, count=2, trials_per_patient=1,
            task="attack",
        ))
        large = run_fleet_chunk(FleetChunkSpec(
            cohort=cohort, start=0, count=40, trials_per_patient=1,
            task="attack",
        ))
        assert set(small) == set(large)
        assert large["patients"] == 40
        # Attack payloads carry no sketch mass, so the serialized sizes
        # are within a few bytes of each other regardless of patients.
        assert abs(len(json.dumps(large)) - len(json.dumps(small))) < 64


class TestCacheResume:
    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_second_run_fully_cached_and_identical(self, tmp_path, backend):
        scenario = _attack_fleet()
        first = CampaignRunner(
            scenario, cache_dir=tmp_path, cache_backend=backend
        ).run()
        assert first.computed_units == first.total_units
        second = CampaignRunner(
            scenario, cache_dir=tmp_path, cache_backend=backend
        ).run()
        assert second.computed_units == 0
        assert second.points == first.points

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_interrupted_run_resumes_bit_identical(
        self, tmp_path, monkeypatch, backend
    ):
        scenario = _attack_fleet()  # 3 shards
        fresh = CampaignRunner(scenario, persist=False).run()

        real_evaluate = runner_module.evaluate_unit
        calls = {"n": 0}

        def dying_evaluate(spec):
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_evaluate(spec)

        monkeypatch.setattr(runner_module, "evaluate_unit", dying_evaluate)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(
                scenario, cache_dir=tmp_path, cache_backend=backend
            ).run()
        monkeypatch.setattr(runner_module, "evaluate_unit", real_evaluate)

        status = CampaignRunner(
            scenario, cache_dir=tmp_path, cache_backend=backend
        ).status()
        assert status.cached_units == 2
        assert not status.complete

        resumed = CampaignRunner(
            scenario, cache_dir=tmp_path, cache_backend=backend
        ).run()
        assert resumed.cached_units == 2
        assert resumed.computed_units == 1
        assert resumed.points == fresh.points


class TestReduction:
    def test_attack_point_shape(self):
        result = CampaignRunner(_attack_fleet(), persist=False).run()
        (point,) = result.points
        assert point["axis"] == "population"
        assert point["n_patients"] == 24
        assert 0.0 <= point["attack_prevalence"] <= 1.0
        assert point["alarm_rate_per_day"] >= 0.0
        assert result.value_key == "attack_prevalence"

    def test_physio_point_shape(self):
        result = CampaignRunner(_physio_fleet(), persist=False).run()
        (point,) = result.points
        assert point["hr_leak_p10_bpm"] <= point["hr_leak_median_bpm"]
        assert point["hr_leak_median_bpm"] <= point["hr_leak_p90_bpm"]
        assert sum(point["ber_strata"].values()) == point["n_patients"]
        assert result.value_key == "hr_leak_median_bpm"

    def test_full_adherence_blocks_therapy_tampering(self):
        result = CampaignRunner(
            _attack_fleet(shield_worn_fraction=1.0), persist=False
        ).run()
        assert result.points[0]["attack_prevalence"] == 0.0

    def test_zero_adherence_near_range_is_compromised(self):
        result = CampaignRunner(
            _attack_fleet(
                shield_worn_fraction=0.0,
                location_indices=(1, 2, 3),
                n_patients=10,
                chunk_size=None,
            ),
            persist=False,
        ).run()
        assert result.points[0]["attack_prevalence"] == 1.0

    def test_validation_judges_fleet_through_fixed_path(self, tmp_path):
        from repro.stats.validation import validate_scenario

        scenario = _attack_fleet(
            shield_worn_fraction=1.0, n_patients=16, chunk_size=None
        )
        from repro.stats.expectations import Expectation

        validation = validate_scenario(
            scenario,
            (
                Expectation(
                    metric="attack_prevalence",
                    kind="upper_bound",
                    value=0.05,
                ),
            ),
            adaptive=True,  # silently degrades to fixed for fleet
            cache_dir=tmp_path,
        )
        assert not validation.adaptive
        assert validation.verdict == "pass"
        assert validation.trials_used == 32  # patients x trials

    def test_physio_cohort_has_no_attack_estimators(self):
        from repro.stats.validation import cells_from_result

        result = CampaignRunner(_physio_fleet(), persist=False).run()
        (cell,) = cells_from_result(result)
        assert "attack_prevalence" not in cell.estimators
        assert "hr_leak_median_bpm" in cell.estimators

    def test_patient_jam_margin_reaches_the_testbed(self):
        """The cohort's per-device jam margin must set the actual
        passive jam power -- not be silently overwritten by the
        link-budget default (regression: it was a no-op)."""
        from repro.core.config import ShieldConfig
        from repro.experiments.testbed import AttackTestbed

        import dataclasses

        quiet = AttackTestbed(
            location_index=1,
            shield_config=dataclasses.replace(
                ShieldConfig(), passive_jam_margin_db=6.0
            ),
        )
        loud = AttackTestbed(
            location_index=1,
            shield_config=dataclasses.replace(
                ShieldConfig(), passive_jam_margin_db=30.0
            ),
        )
        delta = (
            loud.shield.config.passive_jam_tx_dbm
            - quiet.shield.config.passive_jam_tx_dbm
        )
        assert delta == pytest.approx(24.0)
        # And the default config still lands exactly where it always has.
        default = AttackTestbed(location_index=1)
        assert default.shield.config.passive_jam_tx_dbm == pytest.approx(
            default.budget.passive_jam_tx_dbm()
        )

    def test_compare_rejects_mismatched_fleet_tasks(self):
        from repro.campaigns.cli import main

        with pytest.raises(SystemExit, match="task"):
            main([
                "compare", "fleet-attack-prevalence", "fleet-privacy-leakage",
                "--no-cache",
            ])

    def test_registered_fleet_scenarios_compile(self):
        for name in (
            "fleet-attack-prevalence",
            "fleet-privacy-leakage",
            "fleet-alarm-burden",
        ):
            scenario = registry.get(name)
            units = CampaignRunner(scenario, persist=False).plan()
            assert sum(u.coords["n_patients"] for u in units) == (
                scenario.n_patients
            )


class TestPatientShieldConfig:
    """One ``ShieldConfig`` construction per patient, equal to the config
    a worn shield ran with when it took three: the defaults, a
    ``replace`` with the patient's calibration, and the testbed's
    ``replace`` with its passive jam power and detection window."""

    @staticmethod
    def _two_step(profile):
        from repro.core.config import ShieldConfig
        from repro.experiments.testbed import AttackTestbed

        base = ShieldConfig()
        calibrated = dataclasses.replace(
            base,
            p_thresh_dbm=base.p_thresh_dbm + profile.p_thresh_offset_db,
            antenna_cancellation_db=(
                base.antenna_cancellation_db + profile.cancellation_offset_db
            ),
            passive_jam_margin_db=profile.jam_margin_db,
        )
        bed = AttackTestbed(location_index=1, shield_present=False)
        return dataclasses.replace(
            calibrated,
            passive_jam_tx_dbm=bed.budget.passive_jam_tx_dbm(
                profile.jam_margin_db
            ),
            detection_window_bits=bed.codec.header_bit_count(),
        )

    @pytest.mark.parametrize(
        "p_thresh, cancellation, margin",
        [
            (0.0, 0.0, 20.0),
            (-12.5, -30.0, -5.0),
            (40.0, 25.0, 60.0),
            (-0.0, 1e-9, 0.0),
        ],
    )
    def test_equals_two_step_config(self, p_thresh, cancellation, margin):
        profile = SimpleNamespace(
            p_thresh_offset_db=p_thresh,
            cancellation_offset_db=cancellation,
            jam_margin_db=margin,
        )
        assert patient_shield_config(profile) == self._two_step(profile)

    def test_equals_two_step_config_on_cohort_profiles(self):
        for profile in CohortSpec(n_patients=40, seed=3).profiles(0, 40):
            assert patient_shield_config(profile) == self._two_step(profile)

    def test_testbed_runs_the_config_as_is(self):
        from repro.experiments.testbed import AttackTestbed

        profile = next(iter(CohortSpec(n_patients=1, seed=3).profiles()))
        config = patient_shield_config(profile)
        bed = AttackTestbed(location_index=4, shield_config=config)
        assert bed.shield.config is config
