"""Tests for the campaign runner: cache round trips, resume, determinism.

The load-bearing guarantee: a campaign interrupted mid-run and resumed
from cache produces **bit-identical** final numbers to an uninterrupted
serial run -- and a cached campaign reproduces the figure sweeps number
for number.
"""

import json
import pickle

import pytest

import repro.campaigns.runner as runner_module
from repro.campaigns import CampaignRunner, ResultCache, SQLiteStore, registry
from repro.campaigns.cli import _budget_scenario
from repro.campaigns.kinds import KINDS
from repro.campaigns.runner import evaluate_unit, plan_scenario_units
from repro.campaigns.spec import Scenario
from repro.experiments.sweeps import attack_success_sweep


def _small_attack(**changes) -> Scenario:
    base = dict(
        name="test-grid",
        kind="attack",
        attacker="fcc",
        command="therapy",
        shield_present=False,
        location_indices=(1, 8, 13),
        n_trials=4,
        seed=7,
    )
    base.update(changes)
    return Scenario(**base)


class TestAgainstSweepReference:
    def test_attack_campaign_matches_attack_success_sweep(self):
        scenario = _small_attack()
        result = CampaignRunner(scenario, persist=False).run()
        reference = attack_success_sweep(
            shield_present=False,
            n_trials=4,
            command="therapy",
            attacker="fcc",
            location_indices=(1, 8, 13),
            seed=7,
        )
        for point in result.points:
            ref = reference[point["axis"]]
            assert point["success_probability"] == ref.success_probability
            assert point["alarm_probability"] == ref.alarm_probability

    def test_registry_scenario_runs(self):
        scenario = registry.get("attack-success-shielded").override(
            location_indices=(1,), n_trials=2
        )
        result = CampaignRunner(scenario, persist=False).run()
        assert result.points[0]["success_probability"] == 0.0


class TestCacheRoundTrip:
    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        scenario = _small_attack()
        first = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert first.computed_units == first.total_units
        second = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert second.computed_units == 0
        assert second.cached_units == second.total_units
        assert second.points == first.points

    def test_passive_floats_survive_json_bit_exactly(self, tmp_path):
        scenario = Scenario(
            name="test-passive",
            kind="passive_ber",
            location_indices=(1, 18),
            n_trials=3,
            seed=3,
        )
        fresh = CampaignRunner(scenario, persist=False).run()
        CampaignRunner(scenario, cache_dir=tmp_path).run()
        cached = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert cached.computed_units == 0
        assert cached.points == fresh.points

    def test_parameter_change_invalidates_by_namespace(self, tmp_path):
        scenario = _small_attack()
        CampaignRunner(scenario, cache_dir=tmp_path).run()
        bumped = scenario.override(seed=8)
        result = CampaignRunner(bumped, cache_dir=tmp_path).run()
        assert result.computed_units == result.total_units
        namespaces = {
            s.scenario_hash for s in ResultCache(tmp_path).stats().scenarios
        }
        assert namespaces == {scenario.scenario_hash(), bumped.scenario_hash()}

    @pytest.mark.parametrize(
        "garbage", [b"{ not json", b"\xff\xfe binary \x80"]
    )
    def test_corrupt_entry_recomputed(self, tmp_path, garbage):
        """Invalid JSON and non-UTF-8 bytes alike must read as absent."""
        scenario = _small_attack()
        first = CampaignRunner(scenario, cache_dir=tmp_path).run()
        store = SQLiteStore(tmp_path)
        with store._connect() as conn:
            conn.execute(
                "UPDATE units SET result = ? WHERE unit_key ="
                " (SELECT MIN(unit_key) FROM units)",
                (garbage,),
            )
        store.close()
        again = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert again.computed_units == 1
        assert again.points == first.points

    def test_force_recomputes_everything(self, tmp_path):
        scenario = _small_attack()
        CampaignRunner(scenario, cache_dir=tmp_path).run()
        forced = CampaignRunner(scenario, cache_dir=tmp_path).run(force=True)
        assert forced.computed_units == forced.total_units

    def test_manifest_written(self, tmp_path):
        scenario = _small_attack()
        CampaignRunner(scenario, cache_dir=tmp_path).run()
        (text,) = SQLiteStore(tmp_path)._connect().execute(
            "SELECT manifest FROM scenarios WHERE scenario_hash = ?",
            (scenario.scenario_hash(),),
        ).fetchone()
        manifest = json.loads(text)
        assert manifest["name"] == scenario.name
        assert manifest["payload"] == scenario.payload()


class TestInterruptResume:
    def test_interrupted_campaign_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """Kill the run mid-campaign; the resumed run must complete from
        cache and match a fresh uninterrupted serial run exactly."""
        scenario = _small_attack(chunk_size=2)  # 3 locations x 2 chunks
        fresh = CampaignRunner(scenario, persist=False).run()

        real_evaluate = runner_module.evaluate_unit
        calls = {"n": 0}

        def dying_evaluate(spec):
            if calls["n"] >= 3:
                raise KeyboardInterrupt
            calls["n"] += 1
            return real_evaluate(spec)

        monkeypatch.setattr(runner_module, "evaluate_unit", dying_evaluate)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(scenario, cache_dir=tmp_path).run()
        monkeypatch.setattr(runner_module, "evaluate_unit", real_evaluate)

        status = CampaignRunner(scenario, cache_dir=tmp_path).status()
        assert status.cached_units == 3  # everything computed before the kill
        assert not status.complete

        resumed = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert resumed.cached_units == 3
        assert resumed.computed_units == status.total_units - 3
        assert resumed.points == fresh.points

    def test_materialize_limit_steps_toward_completion(self, tmp_path):
        scenario = _small_attack()
        runner = CampaignRunner(scenario, cache_dir=tmp_path)
        assert runner.materialize(limit=1) == 1
        assert runner.status().cached_units == 1
        assert runner.materialize() == 2
        assert runner.status().complete


class TestPlan:
    def test_chunking_shards_units(self):
        unchunked = CampaignRunner(_small_attack(), persist=False).plan()
        chunked = CampaignRunner(
            _small_attack(chunk_size=2), persist=False
        ).plan()
        assert len(unchunked) == 3
        assert len(chunked) == 6
        assert len({u.key for u in chunked}) == 6

    def test_unit_keys_stable(self):
        a = CampaignRunner(_small_attack(), persist=False).plan()
        b = CampaignRunner(_small_attack(), persist=False).plan()
        assert [u.key for u in a] == [u.key for u in b]

    def test_mimo_campaign_reduces_per_separation(self):
        scenario = registry.get("mimo-eavesdropper").override(
            separations_m=(0.02, 0.37), n_trials=2
        )
        result = CampaignRunner(scenario, persist=False).run()
        assert [p["axis"] for p in result.points] == [0.02, 0.37]
        assert all("jam_rejection_db" in p for p in result.points)
        # The design gradient: close separation protects better.
        assert result.points[0]["ber"] >= result.points[1]["ber"]


class TestUnitPurity:
    @pytest.mark.parametrize("name", registry.names())
    def test_unit_result_depends_only_on_its_spec(self, name):
        """Evaluating a unit twice, from a pickled copy, or from a fresh
        plan gives one result, for every registered scenario."""
        scenario = _budget_scenario(registry.get(name), "smoke")

        def smallest(units):
            return min(
                units,
                key=lambda u: u.coords["n_trials"]
                * u.coords.get("n_patients", 1),
            )

        spec = smallest(plan_scenario_units(scenario)).spec
        first = evaluate_unit(spec)
        assert evaluate_unit(spec) == first
        assert evaluate_unit(pickle.loads(pickle.dumps(spec))) == first
        assert evaluate_unit(
            smallest(plan_scenario_units(scenario)).spec
        ) == first

    @pytest.mark.parametrize(
        "name",
        [
            name
            for name in registry.names()
            if KINDS[registry.get(name).kind].adaptive
        ],
    )
    @pytest.mark.parametrize("plan", ["chunked", "round0"])
    def test_seed_sequence_units_are_pure(self, name, plan):
        """The same, for the units that draw from a SeedSequence: a
        sharded cell's chunks and an adaptive round's units."""
        scenario = _budget_scenario(registry.get(name), "smoke")

        def first_unit():
            if plan == "chunked":
                units = plan_scenario_units(scenario.override(chunk_size=2))
            else:
                units = plan_scenario_units(
                    scenario, positions=[0], n_trials=2, round_index=0
                )
            return units[0].spec

        spec = first_unit()
        first = evaluate_unit(spec)
        assert evaluate_unit(spec) == first
        assert evaluate_unit(pickle.loads(pickle.dumps(spec))) == first
        assert evaluate_unit(first_unit()) == first
