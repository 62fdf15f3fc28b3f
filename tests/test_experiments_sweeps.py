"""The Fig. 11/12/13 location sweeps, run as ``attack`` campaigns.

An attack sweep is an in-memory :class:`CampaignRunner` run of an
``attack`` scenario; these tests pin what a sweep promises: every
requested location, the shield's effect, both commands, the high-power
alarm, and numbers that do not depend on worker count or sharding.
"""

import pytest

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import Scenario
from repro.stats.intervals import wilson_interval


def _sweep(workers=None, **fields) -> dict:
    """One in-memory attack campaign's points, keyed by location."""
    scenario = Scenario(name="sweep", kind="attack", **fields)
    result = CampaignRunner(scenario, workers=workers, persist=False).run()
    return {point["axis"]: point for point in result.points}


class TestAttackSuccessSweep:
    def test_returns_all_requested_locations(self):
        results = _sweep(
            shield_present=False, n_trials=4, location_indices=(1, 8), seed=7
        )
        assert set(results) == {1, 8}
        assert all(r["n_trials"] == 4 for r in results.values())

    def test_shielded_sweep_blocks(self):
        results = _sweep(
            shield_present=True, n_trials=6, location_indices=(1, 3), seed=7
        )
        assert all(r["success_probability"] == 0.0 for r in results.values())

    def test_unshielded_nearby_succeeds(self):
        results = _sweep(
            shield_present=False, n_trials=6, location_indices=(1,), seed=7
        )
        assert results[1]["success_probability"] == 1.0

    def test_therapy_command_supported(self):
        results = _sweep(
            shield_present=False,
            n_trials=4,
            command="therapy",
            location_indices=(2,),
            seed=7,
        )
        assert results[2]["success_probability"] == 1.0

    def test_wilson_interval_brackets_estimate(self):
        results = _sweep(
            shield_present=False, n_trials=10, location_indices=(8,), seed=7
        )
        r = results[8]
        low, high = wilson_interval(r["wins"], r["n_trials"])
        assert low <= r["success_probability"] <= high

    def test_highpower_sweep_alarms_near(self):
        results = _sweep(
            shield_present=True,
            n_trials=6,
            command="therapy",
            attacker="highpower",
            location_indices=(1,),
            seed=7,
        )
        assert results[1]["alarm_probability"] == 1.0


class TestSweepExecution:
    def test_parallel_equals_serial_whole_location(self):
        kwargs = dict(
            shield_present=False, n_trials=6, location_indices=(1, 8), seed=3
        )
        serial = _sweep(workers=1, **kwargs)
        parallel = _sweep(workers=2, **kwargs)
        assert serial == parallel

    def test_parallel_equals_serial_chunked(self):
        kwargs = dict(
            shield_present=False,
            n_trials=9,
            location_indices=(1, 2),
            seed=3,
            chunk_size=4,
        )
        serial = _sweep(workers=1, **kwargs)
        parallel = _sweep(workers=3, **kwargs)
        assert serial == parallel

    def test_chunked_run_is_deterministic(self):
        kwargs = dict(
            shield_present=False,
            n_trials=8,
            location_indices=(2,),
            seed=11,
            chunk_size=3,
        )
        assert _sweep(**kwargs) == _sweep(**kwargs)

    def test_workers_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        kwargs = dict(
            shield_present=False, n_trials=4, location_indices=(1, 8), seed=3
        )
        env_runner = CampaignRunner(
            Scenario(name="sweep", kind="attack", **kwargs), persist=False
        )
        assert env_runner.executor.workers == 2
        env_run = env_runner.run().points
        monkeypatch.delenv("REPRO_WORKERS")
        assert env_run == list(_sweep(**kwargs).values())

    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command"):
            _sweep(
                shield_present=False,
                n_trials=2,
                command="explode",
                location_indices=(1,),
            )

    def test_duplicate_locations_rejected(self):
        # A repeated location would double-count its trials in the
        # reduction, so the spec refuses it up front.
        with pytest.raises(ValueError, match="unique"):
            _sweep(
                shield_present=False, n_trials=5, location_indices=(1, 1)
            )
