"""Tests for adaptive-precision execution: stopping, determinism, cache resume."""

import pytest

from repro.campaigns import registry
from repro.campaigns.kinds import KINDS
from repro.campaigns.kinds.attack import AttackKind
from repro.campaigns.kinds.base import Metric
from repro.campaigns.spec import Scenario
from repro.stats import (
    AdaptivePolicy,
    AdaptiveScheduler,
    SequentialEstimator,
    tracked_metrics,
)


def _shielded(locations=(1, 8, 13)) -> Scenario:
    return registry.get("attack-success-shielded").override(
        location_indices=tuple(locations)
    )


def _passive(locations=(1, 10, 18)) -> Scenario:
    return registry.get("passive-ber-by-location").override(
        location_indices=tuple(locations)
    )


def _targets(scenario, policy=None) -> dict[str, float]:
    """The stopping target of each metric an adaptive run tracks."""
    return AdaptiveScheduler(scenario, policy=policy, persist=False)._targets


class TestPolicy:
    def test_defaults_are_valid(self):
        # Each kind declares its metrics' default precision.
        assert _targets(_shielded()) == {
            "success_probability": 0.10, "alarm_probability": 0.10,
        }
        assert _targets(_passive()) == {"ber": 0.02}

    def test_precision_overrides_every_metric(self):
        policy = AdaptivePolicy(precision=0.07)
        assert _targets(_shielded(), policy) == {
            "success_probability": 0.07, "alarm_probability": 0.07,
        }
        assert _targets(_passive(), policy) == {"ber": 0.07}

    def test_unknown_metric_without_override_raises(self, monkeypatch):
        class NoPrecision(AttackKind):
            metrics = (Metric("success_probability", SequentialEstimator),)

        monkeypatch.setitem(KINDS, "attack", NoPrecision())
        with pytest.raises(ValueError, match="no default precision"):
            _targets(_shielded())
        policy = AdaptivePolicy(precision=0.07)
        assert _targets(_shielded(), policy) == {"success_probability": 0.07}

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(precision=0.0)
        with pytest.raises(ValueError):
            AdaptivePolicy(round_size=1)
        with pytest.raises(ValueError):
            AdaptivePolicy(max_trials=3, min_trials=6)
        with pytest.raises(ValueError):
            AdaptivePolicy(method="wald")


class TestAdaptiveStopping:
    def test_extreme_cells_stop_early(self):
        """All-zero success cells must converge well under the fixed
        budget -- the whole point of adaptive precision."""
        scenario = _shielded()
        run = AdaptiveScheduler(
            scenario, tracked={"success_probability"}, persist=False
        ).run()
        assert run.converged
        assert run.trials_used <= run.fixed_trials // 2
        for cell in run.cells:
            assert cell.estimators["success_probability"].estimate == 0.0

    def test_tighter_precision_costs_more_trials(self):
        scenario = _shielded((1,))
        cheap = AdaptiveScheduler(
            scenario, AdaptivePolicy(precision=0.15), persist=False
        ).run()
        dear = AdaptiveScheduler(
            scenario, AdaptivePolicy(precision=0.05), persist=False
        ).run()
        assert cheap.trials_used < dear.trials_used

    def test_max_trials_caps_unconverged_cells(self):
        scenario = _shielded((1,))
        run = AdaptiveScheduler(
            scenario,
            AdaptivePolicy(precision=0.001, round_size=6, max_trials=12),
            persist=False,
        ).run()
        assert not run.converged
        assert run.cells[0].trials == 12

    def test_tracked_metrics_gate_stopping(self):
        """Tracking only the headline metric must not wait for alarm
        precision (and vice versa untracked metrics still accumulate)."""
        scenario = _shielded((1,))
        run = AdaptiveScheduler(
            scenario, tracked={0: {"success_probability"}}, persist=False
        ).run()
        alarm = run.cells[0].estimators["alarm_probability"]
        assert alarm.trials == run.cells[0].trials  # free data accumulated
        with pytest.raises(ValueError, match="not measured"):
            AdaptiveScheduler(scenario, tracked={0: {"ber"}}, persist=False)

    def test_ber_cells_use_mean_estimator(self):
        run = AdaptiveScheduler(_passive((1,)), persist=False).run()
        cell = run.cells[0]
        assert cell.converged
        assert 0.3 < cell.estimators["ber"].estimate < 0.6


class TestAdaptiveDeterminism:
    def test_rerun_is_bit_identical(self):
        scenario = _passive()
        first = AdaptiveScheduler(scenario, persist=False).run()
        second = AdaptiveScheduler(scenario, persist=False).run()
        assert [c.trials for c in first.cells] == [c.trials for c in second.cells]
        assert [c.estimators["ber"].total for c in first.cells] == [
            c.estimators["ber"].total for c in second.cells
        ]

    def test_round_streams_never_alias_fixed_plan_streams(self):
        """An adaptive round at (cell, round 0) must not replay the
        fixed plan's trials for the same location."""
        from repro.campaigns.runner import plan_scenario_units

        scenario = _shielded((1,))
        fixed = plan_scenario_units(scenario)[0]
        round0 = plan_scenario_units(
            scenario, positions=[0], n_trials=scenario.n_trials, round_index=0
        )[0]
        assert fixed.key != round0.key
        assert fixed.spec.seed != round0.spec.seed

    def test_parallel_matches_serial(self):
        scenario = _shielded((1, 8))
        serial = AdaptiveScheduler(scenario, persist=False).run()
        parallel = AdaptiveScheduler(scenario, workers=2, persist=False).run()
        assert [c.trials for c in serial.cells] == [c.trials for c in parallel.cells]
        assert [
            c.estimators["success_probability"].successes for c in serial.cells
        ] == [
            c.estimators["success_probability"].successes for c in parallel.cells
        ]


class TestAdaptiveCache:
    def test_second_run_is_pure_cache(self, tmp_path):
        scenario = _passive()
        first = AdaptiveScheduler(scenario, cache_dir=tmp_path).run()
        assert first.computed_units > 0 and first.cached_units == 0
        second = AdaptiveScheduler(scenario, cache_dir=tmp_path).run()
        assert second.computed_units == 0
        assert second.cached_units == first.computed_units
        assert [c.trials for c in first.cells] == [c.trials for c in second.cells]
        assert [c.estimators["ber"].total for c in first.cells] == [
            c.estimators["ber"].total for c in second.cells
        ]

    def test_adaptive_and_fixed_share_namespace_without_collisions(self, tmp_path):
        from repro.campaigns import CampaignRunner

        scenario = _shielded()
        fixed = CampaignRunner(scenario, cache_dir=tmp_path).run()
        run = AdaptiveScheduler(scenario, cache_dir=tmp_path).run()
        # The adaptive run found none of the fixed units reusable (they
        # are different coordinates) and vice versa the fixed result is
        # still fully cached afterwards.
        assert run.cached_units == 0
        again = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert again.computed_units == 0
        assert again.points == fixed.points


class TestTrackedMetricsHelper:
    def test_expectation_metrics_tracked_per_cell(self):
        scenario = registry.get("highpower-shielded")
        expectations = registry.expectations_for("highpower-shielded")
        tracked = tracked_metrics(scenario, expectations)
        positions = {loc: i for i, loc in enumerate(scenario.location_indices)}
        # Alarm expectation covers locations 1-6 only.
        assert "alarm_probability" in tracked[positions[1]]
        assert "alarm_probability" not in tracked[positions[18]]
        # Headline metric is always tracked.
        assert all("success_probability" in t for t in tracked.values())
