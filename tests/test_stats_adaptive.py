"""Tests for adaptive-precision execution: stopping, determinism, cache resume."""

from dataclasses import replace

import pytest

from repro.campaigns import CampaignRunner, registry
from repro.campaigns.cache import ResultCache
from repro.campaigns.kinds import KINDS
from repro.campaigns.kinds.attack import AttackKind
from repro.campaigns.kinds.base import Metric
from repro.campaigns.runner import plan_scenario_units
from repro.campaigns.spec import Scenario
from repro.obs.progress import read_progress
from repro.obs.report import load_trace, summarize_run
from repro.obs.trace import Tracer
from repro.stats import (
    AdaptivePolicy,
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


def _adaptive(scenario, policy=None, tracked=None, **runner):
    """One adaptive run of ``scenario``, in memory unless ``runner`` says."""
    runner.setdefault("persist", False)
    return CampaignRunner(scenario, **runner).run_adaptive(policy, tracked)


def _targets(scenario, policy=None) -> dict[str, float]:
    """The stopping target of each metric an adaptive run tracks, read
    from a one-round run of the scenario's first cell."""
    one_round = replace(
        policy or AdaptivePolicy(), round_size=2, min_trials=2, max_trials=2
    )
    first_cell = scenario.override(
        location_indices=scenario.location_indices[:1]
    )
    return _adaptive(first_cell, one_round).targets


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
            metrics = (
                Metric("success_probability", SequentialEstimator),
                *AttackKind.metrics[1:],
            )

        monkeypatch.setitem(KINDS, "attack", NoPrecision())
        with pytest.raises(ValueError, match="no default precision"):
            _targets(_shielded())
        policy = AdaptivePolicy(precision=0.07)
        assert _targets(_shielded(), policy) == {
            "success_probability": 0.07, "alarm_probability": 0.07,
        }

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
        run = _adaptive(scenario, tracked={"success_probability"})
        assert run.converged
        assert run.trials_used <= run.fixed_trials // 2
        for cell in run.cells:
            assert cell.estimators["success_probability"].estimate == 0.0

    def test_tighter_precision_costs_more_trials(self):
        scenario = _shielded((1,))
        cheap = _adaptive(scenario, AdaptivePolicy(precision=0.15))
        dear = _adaptive(scenario, AdaptivePolicy(precision=0.05))
        assert cheap.trials_used < dear.trials_used

    def test_max_trials_caps_unconverged_cells(self):
        scenario = _shielded((1,))
        run = _adaptive(
            scenario,
            AdaptivePolicy(precision=0.001, round_size=6, max_trials=12),
        )
        assert not run.converged
        assert run.cells[0].trials == 12

    def test_tracked_metrics_gate_stopping(self):
        """Tracking only the headline metric must not wait for alarm
        precision (and vice versa untracked metrics still accumulate)."""
        scenario = _shielded((1,))
        run = _adaptive(scenario, tracked={0: {"success_probability"}})
        alarm = run.cells[0].estimators["alarm_probability"]
        assert alarm.trials == run.cells[0].trials  # free data accumulated
        with pytest.raises(ValueError, match="not measured"):
            _adaptive(scenario, tracked={0: {"ber"}})

    def test_ber_cells_use_mean_estimator(self):
        run = _adaptive(_passive((1,)))
        cell = run.cells[0]
        assert cell.converged
        assert 0.3 < cell.estimators["ber"].estimate < 0.6


class TestAdaptiveDeterminism:
    def test_rerun_is_bit_identical(self):
        scenario = _passive()
        first = _adaptive(scenario)
        second = _adaptive(scenario)
        assert [c.trials for c in first.cells] == [c.trials for c in second.cells]
        assert [c.estimators["ber"].total for c in first.cells] == [
            c.estimators["ber"].total for c in second.cells
        ]

    def test_round_streams_never_alias_fixed_plan_streams(self):
        """An adaptive round at (cell, round 0) must not replay the
        fixed plan's trials for the same location."""
        scenario = _shielded((1,))
        fixed = plan_scenario_units(scenario)[0]
        round0 = plan_scenario_units(
            scenario, positions=[0], n_trials=scenario.n_trials, round_index=0
        )[0]
        assert fixed.key != round0.key
        assert fixed.spec.seed != round0.spec.seed

    def test_parallel_matches_serial(self):
        scenario = _shielded((1, 8))
        serial = _adaptive(scenario)
        parallel = _adaptive(scenario, workers=2)
        assert [c.trials for c in serial.cells] == [c.trials for c in parallel.cells]
        assert [
            c.estimators["success_probability"].successes for c in serial.cells
        ] == [
            c.estimators["success_probability"].successes for c in parallel.cells
        ]


class TestAdaptiveCache:
    def test_second_run_is_pure_cache(self, tmp_path):
        scenario = _passive()
        first = _adaptive(scenario, cache_dir=tmp_path, persist=True)
        assert first.computed_units > 0 and first.cached_units == 0
        second = _adaptive(scenario, cache_dir=tmp_path, persist=True)
        assert second.computed_units == 0
        assert second.cached_units == first.computed_units
        assert [c.trials for c in first.cells] == [c.trials for c in second.cells]
        assert [c.estimators["ber"].total for c in first.cells] == [
            c.estimators["ber"].total for c in second.cells
        ]

    def test_adaptive_and_fixed_share_namespace_without_collisions(self, tmp_path):
        scenario = _shielded()
        fixed = CampaignRunner(scenario, cache_dir=tmp_path).run()
        run = CampaignRunner(scenario, cache_dir=tmp_path).run_adaptive()
        # The adaptive run found none of the fixed units reusable (they
        # are different coordinates) and vice versa the fixed result is
        # still fully cached afterwards.
        assert run.cached_units == 0
        again = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert again.computed_units == 0
        assert again.points == fixed.points


def _round_keys(run) -> list[str]:
    """The key of every unit an adaptive run planned, replanned from
    each cell's round count."""
    keys = []
    for cell in run.cells:
        trials = 0
        for round_index in range(cell.rounds):
            chunk = min(
                run.policy.round_size, run.policy.max_trials - trials
            )
            keys += [
                unit.key
                for unit in plan_scenario_units(
                    run.scenario, positions=[cell.position], n_trials=chunk,
                    round_index=round_index,
                )
            ]
            trials += chunk
        assert trials == cell.trials
    return keys


class TestAdaptiveObservability:
    """Adaptive rounds go through the runner's one cache-or-compute loop,
    so they persist, trace and publish progress as a fixed run does."""

    _POLICY = AdaptivePolicy(round_size=4, min_trials=4, max_trials=12)

    def _traced(self, scenario, cache_dir, workers):
        tracer = Tracer(cache_dir, scenario.name)
        run = CampaignRunner(
            scenario, cache_dir=cache_dir, workers=workers, tracer=tracer,
            progress=True,
        ).run_adaptive(self._POLICY)
        manifest, events = load_trace(tracer.path)
        (summary,) = [e for e in events if e["type"] == "summary"]
        spans = [e for e in events if e["type"] == "unit"]
        return run, manifest, events, summary, spans

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool2"])
    def test_rounds_are_traced_published_and_cached(self, tmp_path, workers):
        scenario = _shielded((1, 8))
        run, manifest, events, summary, spans = self._traced(
            scenario, tmp_path, workers
        )
        assert manifest["adaptive"] is True
        assert manifest["workers"] == workers
        keys = _round_keys(run)
        assert sorted(span["key"] for span in spans) == sorted(keys)
        assert {span["status"] for span in spans} == {"computed"}
        assert run.computed_units == len(keys) and run.cached_units == 0
        assert summary["rounds"] == run.rounds > 1
        assert summary["total_units"] == len(keys)
        assert summary["computed_units"] == run.computed_units
        assert summary["cached_units"] == run.cached_units
        executes = [
            e["seconds"] for e in events
            if e["type"] == "phase" and e["name"] == "execute"
        ]
        assert len(executes) == run.rounds
        # The report judges utilization against every round's execute.
        report = summarize_run(manifest, events)
        assert report["workers"]["execute_wall_s"] == pytest.approx(
            sum(executes)
        )
        (snap,) = read_progress(
            ResultCache(tmp_path).store, scenario.scenario_hash()
        )
        assert snap["role"] == "runner" and snap["phase"] == "done"
        assert (
            snap["done_units"] == snap["computed_units"]
            == snap["total_units"] == len(keys)
        )

        plain = CampaignRunner(
            scenario, cache_dir=tmp_path / "plain", progress=False
        ).run_adaptive(self._POLICY)
        assert run.cells == plain.cells

        warm, _, _, summary, spans = self._traced(
            scenario, tmp_path, workers
        )
        assert sorted(span["key"] for span in spans) == sorted(keys)
        assert {span["status"] for span in spans} == {"hit"}
        assert (warm.computed_units, warm.cached_units) == (0, len(keys))
        assert summary["cached_units"] == len(keys)
        assert warm.cells == run.cells


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
