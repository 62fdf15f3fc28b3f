"""Campaign-layer tests for the physio scenario kind.

Fast tests cover spec validation, planning, reduction, estimator
reconstruction, the CLI rendering, and cache resume equivalence; the
``slow``-marked test SIGKILLs a real ``python -m repro run`` mid-flight
and checks the resumed campaign is bit-identical to an uninterrupted
one (the acceptance contract of ``physio-leakage-shielded``).
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import CampaignRunner, registry
from repro.campaigns.cli import main as cli_main
from repro.campaigns.runner import evaluate_unit, plan_scenario_units
from repro.campaigns.spec import Scenario
from repro.campaigns.kinds import KINDS
from repro.stats.adaptive import AdaptivePolicy
from repro.stats.estimator import MeanEstimator, SequentialEstimator
from repro.stats.validation import cells_from_result

_REPO = Path(__file__).resolve().parent.parent

PHYSIO_SCENARIOS = (
    "physio-leakage-by-location",
    "physio-leakage-shielded",
    "physio-rhythm-privacy",
)


def _small_physio(**changes) -> Scenario:
    base = dict(
        name="physio-test",
        kind="physio",
        shield_present=False,
        rhythm="normal",
        location_indices=(1, 12),
        n_trials=3,
        seed=11,
    )
    base.update(changes)
    return Scenario(**base)


class TestSpec:
    def test_builtin_physio_scenarios_registered(self):
        for name in PHYSIO_SCENARIOS:
            scenario = registry.get(name)
            assert scenario.kind == "physio"
            assert registry.expectations_for(name)

    def test_rejects_unknown_rhythm(self):
        with pytest.raises(ValueError, match="unknown rhythm"):
            _small_physio(rhythm="sinus")

    def test_rejects_bad_packets_per_record(self):
        with pytest.raises(ValueError, match="packets_per_record"):
            _small_physio(packets_per_record=0)

    def test_hash_covers_physio_axes(self):
        base = _small_physio()
        assert base.scenario_hash() != _small_physio(rhythm="mixed").scenario_hash()
        assert base.scenario_hash() != _small_physio(
            shield_present=True
        ).scenario_hash()
        assert base.scenario_hash() != _small_physio(
            packets_per_record=8
        ).scenario_hash()
        # Display fields are not identity.
        assert base.scenario_hash() == _small_physio(
            title="renamed"
        ).scenario_hash()

    def test_override_narrows_locations(self):
        narrowed = registry.get("physio-leakage-by-location").override(
            location_indices=(1, 2)
        )
        assert narrowed.grid_size() == 2

    def test_summary_mentions_condition(self):
        assert "no shield" in _small_physio().summary()
        assert "shield at +20" in _small_physio(shield_present=True).summary()


class TestPlanningAndReduction:
    @pytest.mark.parametrize("name", PHYSIO_SCENARIOS)
    def test_unit_evaluation_is_pure(self, name):
        """A unit's result depends only on its spec, never on how often
        or in which copy it was evaluated."""
        axes = registry.get(name).location_indices
        scenario = registry.get(name).override(
            n_trials=4,
            location_indices=tuple(
                axes[i] for i in sorted({0, len(axes) // 2, len(axes) - 1})
            ),
        )
        units = plan_scenario_units(scenario)
        for unit, fresh in zip(units, plan_scenario_units(scenario)):
            first = evaluate_unit(unit.spec)
            assert evaluate_unit(unit.spec) == first
            assert evaluate_unit(pickle.loads(pickle.dumps(unit.spec))) == first
            assert evaluate_unit(fresh.spec) == first

    def test_plan_is_deterministic_and_chunked(self):
        scenario = _small_physio(chunk_size=2)
        units = plan_scenario_units(scenario)
        assert [u.coords["n_trials"] for u in units] == [2, 1, 2, 1]
        assert [u.key for u in units] == [
            u.key for u in plan_scenario_units(scenario)
        ]

    def test_round_units_never_alias_fixed_units(self):
        scenario = _small_physio()
        fixed = {u.key for u in plan_scenario_units(scenario)}
        round0 = {
            u.key
            for u in plan_scenario_units(
                scenario, positions=[0], n_trials=3, round_index=0
            )
        }
        assert not fixed & round0

    def test_reduction_merges_chunks_bit_identically(self):
        whole = CampaignRunner(_small_physio(), persist=False).run()
        sharded = CampaignRunner(
            _small_physio(chunk_size=2), persist=False
        ).run()
        assert whole.value_key == "hr_abs_error"
        for a, b in zip(whole.points, sharded.points):
            assert a["axis"] == b["axis"]
            assert a["n_records"] == b["n_records"] == 3

    def test_points_carry_metrics_and_moments(self):
        result = CampaignRunner(_small_physio(), persist=False).run()
        point = result.points[0]
        for key in (
            "hr_abs_error", "hr_error_vs_chance", "hr_abs_error_clear",
            "beat_f1", "rhythm_accuracy", "waveform_nrmse", "ber",
            "hr_err_sqsum", "rhythm_correct",
        ):
            assert key in point
        # Location 1, no shield: clean content leak.
        assert point["hr_abs_error"] < 1.0
        assert point["rhythm_accuracy"] == 1.0

    def test_cache_resume_is_bit_identical(self, tmp_path, cache_first_units):
        scenario = _small_physio(chunk_size=1)
        uninterrupted = CampaignRunner(
            scenario, cache_dir=tmp_path / "a"
        ).run()
        cache_first_units(scenario, tmp_path / "b", 3)
        resumed = CampaignRunner(scenario, cache_dir=tmp_path / "b").run()
        assert resumed.cached_units == 3
        assert json.dumps(resumed.points, sort_keys=True) == json.dumps(
            uninterrupted.points, sort_keys=True
        )


class TestStatsIntegration:
    def test_scenario_metrics(self):
        metrics = KINDS["physio"].metric_names()
        assert metrics[0] == "hr_abs_error"
        assert "rhythm_accuracy" in metrics
        assert len(metrics) == 6

    def test_metric_estimator_families(self):
        estimators = KINDS["physio"].estimators()
        assert isinstance(estimators["rhythm_accuracy"], SequentialEstimator)
        gap = estimators["hr_error_vs_chance"]
        assert isinstance(gap, MeanEstimator) and gap.bounds is None
        assert estimators["hr_abs_error"].bounds[0] == 0.0
        with pytest.raises(ValueError, match="not measured"):
            CampaignRunner(_small_physio(), persist=False).run_adaptive(
                tracked={"qt-interval"}
            )

    def test_cells_from_result_rebuild_exact_moments(self):
        result = CampaignRunner(_small_physio(), persist=False).run()
        cells = cells_from_result(result)
        point = result.points[0]
        estimators = cells[0].estimators
        assert set(estimators) == set(KINDS["physio"].metric_names())
        assert estimators["hr_abs_error"].estimate == pytest.approx(
            point["hr_abs_error"]
        )
        assert estimators["rhythm_accuracy"].trials == point["n_records"]

    def test_adaptive_run_absorbs_physio_units(self):
        scenario = _small_physio(location_indices=(1,))
        policy = AdaptivePolicy(min_trials=2, round_size=2, max_trials=4)
        run = CampaignRunner(scenario, persist=False).run_adaptive(policy)
        (cell,) = run.cells
        assert cell.trials == 4
        assert cell.estimators["hr_abs_error"].count == 4
        assert cell.estimators["rhythm_accuracy"].trials == 4

    def test_adaptive_matches_fresh_absorb_from_cache(self, tmp_path):
        scenario = _small_physio(location_indices=(1,))
        policy = AdaptivePolicy(min_trials=2, round_size=2, max_trials=4)
        first = CampaignRunner(scenario, cache_dir=tmp_path).run_adaptive(
            policy
        )
        second = CampaignRunner(scenario, cache_dir=tmp_path).run_adaptive(
            policy
        )
        assert second.computed_units == 0
        assert second.cached_units == first.computed_units
        for a, b in zip(first.cells, second.cells):
            assert a.estimators["hr_abs_error"].total == pytest.approx(
                b.estimators["hr_abs_error"].total
            )


class TestCli:
    def test_run_renders_physio_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli_main([
            "run", "physio-leakage-by-location",
            "--trials", "2", "--locations", "1",
            "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "HR error / vs chance" in out
        assert "heart rate leaks" in out

    def test_run_json_payload_has_physio_points(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli_main([
            "run", "physio-leakage-shielded",
            "--trials", "2", "--locations", "1",
            "--no-cache", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_key"] == "hr_abs_error"
        assert payload["points"][0]["n_records"] == 2

    def test_validate_smoke_budget_runs_physio(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli_main([
            "validate", "physio-rhythm-privacy",
            "--budget", "smoke", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "physio-rhythm-privacy" in out


@pytest.mark.slow
@pytest.mark.statistical
class TestFullLeakageSweep:
    """Nightly-only: the full physio grids at their registered budgets."""

    def test_leakage_profile_is_monotone_in_link_quality(self):
        scenario = registry.get("physio-leakage-by-location")
        result = CampaignRunner(scenario, persist=False).run()
        by_axis = {p["axis"]: p for p in result.points}
        # Clean link: clinical-grade leak at every near location.
        for axis in range(1, 11):
            assert by_axis[axis]["hr_abs_error"] < 2.0
            assert by_axis[axis]["beat_f1"] > 0.95
        # Past the NLOS knee the content dies with the link.
        for axis in (17, 18):
            assert by_axis[axis]["hr_abs_error"] > 10.0
            assert by_axis[axis]["ber"] > 0.45

    def test_shielded_grid_sits_at_chance_everywhere(self):
        scenario = registry.get("physio-leakage-shielded")
        result = CampaignRunner(scenario, persist=False).run()
        for point in result.points:
            assert point["hr_abs_error"] > 25.0
            assert abs(point["hr_error_vs_chance"]) < 15.0
            assert point["rhythm_accuracy"] < 0.5


@pytest.mark.slow
class TestSigkillResume:
    """The acceptance contract: SIGKILL mid-campaign, resume bit-identical."""

    ARGS = [
        "run", "physio-leakage-shielded",
        "--trials", "12", "--chunk-size", "2", "--locations", "1,9,17",
        "--format", "json",
    ]

    def _spawn(self, cache_dir: Path) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_REPO / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--cache-dir", str(cache_dir)],
            cwd=_REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def _run_to_completion(self, cache_dir: Path) -> dict:
        proc = self._spawn(cache_dir)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        return json.loads(out)

    def test_sigkill_mid_campaign_resumes_bit_identically(
        self, tmp_path, cached_unit_count
    ):
        reference = self._run_to_completion(tmp_path / "uninterrupted")

        killed_dir = tmp_path / "killed"
        victim = self._spawn(killed_dir)
        # Let a few units land in the store, then kill without cleanup.
        deadline = time.time() + 60
        while time.time() < deadline and victim.poll() is None:
            if cached_unit_count(killed_dir) >= 3:
                break
            time.sleep(0.05)
        assert victim.poll() is None, "the run finished before the kill"
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        partial = cached_unit_count(killed_dir)
        assert partial > 0, "kill landed before any unit cached"

        resumed = self._run_to_completion(killed_dir)
        assert resumed["points"] == reference["points"]
        assert resumed["units"]["from_cache"] >= partial
