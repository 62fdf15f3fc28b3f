"""The run-history index and ``repro history`` / ``repro diff``.

History is the longitudinal half of observability: every traced run
reduces to one JSONL line under ``<cache>/runs/history.jsonl``, and the
diff engine compares any two lines, flagging slower stages, lower
throughput, or a colder cache beyond a relative threshold.
"""

import json

import pytest

from repro.campaigns import registry
from repro.campaigns.cli import main
from repro.campaigns.runner import CampaignRunner
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    diff_runs,
    find_entry,
    history_path,
    load_history,
    record_run,
)
from repro.obs.trace import Tracer


def _scenario():
    return registry.get("fleet-attack-prevalence").override(
        n_patients=20, n_trials=1, chunk_size=5
    )


def _traced_run(cache_dir, scenario=None):
    scenario = scenario or _scenario()
    tracer = Tracer(cache_dir, scenario.name)
    CampaignRunner(scenario, cache_dir=cache_dir, tracer=tracer).run()
    return tracer


def _entry(run_id="r1", scenario="s", started="2026-08-08T00:00:00",
           wall_s=10.0, throughput=5.0, hit_rate=0.8, stages=None):
    return {
        "history_schema": HISTORY_SCHEMA_VERSION,
        "run_id": run_id,
        "scenario": scenario,
        "started_at": started,
        "summary": {
            "wall_s": wall_s,
            "throughput_units_per_s": throughput,
            "cache_hit_rate": hit_rate,
            "stages": stages or {},
        },
    }


class TestRecordAndLoad:
    def test_traced_run_auto_records_into_history(self, tmp_path):
        tracer = _traced_run(tmp_path)
        entries = load_history(tmp_path)
        assert len(entries) == 1
        entry = entries[0]
        assert entry["run_id"] == tracer.run_id
        assert entry["scenario"] == "fleet-attack-prevalence"
        assert entry["history_schema"] == HISTORY_SCHEMA_VERSION
        assert entry["summary"]["units"] == 4
        assert entry["summary"]["computed"] == 4
        assert entry["summary"]["wall_s"] > 0
        assert entry["summary"]["throughput_units_per_s"] > 0
        assert not entry["summary"]["interrupted"]
        assert entry["summary"]["stages"]
        assert entry["manifest"]["cache_backend"]

    def test_second_run_appends_a_second_entry(self, tmp_path):
        first = _traced_run(tmp_path)
        second = _traced_run(tmp_path)
        entries = load_history(tmp_path)
        assert [e["run_id"] for e in entries] == [
            first.run_id, second.run_id,
        ]
        # The warm second run reused every unit.
        assert entries[1]["summary"]["hits"] == 4
        assert entries[1]["summary"]["cache_hit_rate"] == 1.0

    def test_re_record_supersedes_by_run_id(self, tmp_path):
        tracer = _traced_run(tmp_path)
        assert record_run(tmp_path, tracer.run_dir) is not None
        raw_lines = history_path(tmp_path).read_text().splitlines()
        assert len(raw_lines) == 2
        entries = load_history(tmp_path)
        assert len(entries) == 1
        assert entries[0]["run_id"] == tracer.run_id

    def test_torn_tail_is_skipped(self, tmp_path):
        _traced_run(tmp_path)
        path = history_path(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"run_id": "torn", "summ')
        entries = load_history(tmp_path)
        assert len(entries) == 1
        assert entries[0]["run_id"] != "torn"

    def test_scenario_filter(self, tmp_path):
        _traced_run(tmp_path)
        other = registry.get("attack-success-shielded").override(
            n_trials=2, location_indices=(1,)
        )
        _traced_run(tmp_path, scenario=other)
        assert len(load_history(tmp_path)) == 2
        fleet_only = load_history(
            tmp_path, scenario="fleet-attack-prevalence"
        )
        assert [e["scenario"] for e in fleet_only] == [
            "fleet-attack-prevalence"
        ]

    def test_find_entry(self, tmp_path):
        tracer = _traced_run(tmp_path)
        assert find_entry(tmp_path, tracer.run_id)["run_id"] == tracer.run_id
        assert find_entry(tmp_path, "nope") is None

    def test_record_run_without_trace_returns_none(self, tmp_path):
        assert record_run(tmp_path, tmp_path / "missing-run") is None
        assert not history_path(tmp_path).exists()

    def test_manifest_only_trace_records(self, tmp_path):
        # A run killed right after start leaves a manifest line and no
        # spans; indexing it must not crash and must keep the run id.
        tracer = Tracer(tmp_path, "fleet-attack-prevalence")
        tracer.start_run({"scenario": "fleet-attack-prevalence"})
        entry = record_run(tmp_path, tracer.run_dir)
        assert entry is not None
        assert entry["run_id"] == tracer.run_id
        assert entry["summary"]["units"] == 0
        entries = load_history(tmp_path)
        assert [e["run_id"] for e in entries] == [tracer.run_id]
        tracer.finish()


class TestDiffRuns:
    def test_injected_slowdown_is_flagged(self):
        base = _entry(
            "base", wall_s=10.0, throughput=5.0,
            stages={"execute": {"p50_s": 1.0, "p90_s": 2.0}},
        )
        slow = _entry(
            "slow", wall_s=25.0, throughput=2.0,
            stages={"execute": {"p50_s": 2.5, "p90_s": 5.0}},
        )
        diff = diff_runs(base, slow)
        assert diff["baseline"] == "base"
        assert diff["candidate"] == "slow"
        assert set(diff["regressions"]) == {
            "wall_s", "throughput_units_per_s",
            "execute.p50_s", "execute.p90_s",
        }

    def test_identical_runs_show_no_regressions(self):
        entry = _entry(stages={"execute": {"p50_s": 1.0, "p90_s": 2.0}})
        assert diff_runs(entry, dict(entry))["regressions"] == []

    def test_threshold_is_respected(self):
        base = _entry("a", wall_s=10.0)
        slightly = _entry("b", wall_s=10.8)
        assert diff_runs(base, slightly, threshold=0.10)["regressions"] == []
        assert diff_runs(base, slightly, threshold=0.05)["regressions"] == [
            "wall_s"
        ]

    def test_lower_is_worse_direction(self):
        base = _entry("a", hit_rate=1.0, throughput=10.0)
        colder = _entry("b", hit_rate=0.5, throughput=10.0)
        assert diff_runs(base, colder)["regressions"] == ["cache_hit_rate"]

    def test_zero_or_missing_baseline_never_flags(self):
        base = _entry("a", wall_s=0.0, throughput=None, hit_rate=0.0)
        cand = _entry("b", wall_s=100.0, throughput=1.0, hit_rate=1.0)
        diff = diff_runs(base, cand)
        assert diff["regressions"] == []
        by_name = {m["name"]: m for m in diff["metrics"]}
        assert by_name["wall_s"]["ratio"] is None
        assert by_name["throughput_units_per_s"]["ratio"] is None

    def test_stage_present_on_one_side_is_informational(self):
        base = _entry("a", stages={"flush": {"p50_s": 1.0, "p90_s": 1.0}})
        cand = _entry("b", stages={"queue": {"p50_s": 9.0, "p90_s": 9.0}})
        diff = diff_runs(base, cand)
        assert diff["regressions"] == []
        names = {m["name"] for m in diff["metrics"]}
        assert {"flush.p50_s", "queue.p90_s"} <= names

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            diff_runs(_entry("a"), _entry("b"), threshold=-0.1)


class TestHistoryCli:
    def test_history_table_lists_runs(self, capsys, tmp_path):
        _traced_run(tmp_path)
        _traced_run(tmp_path)
        capsys.readouterr()
        assert main(["history", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "run id" in out
        assert "100% hit" in out  # the warm second run

    def test_history_json_and_limit(self, capsys, tmp_path):
        first = _traced_run(tmp_path)
        second = _traced_run(tmp_path)
        del first
        capsys.readouterr()
        assert main([
            "history", "--cache-dir", str(tmp_path),
            "--limit", "1", "--format", "json",
        ]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["run_id"] for e in entries] == [second.run_id]

    def test_runs_recorded_with_a_transport_field_still_load(
        self, capsys, tmp_path
    ):
        # Manifests once carried the executor's payload transport; old
        # traces and history lines keep loading, and nothing shows it.
        tracer = Tracer(tmp_path, "fleet-attack-prevalence")
        tracer.start_run(
            {"scenario": "fleet-attack-prevalence", "transport": "auto"}
        )
        tracer.finish()
        old_line = dict(
            _entry(run_id="old", scenario="fleet-attack-prevalence"),
            manifest={"workers": 2, "transport": "shm"},
        )
        with open(history_path(tmp_path), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old_line) + "\n")
        assert record_run(tmp_path, tracer.run_dir)["manifest"] == {}
        capsys.readouterr()
        assert main([
            "history", "--cache-dir", str(tmp_path), "--format", "json",
        ]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["run_id"] for e in entries} == {"old", tracer.run_id}
        assert main([
            "report", "fleet-attack-prevalence", "--cache-dir", str(tmp_path),
        ]) == 0
        assert "transport" not in capsys.readouterr().out

    def test_runs_recorded_with_an_accel_backend_field_still_load(
        self, capsys, tmp_path
    ):
        # Manifests once carried the kernel backend; old traces and
        # history lines keep loading, and nothing shows it.
        tracer = Tracer(tmp_path, "fleet-attack-prevalence")
        tracer.start_run({
            "scenario": "fleet-attack-prevalence", "workers": 1,
            "cache_backend": "filesystem", "accel_backend": "numba",
        })
        tracer.finish()
        old_line = dict(
            _entry(run_id="old", scenario="fleet-attack-prevalence"),
            manifest={"workers": 2, "accel_backend": "numpy"},
        )
        with open(history_path(tmp_path), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old_line) + "\n")
        assert record_run(tmp_path, tracer.run_dir)["manifest"] == {
            "workers": 1, "cache_backend": "filesystem",
        }
        capsys.readouterr()
        assert main([
            "history", "--cache-dir", str(tmp_path), "--format", "json",
        ]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["run_id"] for e in entries} == {"old", tracer.run_id}
        assert main([
            "diff", "old", tracer.run_id, "--cache-dir", str(tmp_path),
            "--format", "json",
        ]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert (diff["baseline"], diff["candidate"]) == ("old", tracer.run_id)
        assert main([
            "report", "fleet-attack-prevalence", "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "workers=1 cache=filesystem" in out
        assert "accel" not in out

    def test_history_empty_cache_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no recorded runs"):
            main(["history", "--cache-dir", str(tmp_path)])

    def test_diff_flags_slowdown_and_strict_gates(self, capsys, tmp_path):
        import repro.obs.history as history_mod

        base = _entry(
            "base", scenario="fleet-attack-prevalence",
            wall_s=10.0, stages={"execute": {"p50_s": 1.0, "p90_s": 2.0}},
        )
        slow = _entry(
            "slow", scenario="fleet-attack-prevalence",
            started="2026-08-08T01:00:00",
            wall_s=25.0, stages={"execute": {"p50_s": 2.5, "p90_s": 5.0}},
        )
        path = history_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for entry in (base, slow):
                fh.write(json.dumps(entry) + "\n")
        del history_mod
        capsys.readouterr()
        # Without --strict the diff reports but does not gate.
        assert main([
            "diff", "base", "slow", "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "wall_s" in out
        # --strict turns regressions into a non-zero exit.
        assert main([
            "diff", "base", "slow", "--strict",
            "--cache-dir", str(tmp_path),
        ]) == 1
        # The reverse direction (slow -> fast) is an improvement.
        capsys.readouterr()
        assert main([
            "diff", "slow", "base", "--strict",
            "--cache-dir", str(tmp_path),
        ]) == 0

    def test_diff_json_output(self, capsys, tmp_path):
        first = _traced_run(tmp_path)
        second = _traced_run(tmp_path)
        capsys.readouterr()
        assert main([
            "diff", first.run_id, second.run_id,
            "--cache-dir", str(tmp_path), "--format", "json",
        ]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["baseline"] == first.run_id
        assert diff["candidate"] == second.run_id
        assert isinstance(diff["regressions"], list)

    def test_diff_unknown_run_errors(self, tmp_path):
        _traced_run(tmp_path)
        with pytest.raises(SystemExit, match="nope"):
            main(["diff", "nope", "also-nope", "--cache-dir", str(tmp_path)])
