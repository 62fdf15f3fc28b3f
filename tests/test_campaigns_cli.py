"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.campaigns.cli import main
from repro.campaigns.kinds.attack import AttackChunkSpec, run_attack_chunk


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestList:
    def test_lists_builtin_scenarios(self, capsys):
        out = _run(capsys, "list")
        assert "attack-success-shielded" in out
        assert "passive-ber-by-location" in out
        assert "mimo-eavesdropper" in out

    def test_json_listing_parses(self, capsys):
        payload = json.loads(_run(capsys, "list", "--format", "json"))
        names = {entry["name"] for entry in payload}
        assert "crypto-only-baseline" in names
        assert all("hash" in entry for entry in payload)


class TestRun:
    def test_run_reproduces_the_sweep_numbers(self, capsys, tmp_path):
        out = _run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "3", "--locations", "1,8",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        payload = json.loads(out)
        assert payload["units"]["computed"] == 2
        for point in payload["points"]:
            location = point["axis"]
            wins, alarms = run_attack_chunk(
                AttackChunkSpec(
                    location_index=location,
                    n_trials=3,
                    command="therapy",
                    attacker="fcc",
                    shield_present=False,
                    antenna_gain_dbi=None,
                    seed=0 + location,
                )
            )
            assert point["success_probability"] == wins / 3
            assert point["alarm_probability"] == alarms / 3

    def test_second_run_completes_from_cache(self, capsys, tmp_path):
        argv = (
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        first = json.loads(_run(capsys, *argv))
        second = json.loads(_run(capsys, *argv))
        assert first["units"]["computed"] == 1
        assert second["units"]["computed"] == 0
        assert second["points"] == first["points"]

    def test_markdown_format(self, capsys, tmp_path):
        out = _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--format", "markdown",
        )
        assert "| location |" in out.splitlines()[2]

    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--no-cache",
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scenario_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "not-a-scenario"])

    def test_bad_locations_exit_with_error(self):
        with pytest.raises(SystemExit, match="locations"):
            main(["run", "attack-success-shielded", "--locations", "1,x"])

    def test_out_of_range_location_exits_with_error(self):
        with pytest.raises(SystemExit, match="unknown testbed location"):
            main(["run", "attack-success-shielded", "--locations", "99"])

    def test_inapplicable_override_exits_with_error(self):
        with pytest.raises(SystemExit, match="do not apply"):
            main(["run", "mimo-eavesdropper", "--locations", "1"])

    def test_negative_workers_exit_with_error(self, tmp_path):
        with pytest.raises(SystemExit, match="workers"):
            main([
                "run", "attack-success-shielded",
                "--trials", "2", "--locations", "1",
                "--cache-dir", str(tmp_path), "--workers", "-1",
            ])

    def test_points_carry_integer_counts(self, capsys, tmp_path):
        payload = json.loads(_run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "3", "--locations", "1",
            "--cache-dir", str(tmp_path), "--format", "json",
        ))
        point = payload["points"][0]
        assert point["wins"] == 3
        assert point["alarms"] == 0


class TestStatus:
    def test_status_tracks_cache(self, capsys, tmp_path):
        argv = (
            "status", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        before = json.loads(_run(capsys, *argv))
        assert before["cached_units"] == 0
        assert before["total_units"] == 2
        _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path),
        )
        after = json.loads(_run(capsys, *argv))
        assert after["cached_units"] == 2


class TestCompare:
    def test_shielded_vs_unshielded(self, capsys, tmp_path):
        out = _run(
            capsys,
            "compare", "attack-success-unshielded", "attack-success-shielded",
            "--trials", "3", "--locations", "1,4",
            "--cache-dir", str(tmp_path), "--format", "json",
        )
        payload = json.loads(out)
        assert payload["value_key"] == "success_probability"
        # The paper's headline: the shield zeroes the attack everywhere,
        # and the bare IMD falls at close range.
        by_axis = {row["axis"]: row for row in payload["comparison"]}
        assert by_axis[1]["attack-success-unshielded"] == 1.0
        assert by_axis[1]["attack-success-shielded"] == 0.0
        assert by_axis[1]["delta"] == -1.0

    def test_mismatched_kinds_rejected(self):
        with pytest.raises(SystemExit, match="cannot compare"):
            main(["compare", "attack-success-shielded", "passive-ber-by-location"])


class TestProfileFlag:
    def test_profile_writes_loadable_pstats(self, capsys, tmp_path):
        import pstats

        out = _run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path), "--profile",
        )
        profile_path = tmp_path / "profiles" / "attack-success-shielded.pstats"
        assert str(profile_path) in out
        stats = pstats.Stats(str(profile_path))
        assert stats.total_calls > 0

    def test_profile_with_everything_cached_reports_nothing_to_do(
        self, capsys, tmp_path
    ):
        argv = (
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1,8",
            "--cache-dir", str(tmp_path),
        )
        _run(capsys, *argv)
        out = _run(capsys, *argv, "--profile")
        assert "nothing to profile" in out

    def test_profile_does_not_change_results(self, capsys, tmp_path):
        profiled = json.loads(_run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "2", "--locations", "1,4",
            "--cache-dir", str(tmp_path / "p"), "--profile",
            "--format", "json",
        ))
        plain = json.loads(_run(
            capsys,
            "run", "attack-success-unshielded",
            "--trials", "2", "--locations", "1,4",
            "--cache-dir", str(tmp_path / "q"), "--format", "json",
        ))
        assert profiled["points"] == plain["points"]


_TINY = ("--trials", "2", "--locations", "1")

#: One succeeding invocation per verb that prints a result, run against
#: the ``traced_cache`` fixture (``{run_a}``/``{run_b}``: its two runs).
_RESULT_ARGV = {
    "list": ("list",),
    "run": ("run", "attack-success-shielded", *_TINY),
    "status": ("status", "attack-success-shielded", *_TINY),
    "compare": (
        "compare", "attack-success-unshielded", "attack-success-shielded",
        *_TINY,
    ),
    "validate": ("validate", "attack-success-shielded", "--budget", "smoke"),
    "cache stats": ("cache", "stats"),
    "report": ("report", "attack-success-shielded"),
    "top": ("top", "attack-success-shielded", *_TINY, "--once"),
    "history": ("history",),
    "diff": ("diff", "{run_a}", "{run_b}"),
}


@pytest.fixture(scope="module")
def traced_cache(tmp_path_factory):
    """A cache root holding two traced runs of one tiny scenario."""
    from repro.obs.history import load_history

    root = tmp_path_factory.mktemp("traced")
    for _ in range(2):
        assert main([
            "run", "attack-success-shielded", *_TINY,
            "--cache-dir", str(root), "--trace",
        ]) == 0
    run_a, run_b = (e["run_id"] for e in load_history(root))
    return root, {"run_a": run_a, "run_b": run_b}


def _result_argv(verb, traced_cache) -> list[str]:
    root, run_ids = traced_cache
    argv = [arg.format(**run_ids) for arg in _RESULT_ARGV[verb]]
    if verb != "list":
        argv += ["--cache-dir", str(root)]
    return argv


class TestVerbTable:
    def test_result_verbs_are_the_format_verbs(self):
        from repro.campaigns.cli import _VERBS

        takes_format = {v.name for v in _VERBS if "format" in v.groups.split()}
        assert takes_format == set(_RESULT_ARGV)

    def test_shared_flags_have_one_definition(self):
        from repro.campaigns.cli import _GROUPS, _VERBS

        shared = ("--cache-dir", "--format", "--trace", "--progress",
                  "--log-level")
        declared = [
            flag
            for specs in (*_GROUPS.values(), *(v.args for v in _VERBS))
            for flags, _ in specs
            for flag in flags
        ]
        for flag in shared:
            assert declared.count(flag) == 1, flag

    @pytest.mark.parametrize("verb", sorted(_RESULT_ARGV))
    def test_every_result_verb_prints_json(self, verb, traced_cache, capsys):
        capsys.readouterr()
        assert main([*_result_argv(verb, traced_cache), "--format", "json"]) == 0
        out = capsys.readouterr().out
        if verb == "top":  # streams: one compact document per poll
            assert len(out.splitlines()) == 1
        json.loads(out)

    @pytest.mark.parametrize("verb", ["list", "status", "cache stats", "top"])
    def test_json_flag_is_gone(self, verb, traced_cache):
        with pytest.raises(SystemExit) as excinfo:
            main([*_result_argv(verb, traced_cache), "--json"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", ["--trace", "--progress"])
    def test_validate_takes_no_execution_trace_flags(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", "attack-success-shielded", flag])
        assert excinfo.value.code == 2


class TestJsonPayloads:
    """``--format json`` prints the payloads the old ``--json`` printed."""

    def _json(self, capsys, verb, traced_cache):
        capsys.readouterr()
        assert main([*_result_argv(verb, traced_cache), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_list(self, capsys, traced_cache):
        from repro.campaigns import registry

        assert self._json(capsys, "list", traced_cache) == [
            {
                "name": s.name,
                "kind": s.kind,
                "title": s.title,
                "grid": s.grid_size(),
                "n_trials": s.n_trials,
                "tags": list(s.tags),
                "hash": s.scenario_hash(),
            }
            for s in registry.all_scenarios()
        ]

    def _scenario(self):
        from repro.campaigns import registry

        return registry.get("attack-success-shielded").override(
            n_trials=2, location_indices=(1,)
        )

    def test_status(self, capsys, traced_cache):
        scenario = self._scenario()
        assert self._json(capsys, "status", traced_cache) == {
            "scenario": "attack-success-shielded",
            "scenario_hash": scenario.scenario_hash(),
            "total_units": 1,
            "cached_units": 1,
        }

    def test_cache_stats(self, capsys, traced_cache):
        from repro.campaigns.store import SQLiteStore

        payload = self._json(capsys, "cache stats", traced_cache)
        stats = SQLiteStore(traced_cache[0]).stats()
        assert payload == {
            "entries": stats.entries,
            "bytes": stats.bytes,
            "location": stats.location,
            "scenarios": [
                {
                    "hash": s.scenario_hash,
                    "name": s.name,
                    "entries": s.entries,
                    "bytes": s.bytes,
                }
                for s in stats.scenarios
            ],
        }
        assert self._scenario().scenario_hash() in {
            s["hash"] for s in payload["scenarios"]
        }

    def test_top_once(self, capsys, traced_cache):
        status = self._json(capsys, "top", traced_cache)
        assert set(status) == {
            "scenario", "scenario_hash", "now", "total_units",
            "cached_units", "remaining_units", "complete", "queue",
            "leases", "stalled_leases", "workers", "runners",
            "idle_workers",
        }
        assert status["scenario_hash"] == self._scenario().scenario_hash()
        assert (status["total_units"], status["cached_units"]) == (1, 1)
        assert status["complete"] is True
        assert status["queue"] == {"queued": 0, "leased": 0}
