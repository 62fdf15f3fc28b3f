"""The live campaign view: ``scenario_status`` and ``python -m repro top``.

Fast tests drive the pure status function with an injected clock (no
sleeping); the slow acceptance test at the bottom runs a real 2-worker
distributed campaign, SIGKILLs one worker mid-unit, and requires
``repro top`` to report the orphaned lease as stalled *before* a
surviving worker re-claims it.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaigns import registry
from repro.campaigns.cache import ResultCache
from repro.campaigns.cli import main
from repro.campaigns.queue import WorkQueue
from repro.campaigns.runner import CampaignRunner, plan_scenario_units
from repro.obs.top import (
    DEFAULT_IDLE_AFTER_S,
    TERMINAL_PHASES,
    render_status,
    scenario_status,
)


def _scenario(**changes):
    base = registry.get("fleet-attack-prevalence").override(
        n_patients=20, n_trials=1, chunk_size=5
    )
    return base.override(**changes) if changes else base


class _Clock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestScenarioStatus:
    def test_fresh_campaign_creates_no_store(self, tmp_path):
        scenario = _scenario()
        status = scenario_status(ResultCache(tmp_path), scenario)
        assert status["scenario"] == scenario.name
        assert status["total_units"] == 4
        assert status["cached_units"] == 0
        assert not status["complete"]
        assert status["queue"] == {"queued": 0, "leased": 0}
        assert status["leases"] == status["stalled_leases"] == []
        assert status["workers"] == []
        # Watching is read-only: a fresh root gets no results.sqlite.
        assert not (tmp_path / "results.sqlite").exists()

    def test_complete_campaign(self, tmp_path):
        scenario = _scenario()
        CampaignRunner(
            scenario, cache_dir=tmp_path, progress=False
        ).run()
        status = scenario_status(ResultCache(tmp_path), scenario)
        assert status["cached_units"] == status["total_units"] == 4
        assert status["complete"]

    def test_stalled_lease_is_flagged(self, tmp_path):
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        clock = _Clock()
        queue = WorkQueue(cache.store, scenario.scenario_hash(), clock=clock)
        queue.enqueue(plan_scenario_units(scenario))
        claim = queue.claim("doomed", lease_s=60.0)
        live = scenario_status(cache, scenario, clock=clock)
        assert live["queue"] == {"queued": 4, "leased": 1}
        assert live["stalled_leases"] == []
        # The holder dies: renewals stop, the clock passes the expiry,
        # and nothing has reaped the lease row yet.
        clock.advance(61.0)
        stalled = scenario_status(cache, scenario, clock=clock)
        assert stalled["queue"]["leased"] == 0
        assert [s["worker_id"] for s in stalled["stalled_leases"]] == [
            "doomed"
        ]
        assert stalled["stalled_leases"][0]["key"] == claim.key
        lines = "\n".join(render_status(stalled))
        assert "STALLED" in lines
        assert "doomed" in lines

    def test_idle_worker_is_flagged_by_snapshot_age(self, tmp_path):
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        clock = _Clock()
        scenario_hash = scenario.scenario_hash()
        cache.store.progress_publish(
            scenario_hash, "busy",
            {"role": "worker", "phase": "evaluate", "done_units": 1},
            clock() - 1.0,
        )
        cache.store.progress_publish(
            scenario_hash, "quiet",
            {"role": "worker", "phase": "evaluate", "done_units": 2},
            clock() - (DEFAULT_IDLE_AFTER_S + 5.0),
        )
        cache.store.progress_publish(
            scenario_hash, "finished",
            {"role": "worker", "phase": "done", "done_units": 3},
            clock() - 500.0,
        )
        status = scenario_status(cache, scenario, clock=clock)
        flags = {w["source"]: (w["idle"], w["terminal"])
                 for w in status["workers"]}
        assert flags == {
            "busy": (False, False),
            "quiet": (True, False),
            # A terminal phase is never idle, however old the snapshot.
            "finished": (False, True),
        }
        assert status["idle_workers"] == ["quiet"]
        lines = "\n".join(render_status(status))
        assert "IDLE worker quiet" in lines
        assert "IDLE worker finished" not in lines

    def test_idle_phase_is_flagged_even_when_fresh(self, tmp_path):
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        clock = _Clock()
        cache.store.progress_publish(
            scenario.scenario_hash(), "waiting",
            {"role": "worker", "phase": "idle", "done_units": 0},
            clock(),
        )
        status = scenario_status(cache, scenario, clock=clock)
        assert status["idle_workers"] == ["waiting"]

    def test_terminal_phases_cover_every_exit_path(self):
        # Every phase the runner, coordinator, and worker finish with
        # must be terminal, or top would flag finished participants as
        # idle forever.
        assert {
            "done", "interrupted", "idle-timeout", "timeout",
            "reduce", "exit",
        } <= set(TERMINAL_PHASES)


class TestTopCli:
    _OVERRIDES = ("--trials", "2", "--locations", "1")

    def _prime(self, tmp_path):
        assert main([
            "run", "attack-success-shielded", *self._OVERRIDES,
            "--cache-dir", str(tmp_path),
            "--format", "json",
        ]) == 0

    def test_once_prints_one_snapshot(self, capsys, tmp_path):
        self._prime(tmp_path)
        capsys.readouterr()
        assert main([
            "top", "attack-success-shielded", *self._OVERRIDES,
            "--cache-dir", str(tmp_path),
            "--once",
        ]) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out
        assert "units 1/1" in out
        assert "queue:" in out

    def test_json_mode_emits_parseable_status(self, capsys, tmp_path):
        self._prime(tmp_path)
        capsys.readouterr()
        assert main([
            "top", "attack-success-shielded", *self._OVERRIDES,
            "--cache-dir", str(tmp_path),
            "--once", "--format", "json",
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True
        assert status["total_units"] == 1

    def test_polling_exits_when_campaign_completes(self, capsys, tmp_path):
        self._prime(tmp_path)
        capsys.readouterr()
        # Not --once: the loop must observe completion and stop on its
        # own (otherwise this test would hang).
        assert main([
            "top", "attack-success-shielded", *self._OVERRIDES,
            "--cache-dir", str(tmp_path),
            "--interval", "0.05",
        ]) == 0

    def test_rejects_nonpositive_interval(self, tmp_path):
        with pytest.raises(SystemExit, match="interval"):
            main([
                "top", "attack-success-shielded",
                "--cache-dir", str(tmp_path), "--interval", "0",
            ])

    def test_unknown_scenario_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no-such-scenario"):
            main(["top", "no-such-scenario", "--cache-dir", str(tmp_path)])


# ----------------------------------------------------------------------
# Slow acceptance: top watches a real crash-prone distributed campaign
# ----------------------------------------------------------------------

_REPO = Path(__file__).resolve().parent.parent

_DIST_OVERRIDES = [
    "fleet-attack-prevalence",
    "--patients", "20000", "--trials", "1", "--chunk-size", "1000",
]


def _spawn(verb: str, cache_dir: Path, *extra: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", verb, *_DIST_OVERRIDES,
         "--cache-dir", str(cache_dir), *extra],
        cwd=_REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _top_once(cache_dir: Path, *extra: str) -> dict:
    proc = _spawn("top", cache_dir, "--once", "--format", "json", *extra)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out)


def _query_one(cache_dir: Path, sql: str, *params) -> int:
    path = cache_dir / "results.sqlite"
    if not path.exists():
        return 0
    try:
        with sqlite3.connect(path, timeout=5.0) as conn:
            return conn.execute(sql, params).fetchone()[0]
    except sqlite3.Error:
        return 0


@pytest.mark.slow
class TestTopWatchesACrashingCampaign:
    def test_stalled_lease_reported_before_requeue(self, tmp_path):
        cache_dir = tmp_path / "dist"

        # 1. A live 2-worker campaign: the eventual victim plus a
        #    helper that retires after two units (so the later stalled
        #    window has no claimant racing the observation).
        victim = _spawn("worker", cache_dir, "--worker-id", "doomed",
                        "--lease", "5", "--poll", "0.05",
                        "--idle-timeout", "300")
        helper = _spawn("worker", cache_dir, "--worker-id", "helper",
                        "--lease", "10", "--poll", "0.05",
                        "--idle-timeout", "300", "--max-units", "2")

        # Wait until the campaign is demonstrably mid-flight with the
        # victim holding a lease.
        deadline = time.monotonic() + 180.0
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                pytest.fail(
                    "victim exited early: " + victim.communicate()[1]
                )
            held = _query_one(
                cache_dir,
                "SELECT COUNT(*) FROM leases WHERE worker_id = ?",
                "doomed",
            )
            cached = _query_one(cache_dir, "SELECT COUNT(*) FROM units")
            if held >= 1 and cached >= 1:
                break
            time.sleep(0.01)
        else:
            pytest.fail("campaign never reached a mid-flight state")

        # 2. While both workers live, top sees their progress snapshots.
        live = _top_once(cache_dir)
        assert not live["complete"]
        assert {w["source"] for w in live["workers"]} >= {"doomed"}

        helper.communicate(timeout=300)
        assert helper.returncode == 0

        # 3. SIGKILL the victim mid-unit: no lease release, no cleanup.
        victim.kill()
        victim.wait(timeout=60)
        assert victim.returncode == -signal.SIGKILL

        # 4. With no claimant left, the orphan lease expires unreaped;
        #    top must flag it as stalled before anyone re-claims it.
        deadline = time.monotonic() + 120.0
        stalled = []
        while time.monotonic() < deadline:
            status = _top_once(cache_dir)
            stalled = status["stalled_leases"]
            if stalled:
                break
            time.sleep(0.5)
        assert [s["worker_id"] for s in stalled] == ["doomed"]
        assert _query_one(cache_dir, "SELECT COUNT(*) FROM leases") >= 1

        # 5. A survivor re-claims the stalled unit and, with the
        #    coordinator, finishes the campaign bit-identically to the
        #    planned unit count.
        survivor = _spawn("worker", cache_dir, "--worker-id", "survivor",
                          "--lease", "10", "--poll", "0.05",
                          "--idle-timeout", "300")
        coordinator = _spawn("run", cache_dir, "--distributed",
                             "--wait-timeout", "600", "--format", "json")
        coord_out, coord_err = coordinator.communicate(timeout=900)
        assert coordinator.returncode == 0, coord_err
        out, err = survivor.communicate(timeout=300)
        assert survivor.returncode == 0, err
        assert json.loads(coord_out)["units"]["total"] == 20

        final = _top_once(cache_dir)
        assert final["complete"]
        assert final["stalled_leases"] == []
        assert final["queue"] == {"queued": 0, "leased": 0}
