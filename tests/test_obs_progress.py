"""Live progress streaming and its hard invariant.

The invariant this file pins: **publishing progress never changes the
numbers**.  A progress-on run's result payloads and cached results are
bit-identical to a progress-off run's -- on an attack and a fleet
scenario, in serial, 2-worker pool, and distributed modes -- because
progress is write-only observability layered on the store, never an
input to evaluation.
"""

import json

import pytest

from repro.campaigns import registry
from repro.campaigns.cache import ResultCache
from repro.campaigns.runner import CampaignRunner
from repro.campaigns.store import SQLiteStore
from repro.campaigns.worker import run_worker
from repro.obs.metrics import take_global
from repro.obs.progress import (
    DEFAULT_INTERVAL_S,
    PROGRESS_ENV,
    ProgressPublisher,
    read_progress,
    resolve_progress,
)


class TestResolveProgress:
    def test_defaults_on(self, monkeypatch):
        monkeypatch.delenv(PROGRESS_ENV, raising=False)
        assert resolve_progress() is True

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_environment(self, monkeypatch, raw, expected):
        monkeypatch.setenv(PROGRESS_ENV, raw)
        assert resolve_progress() is expected

    def test_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_ENV, "0")
        assert resolve_progress(True) is True
        monkeypatch.setenv(PROGRESS_ENV, "1")
        assert resolve_progress(False) is False

    def test_junk_environment_raises(self, monkeypatch):
        monkeypatch.setenv(PROGRESS_ENV, "sometimes")
        with pytest.raises(ValueError, match=PROGRESS_ENV):
            resolve_progress()


class _FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _RecordingStore:
    """Store stub capturing progress_publish calls."""

    def __init__(self, fail=False):
        self.published: list[tuple[str, str, dict, float]] = []
        self.fail = fail

    def progress_publish(self, scenario_hash, source, payload, now):
        if self.fail:
            raise OSError("store gone")
        self.published.append((scenario_hash, source, payload, now))

    def progress_read(self, scenario_hash):
        return [
            (source, payload, now)
            for _, source, payload, now in self.published
        ]


def _publisher(store, **kwargs):
    clock = kwargs.pop("clock", _FakeClock())
    return ProgressPublisher(
        store, "hash", "w1", total_units=10,
        clock=clock, wall=clock, **kwargs
    ), clock


class TestProgressPublisher:
    def test_snapshot_carries_counts_rate_and_eta(self):
        store = _RecordingStore()
        pub, clock = _publisher(store, role="worker", scenario="demo")
        clock.advance(2.0)
        pub.advance(done=4, computed=3, reused=1, phase="claim")
        snap = store.published[-1][2]
        assert snap["role"] == "worker"
        assert snap["source"] == "w1"
        assert snap["scenario"] == "demo"
        assert snap["total_units"] == 10
        assert snap["done_units"] == 4
        assert snap["computed_units"] == 3
        assert snap["reused_units"] == 1
        assert snap["failed_units"] == 0
        assert snap["phase"] == "claim"
        assert snap["rate_units_per_s"] == pytest.approx(2.0)
        assert snap["eta_s"] == pytest.approx(3.0)

    def test_eta_is_none_before_any_unit(self):
        store = _RecordingStore()
        pub, _ = _publisher(store)
        pub.publish(force=True)
        snap = store.published[-1][2]
        assert snap["rate_units_per_s"] == 0.0
        assert snap["eta_s"] is None

    def test_publishing_is_throttled(self):
        store = _RecordingStore()
        pub, clock = _publisher(store, interval_s=2.0)
        assert pub.publish(force=True)
        assert not pub.publish()  # same instant: throttled
        clock.advance(1.0)
        assert not pub.publish()
        clock.advance(1.5)
        assert pub.publish()
        assert len(store.published) == 2

    def test_finish_forces_a_final_snapshot(self):
        store = _RecordingStore()
        pub, _ = _publisher(store, interval_s=3600.0)
        pub.publish(force=True)
        pub.finish(phase="done")
        assert store.published[-1][2]["phase"] == "done"
        assert len(store.published) == 2

    def test_store_failures_never_raise_and_go_quiet(self):
        store = _RecordingStore(fail=True)
        pub, clock = _publisher(store, interval_s=0.0)
        for _ in range(10):
            clock.advance(1.0)
            assert not pub.publish(force=True)
        take_global()  # drop the error counters this test provoked
        # After the failure cutoff the publisher stops even trying.
        assert pub._failures == 3

    def test_recovery_resets_the_failure_count(self):
        store = _RecordingStore()
        pub, clock = _publisher(store, interval_s=0.0)
        store.fail = True
        pub.publish(force=True)
        pub.publish(force=True)
        store.fail = False
        clock.advance(1.0)
        assert pub.publish(force=True)
        assert pub._failures == 0
        take_global()


class TestStoreProgress:
    @pytest.mark.parametrize("store_cls", [SQLiteStore])
    def test_roundtrip_last_write_wins(self, tmp_path, store_cls):
        store = store_cls(tmp_path)
        store.progress_publish("h1", "w1", {"done_units": 1}, 10.0)
        store.progress_publish("h1", "w1", {"done_units": 5}, 20.0)
        store.progress_publish("h1", "w2", {"done_units": 2}, 15.0)
        store.progress_publish("h2", "w1", {"done_units": 9}, 1.0)
        rows = {
            source: (payload, updated)
            for source, payload, updated in store.progress_read("h1")
        }
        assert set(rows) == {"w1", "w2"}
        assert rows["w1"] == ({"done_units": 5}, 20.0)
        assert rows["w2"] == ({"done_units": 2}, 15.0)

    @pytest.mark.parametrize("store_cls", [SQLiteStore])
    def test_empty_read_creates_nothing(self, tmp_path, store_cls):
        store = store_cls(tmp_path)
        assert store.progress_read("nothing") == []
        assert not (tmp_path / SQLiteStore.FILENAME).exists()

    def test_read_progress_adds_ages_and_sorts(self, tmp_path):
        store = SQLiteStore(tmp_path)
        store.progress_publish(
            "h1", "w2", {"role": "worker", "done_units": 1}, 90.0
        )
        store.progress_publish(
            "h1", "w1", {"role": "worker", "done_units": 2}, 95.0
        )
        store.progress_publish(
            "h1", "r", {"role": "runner", "done_units": 3}, 99.0
        )
        rows = read_progress(store, "h1", now=100.0)
        assert [(r["role"], r["source"]) for r in rows] == [
            ("runner", "r"), ("worker", "w1"), ("worker", "w2"),
        ]
        assert [r["age_s"] for r in rows] == [1.0, 5.0, 10.0]


# ----------------------------------------------------------------------
# The bit-identity invariant
# ----------------------------------------------------------------------


def _attack_scenario():
    return registry.get("attack-success-shielded").override(
        n_trials=2, location_indices=(1, 8)
    )


def _fleet_scenario():
    return registry.get("fleet-privacy-leakage").override(
        n_patients=20, n_trials=2, chunk_size=10
    )


def _run(scenario, cache_dir, progress, workers=None):
    runner = CampaignRunner(
        scenario,
        cache_dir=cache_dir,
        workers=workers,
        progress=progress,
    )
    return runner.run()


def _dump(result) -> str:
    return json.dumps(result.to_payload(), sort_keys=True)


@pytest.mark.parametrize(
    "make_scenario", [_attack_scenario, _fleet_scenario],
    ids=["attack", "fleet"],
)
class TestProgressBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool2"])
    def test_in_process_modes(
        self, tmp_path, make_scenario, workers, results_digest
    ):
        scenario = make_scenario()
        on_dir = tmp_path / "on"
        off_dir = tmp_path / "off"
        on = _run(scenario, on_dir, progress=True, workers=workers)
        off = _run(scenario, off_dir, progress=False, workers=workers)
        assert _dump(on) == _dump(off)
        assert results_digest(on_dir) == results_digest(off_dir)
        # Progress rows exist on one side only -- in their own table,
        # outside the digest, exactly as designed.
        scenario_hash = scenario.scenario_hash()
        assert ResultCache(on_dir).store.progress_read(scenario_hash)
        assert not ResultCache(off_dir).store.progress_read(scenario_hash)

    def test_distributed_mode(self, tmp_path, make_scenario, results_digest):
        scenario = make_scenario()
        results = {}
        digests = {}
        for label, progress in (("on", True), ("off", False)):
            root = tmp_path / label
            stats = run_worker(
                scenario,
                cache_dir=root,
                worker_id="w1",
                idle_timeout_s=30.0,
                progress=progress,
            )
            assert stats.computed == scenario_units(scenario)
            runner = CampaignRunner(
                scenario,
                cache_dir=root,
                progress=progress,
            )
            results[label] = runner.run_distributed(wait_timeout_s=60.0)
            digests[label] = results_digest(root)
        assert _dump(results["on"]) == _dump(results["off"])
        assert digests["on"] == digests["off"]

    def test_progress_on_matches_progress_off_serial_vs_pool(
        self, tmp_path, make_scenario, results_digest
    ):
        """Progress-on pooled == progress-off serial: fully orthogonal."""
        scenario = make_scenario()
        pooled = _run(scenario, tmp_path / "p", progress=True, workers=2)
        serial = _run(scenario, tmp_path / "s", progress=False, workers=1)
        assert _dump(pooled) == _dump(serial)
        assert results_digest(tmp_path / "p") == results_digest(tmp_path / "s")


def scenario_units(scenario) -> int:
    from repro.campaigns.runner import plan_scenario_units

    return len(plan_scenario_units(scenario))


class TestRunnerPublishing:
    def test_serial_run_publishes_runner_snapshots(self, tmp_path):
        scenario = _attack_scenario()
        _run(scenario, tmp_path, progress=True)
        cache = ResultCache(tmp_path)
        rows = read_progress(cache.store, scenario.scenario_hash())
        assert len(rows) == 1
        snap = rows[0]
        assert snap["role"] == "runner"
        assert snap["phase"] == "done"
        assert snap["done_units"] == snap["total_units"] == 2
        assert snap["computed_units"] == 2

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool2"])
    def test_run_ends_with_every_unit_counted(self, tmp_path, workers):
        scenario = _attack_scenario()
        _run(scenario, tmp_path, progress=True, workers=workers)
        cache = ResultCache(tmp_path)
        (snap,) = read_progress(cache.store, scenario.scenario_hash())
        assert snap["role"] == "runner"
        assert snap["workers"] == workers
        assert snap["phase"] == "done"
        assert (
            snap["done_units"] == snap["computed_units"]
            == snap["total_units"] == 2
        )

    def test_second_run_reports_cache_hits_as_reused(self, tmp_path):
        scenario = _attack_scenario()
        _run(scenario, tmp_path, progress=True)
        _run(scenario, tmp_path, progress=True)
        cache = ResultCache(tmp_path)
        snap = read_progress(cache.store, scenario.scenario_hash())[0]
        assert snap["done_units"] == 2
        assert snap["reused_units"] == 2
        assert snap["computed_units"] == 0

    def test_no_cache_run_publishes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(PROGRESS_ENV, raising=False)
        scenario = _attack_scenario()
        runner = CampaignRunner(scenario, persist=False)
        runner.run()
        assert not (tmp_path / "runs").exists()

    def test_worker_publishes_its_own_snapshot(self, tmp_path):
        scenario = _fleet_scenario()
        run_worker(
            scenario,
            cache_dir=tmp_path,
            worker_id="worker-a",
            idle_timeout_s=30.0,
            progress=True,
        )
        cache = ResultCache(tmp_path)
        rows = read_progress(cache.store, scenario.scenario_hash())
        assert [r["source"] for r in rows] == ["worker-a"]
        snap = rows[0]
        assert snap["role"] == "worker"
        assert snap["phase"] == "done"
        assert snap["done_units"] == snap["total_units"]

    def test_interval_constant_is_sane(self):
        # The throttle must be long enough that per-unit publishing
        # stays off the hot path, short enough that `top` feels live.
        assert 0.5 <= DEFAULT_INTERVAL_S <= 10.0
