"""The SQLite result store: contract, durability, scaling, and the cache CLI.

``ResultCache`` answers get/put/membership/stats/prune through one
``results.sqlite`` per cache root.  The scaling regression pins the
membership-check contract -- one query per scenario, never one per key.
"""

import json
import logging
import sqlite3
import threading

import pytest

from repro.obs.metrics import take_global

from repro.campaigns.cache import ResultCache
from repro.campaigns.spec import Scenario
from repro.campaigns.store import SQLiteStore


def _scenario(**changes) -> Scenario:
    base = dict(
        name="store-test",
        kind="attack",
        location_indices=(1, 8),
        n_trials=2,
        seed=3,
    )
    base.update(changes)
    return Scenario(**base)


class TestStoreShim:
    """``cache_backend`` survives as a keyword that names the one store."""

    @pytest.mark.parametrize("backend", [None, "sqlite"])
    def test_runner_and_worker_accept_the_one_store(self, tmp_path, backend):
        from repro.campaigns import CampaignRunner, run_worker

        scenario = _scenario()
        runner = CampaignRunner(
            scenario, cache_dir=tmp_path, cache_backend=backend,
            progress=False,
        )
        assert runner.run().computed_units > 0
        stats = run_worker(
            scenario, cache_dir=tmp_path, cache_backend=backend,
            idle_timeout_s=5.0, progress=False,
        )
        assert stats.computed == 0

    @pytest.mark.parametrize("backend", ["filesystem", "SQLite", ""])
    def test_any_other_name_says_the_layout_was_removed(
        self, tmp_path, backend
    ):
        from repro.campaigns import CampaignRunner, run_worker

        with pytest.raises(ValueError, match="filesystem layout was removed"):
            CampaignRunner(
                _scenario(), cache_dir=tmp_path, cache_backend=backend
            )
        with pytest.raises(ValueError, match="filesystem layout was removed"):
            run_worker(_scenario(), cache_dir=tmp_path, cache_backend=backend)
        assert not (tmp_path / SQLiteStore.FILENAME).exists()


# The one-value parameter keeps these tests' ids (``...[sqlite]``) stable.
@pytest.mark.parametrize("backend", ["sqlite"])
class TestBackendParity:
    def test_round_trip(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        scenario = _scenario()
        coords = {"kind": "attack", "location": 1, "chunk": 0, "n_trials": 2}
        cache.put(scenario, "abc123", coords, {"wins": 1, "alarms": 0})
        assert cache.get(scenario, "abc123") == {"wins": 1, "alarms": 0}
        assert cache.get(scenario, "missing") is None

    def test_upsert_overwrites(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        scenario = _scenario()
        cache.put(scenario, "k", {}, {"wins": 1})
        cache.put(scenario, "k", {}, {"wins": 2})
        assert cache.get(scenario, "k") == {"wins": 2}

    def test_cached_keys_membership(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        scenario = _scenario()
        for key in ("a1", "b2", "c3"):
            cache.put(scenario, key, {"k": key}, {"wins": 0})
        assert cache.cached_keys(scenario, ["a1", "c3", "zz"]) == {"a1", "c3"}
        assert cache.cached_keys(_scenario(seed=99), ["a1"]) == set()

    def test_namespaces_isolated_by_scenario_hash(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        cache.put(_scenario(), "k", {}, {"wins": 1})
        assert cache.get(_scenario(seed=99), "k") is None

    def test_stats_counts_entries_and_names(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        scenario = _scenario()
        for key in ("a", "b"):
            cache.put(scenario, key, {}, {"wins": 0})
        stats = cache.stats()
        assert stats.location == str(tmp_path / "results.sqlite")
        assert stats.entries == 2
        assert stats.bytes > 0
        (per_scenario,) = stats.scenarios
        assert per_scenario.scenario_hash == scenario.scenario_hash()
        assert per_scenario.name == "store-test"
        assert per_scenario.entries == 2

    def test_prune_by_namespace(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        keep, drop = _scenario(), _scenario(seed=99)
        cache.put(keep, "k", {}, {"wins": 0})
        cache.put(drop, "k", {}, {"wins": 0})
        removed = cache.prune([drop.scenario_hash()])
        assert removed == 1
        assert cache.get(keep, "k") is not None
        assert cache.get(drop, "k") is None

    def test_prune_all(self, tmp_path, backend):
        cache = ResultCache(tmp_path)
        cache.put(_scenario(), "k", {}, {"wins": 0})
        cache.put(_scenario(seed=99), "k", {}, {"wins": 0})
        assert cache.prune() == 2
        assert cache.stats().entries == 0

    def test_empty_cache_stats(self, tmp_path, backend):
        stats = ResultCache(tmp_path / "nothing").stats()
        assert stats.entries == 0
        assert stats.scenarios == ()


class TestSQLiteDurability:
    def test_single_file_holds_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(_scenario(seed=seed), "k", {}, {"wins": seed})
        files = {p.name for p in tmp_path.iterdir() if p.is_file()}
        assert "results.sqlite" in files
        # No per-scenario directories appear.
        assert not any(p.is_dir() for p in tmp_path.iterdir())

    def test_wal_mode_enabled(self, tmp_path):
        store = SQLiteStore(tmp_path)
        store.put("hash", "k", {}, {"x": 1})
        mode = store._connect().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_concurrent_first_connects_to_a_fresh_database(self, tmp_path):
        """Two connections creating one fresh database must both open.

        Switching a new file to WAL fails at once with ``database is
        locked`` while another connection holds it, without waiting out
        the connection's busy timeout; a coordinator and a worker opening a
        fresh cache root together hit exactly this.
        """
        failures = []
        for attempt in range(200):
            root = tmp_path / str(attempt)
            stores = [SQLiteStore(root), SQLiteStore(root)]
            barrier = threading.Barrier(len(stores))

            def open_store(store):
                barrier.wait(timeout=60)
                try:
                    store._connect()
                except sqlite3.Error as exc:
                    failures.append((attempt, repr(exc)))
                finally:
                    store.close()

            threads = [
                threading.Thread(target=open_store, args=(store,))
                for store in stores
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert failures == []

    def test_reopen_sees_previous_writes(self, tmp_path):
        ResultCache(tmp_path).put(
            _scenario(), "k", {}, {"wins": 7}
        )
        fresh = ResultCache(tmp_path)
        assert fresh.get(_scenario(), "k") == {"wins": 7}

    def test_prune_reclaims_disk_space(self, tmp_path):
        """`cache prune` must shrink the on-disk footprint (main file
        plus WAL), not just delete rows inside full-size files
        (regression)."""

        def on_disk() -> int:
            return sum(p.stat().st_size for p in tmp_path.iterdir())

        store = SQLiteStore(tmp_path)
        blob = {"data": "x" * 4096}
        for i in range(200):
            store.put("hash", f"k{i:03d}", {}, blob)
        full_size = on_disk()
        assert store.prune() == 200
        assert on_disk() < full_size / 4

    def test_reads_never_create_the_database(self, tmp_path):
        """A status query on a fresh root must not leave results.sqlite
        (or WAL/SHM files) behind (regression)."""
        store = SQLiteStore(tmp_path / "fresh")
        assert store.get("hash", "k") is None
        assert store.cached_keys("hash", ["k"]) == set()
        assert store.namespace_names() == {}
        assert store.queue_counts("hash", 0.0) == (0, 0)
        assert store.queue_leases("hash") == []
        assert store.progress_read("hash") == []
        assert not (tmp_path / "fresh").exists()

    def test_old_json_layout_is_ignored(self, tmp_path):
        """A root that still holds one-JSON-file-per-unit directories
        from earlier releases reads as empty; its units recompute into
        results.sqlite."""
        from repro.campaigns import CampaignRunner

        scenario = _scenario()
        first = CampaignRunner(scenario, cache_dir=tmp_path / "ref").run()
        old = tmp_path / "old" / scenario.scenario_hash()
        old.mkdir(parents=True)
        for unit in CampaignRunner(scenario).plan():
            (old / f"{unit.key}.json").write_text(
                json.dumps({"coords": unit.coords, "result": {"junk": 1}})
            )
        result = CampaignRunner(scenario, cache_dir=tmp_path / "old").run()
        assert result.cached_units == 0
        assert result.points == first.points
        assert (tmp_path / "old" / "results.sqlite").exists()

    def test_read_on_unwritable_parent_reports_absent(self, tmp_path):
        """Reads under a read-only parent degrade to 'nothing cached',
        never a PermissionError traceback."""
        parent = tmp_path / "ro"
        parent.mkdir()
        parent.chmod(0o500)
        try:
            store = SQLiteStore(parent / "cache")
            assert store.get("hash", "k") is None
            assert store.cached_keys("hash", ["k"]) == set()
        finally:
            parent.chmod(0o700)

    def test_namespace_names_match_manifests(self, tmp_path):
        cache = ResultCache(tmp_path)
        scenario = _scenario()
        cache.put(scenario, "k", {}, {"wins": 0})
        assert cache.store.namespace_names() == {
            scenario.scenario_hash(): "store-test"
        }

    def test_corrupt_row_reads_as_absent(self, tmp_path):
        store = SQLiteStore(tmp_path)
        store.put("hash", "k", {}, {"x": 1})
        store._connect().execute(
            "UPDATE units SET result = '{ not json' WHERE unit_key = 'k'"
        )
        assert store.get("hash", "k") is None


class TestCachedKeysScaling:
    """Membership is one query, not a lookup per key."""

    def test_sqlite_membership_is_one_query(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        scenario = _scenario()
        keys = [f"key{i:04d}" for i in range(100)]
        for key in keys:
            cache.put(scenario, key, {"k": key}, {"wins": 0})

        store = cache.store
        real_conn = store._connect()
        executes = {"n": 0}

        class CountingConn:
            def execute(self, sql, *args):
                executes["n"] += 1
                return real_conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(real_conn, name)

        store._conn = CountingConn()
        hit = cache.cached_keys(scenario, keys)
        store._conn = real_conn
        assert hit == set(keys)
        assert executes["n"] == 1

    def test_runner_status_uses_the_fast_path(self, tmp_path, monkeypatch):
        """CampaignRunner.status answers from cached_keys, not get()."""
        from repro.campaigns import CampaignRunner

        scenario = _scenario()
        runner = CampaignRunner(scenario, cache_dir=tmp_path)
        runner.run()

        def forbidden_get(*args, **kwargs):
            raise AssertionError("status must not read unit payloads")

        monkeypatch.setattr(ResultCache, "get", forbidden_get)
        status = CampaignRunner(scenario, cache_dir=tmp_path).status()
        assert status.complete


class TestCacheCli:
    def _run(self, capsys, *argv) -> str:
        from repro.campaigns.cli import main

        assert main(list(argv)) == 0
        return capsys.readouterr().out

    def _seed_cache(self, tmp_path) -> Scenario:
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        cache.put(scenario, "k1", {}, {"wins": 1})
        cache.put(scenario, "k2", {}, {"wins": 0})
        return scenario

    def test_stats_text(self, capsys, tmp_path):
        self._seed_cache(tmp_path)
        out = self._run(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path)
        )
        assert "store-test" in out
        assert "2 unit(s)" in out

    def test_stats_json(self, capsys, tmp_path):
        scenario = self._seed_cache(tmp_path)
        out = self._run(
            capsys, "cache", "stats", "--format", "json",
            "--cache-dir", str(tmp_path),
        )
        payload = json.loads(out)
        assert payload["entries"] == 2
        assert payload["scenarios"][0]["hash"] == scenario.scenario_hash()

    def test_prune_by_scenario_name(self, capsys, tmp_path):
        self._seed_cache(tmp_path)
        out = self._run(
            capsys,
            "cache", "prune", "--scenario", "store-test",
            "--cache-dir", str(tmp_path),
        )
        assert "pruned 2 unit(s)" in out
        assert ResultCache(tmp_path).stats().entries == 0

    def test_prune_by_name_reads_manifests_not_units(
        self, capsys, tmp_path, monkeypatch
    ):
        """Name resolution for prune must not stat/read the unit
        entries -- at fleet unit counts that is a full metadata sweep
        (regression)."""
        self._seed_cache(tmp_path)

        def forbidden_stats(self):
            raise AssertionError("prune --scenario must not call stats()")

        monkeypatch.setattr(SQLiteStore, "stats", forbidden_stats)
        out = self._run(
            capsys,
            "cache", "prune", "--scenario", "store-test",
            "--cache-dir", str(tmp_path),
        )
        assert "pruned 2 unit(s)" in out

    def test_prune_all(self, capsys, tmp_path):
        self._seed_cache(tmp_path)
        out = self._run(
            capsys, "cache", "prune", "--all", "--cache-dir", str(tmp_path)
        )
        assert "pruned 2 unit(s)" in out

    def test_run_writes_the_sqlite_store(self, capsys, tmp_path):
        out = self._run(
            capsys,
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path),
        )
        assert "computed" in out
        assert (tmp_path / "results.sqlite").exists()
        assert list(tmp_path.glob("*/*.json")) == []

    def test_cache_backend_flag_is_gone(self, tmp_path, capsys):
        from repro.campaigns.cli import main

        argv = ["cache", "stats", "--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--cache-backend", "sqlite"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache-backend" in (
            capsys.readouterr().err
        )

    def test_prune_requires_exactly_one_selector(self, tmp_path):
        from repro.campaigns.cli import main

        with pytest.raises(SystemExit):
            main(["cache", "prune", "--cache-dir", str(tmp_path)])
        with pytest.raises(SystemExit):
            main([
                "cache", "prune", "--all", "--scenario", "x",
                "--cache-dir", str(tmp_path),
            ])

    def test_prune_unknown_name_lists_cached(self, tmp_path, capsys):
        from repro.campaigns.cli import main

        self._seed_cache(tmp_path)
        with pytest.raises(SystemExit, match="store-test"):
            main([
                "cache", "prune", "--scenario", "nope",
                "--cache-dir", str(tmp_path),
            ])

@pytest.mark.parametrize(
    "verb",
    [
        ("run", "attack-success-shielded", "--trials", "2",
         "--locations", "1", "--no-progress"),
        ("cache", "stats"),
        ("cache", "prune", "--all"),
    ],
    ids=["run", "cache-stats", "cache-prune-all"],
)
def test_unreadable_store_is_one_error_line(tmp_path, capsys, verb):
    """A junk results.sqlite ends the verb with one line naming the
    store, a non-zero exit, and no traceback."""
    from repro.campaigns.cli import main

    path = tmp_path / "results.sqlite"
    path.write_bytes(b"this is not a database" * 100)
    assert main([*verb, "--cache-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: cache store {path} is unreadable: " in err
    assert "file is not a database" in err
    assert "Traceback" not in err


class _FlakyConnection:
    """Wraps a live connection, failing reads a set number of times."""

    def __init__(self, conn, exc: Exception, failures: int):
        self._conn = conn
        self._exc = exc
        self.failures = failures

    def execute(self, query, *args):
        if "SELECT result FROM units" in query and self.failures > 0:
            self.failures -= 1
            raise self._exc
        return self._conn.execute(query, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class TestSQLiteGetErrorHandling:
    """The satellite fix: a failing read is an error, never a quiet miss."""

    _BUSY = sqlite3.OperationalError("database is locked")

    def _flaky_store(self, tmp_path, exc, failures):
        store = SQLiteStore(tmp_path)
        store.put("hash", "k", {}, {"wins": 3})
        store.BUSY_RETRY_S = 0.0
        store._conn = _FlakyConnection(store._conn, exc, failures)
        return store

    def test_busy_read_retries_once_and_succeeds(self, tmp_path):
        store = self._flaky_store(tmp_path, self._BUSY, failures=1)
        take_global()
        assert store.get("hash", "k") == {"wins": 3}
        counters = take_global().get("counters", {})
        assert counters.get("store.sqlite.busy_retry") == 1
        assert counters.get("store.sqlite.get_hit") == 1
        assert "store.sqlite.get_error" not in counters

    def test_persistent_busy_is_an_error_not_a_miss(self, tmp_path, caplog):
        store = self._flaky_store(tmp_path, self._BUSY, failures=2)
        take_global()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get("hash", "k") is None
        counters = take_global().get("counters", {})
        assert counters.get("store.sqlite.get_error") == 1
        assert counters.get("store.sqlite.busy_retry") == 1
        assert "store.sqlite.get_miss" not in counters
        assert any("sqlite read failed" in r.message for r in caplog.records)

    def test_non_busy_error_is_not_retried(self, tmp_path, caplog):
        exc = sqlite3.OperationalError("no such table: units")
        store = self._flaky_store(tmp_path, exc, failures=1)
        take_global()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get("hash", "k") is None
        counters = take_global().get("counters", {})
        assert counters.get("store.sqlite.get_error") == 1
        assert "store.sqlite.busy_retry" not in counters
        # One failure was budgeted and it was not consumed by a retry.
        assert store._conn.failures == 0

    def test_corrupt_row_counts_as_error_and_warns(self, tmp_path, caplog):
        store = SQLiteStore(tmp_path)
        store.put("hash", "k", {}, {"x": 1})
        store._connect().execute(
            "UPDATE units SET result = '{ not json' WHERE unit_key = 'k'"
        )
        take_global()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get("hash", "k") is None
        counters = take_global().get("counters", {})
        assert counters.get("store.sqlite.get_error") == 1
        assert "store.sqlite.get_miss" not in counters
        assert any("corrupt cache entry" in r.message for r in caplog.records)

    def test_plain_miss_still_counts_as_miss(self, tmp_path):
        store = SQLiteStore(tmp_path)
        store.put("hash", "k", {}, {"x": 1})
        take_global()
        assert store.get("hash", "absent") is None
        counters = take_global().get("counters", {})
        assert counters.get("store.sqlite.get_miss") == 1
        assert "store.sqlite.get_error" not in counters
