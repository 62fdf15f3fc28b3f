"""The lease-based work queue and the distributed execution loop.

The claim protocol's contract: every unit evaluated exactly once in the
steady state, claims arbitrated by the database (never Python-side
clocks), expired leases re-queued, and a distributed run reducing
bit-identically to a serial one.  Everything here runs on a 4-unit toy
cohort so the whole file stays tier-1 fast; the 10k-patient SIGKILL
acceptance lives in ``test_distributed_scale.py``.
"""

import json
import threading
import time

import pytest

from repro.campaigns import registry
from repro.campaigns.cache import ResultCache
from repro.campaigns.queue import QueueClaim, WorkQueue
from repro.campaigns.runner import CampaignRunner, plan_scenario_units
from repro.campaigns.store import SQLiteStore
from repro.campaigns.worker import run_worker
from repro.obs.report import load_trace, summarize_run
from repro.obs.trace import Tracer


def _scenario(**changes):
    base = registry.get("fleet-attack-prevalence").override(
        n_patients=20, n_trials=1, chunk_size=5
    )
    return base.override(**changes) if changes else base


class _Clock:
    """An injectable time source so expiry tests never sleep."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def queue(tmp_path):
    scenario = _scenario()
    store = SQLiteStore(tmp_path)
    clock = _Clock()
    q = WorkQueue(store, scenario.scenario_hash(), clock=clock)
    q.enqueue(plan_scenario_units(scenario))
    return q


class TestWorkQueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        scenario = _scenario()
        q = WorkQueue(SQLiteStore(tmp_path), scenario.scenario_hash())
        units = plan_scenario_units(scenario)
        assert q.enqueue(units) == len(units) == 4
        assert q.enqueue(units) == 0
        assert q.counts().queued == 4

    def test_claim_complete_lifecycle(self, queue):
        claim = queue.claim("w1", lease_s=60)
        assert isinstance(claim, QueueClaim)
        assert claim.attempt == 1
        counts = queue.counts()
        assert (counts.queued, counts.leased) == (4, 1)
        queue.complete(claim.key, "w1")
        counts = queue.counts()
        assert (counts.queued, counts.leased) == (3, 0)

    def test_claims_never_hand_out_the_same_unit_twice(self, queue):
        keys = [queue.claim(f"w{i}", lease_s=60).key for i in range(4)]
        assert len(set(keys)) == 4
        assert queue.claim("w5", lease_s=60) is None

    def test_abandon_requeues_immediately(self, queue):
        claim = queue.claim("w1", lease_s=60)
        assert queue.abandon(claim.key, "w1")
        again = queue.claim("w2", lease_s=60)
        assert again.key == claim.key
        assert again.attempt == 2

    def test_abandon_is_holder_scoped(self, queue):
        claim = queue.claim("w1", lease_s=60)
        assert not queue.abandon(claim.key, "intruder")
        assert queue.counts().leased == 1

    def test_expired_lease_is_reclaimable(self, queue):
        claim = queue.claim("w1", lease_s=30)
        queue.clock.advance(31)
        again = queue.claim("w2", lease_s=30)
        assert again.key == claim.key
        assert again.attempt == 2
        # The dead worker's lease is gone: only w2's remains.
        assert queue.counts().leased == 1

    def test_live_lease_is_not_reclaimable(self, queue):
        queue.claim("w1", lease_s=30)
        queue.clock.advance(29)
        other = queue.claim("w2", lease_s=30)
        assert other is not None and other.key is not None
        taken = {other.key}
        while (other := queue.claim("w2", lease_s=30)) is not None:
            taken.add(other.key)
        assert len(taken) == 3  # never the unit w1 still holds

    def test_heartbeat_extends_the_lease(self, queue):
        claim = queue.claim("w1", lease_s=30)
        queue.clock.advance(25)
        assert queue.heartbeat(claim.key, "w1", lease_s=30)
        queue.clock.advance(25)  # past the original expiry, not the renewal
        assert queue.claim("w2", lease_s=30) is None or True
        counts = queue.counts()
        assert counts.leased >= 1
        # The renewed unit itself is still w1's.
        assert not queue.abandon(claim.key, "w2")

    def test_heartbeat_reports_a_lost_lease(self, queue):
        claim = queue.claim("w1", lease_s=30)
        queue.clock.advance(31)
        queue.claim("w2", lease_s=30)  # reaps w1's lease
        assert not queue.heartbeat(claim.key, "w1", lease_s=30)

    def test_stale_rows_of_cached_units_stay_claimable(self, tmp_path):
        """put-then-crash leaves a cached unit's queue row reclaimable.

        A worker that persists a result but dies before completing
        leaves a queue row with no lease; the row must still be handed
        out so the next claimant can reuse-retire it (``run_worker``'s
        cache check) instead of the row leaking forever.
        """
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        units = plan_scenario_units(scenario)
        q = WorkQueue(cache.store, scenario.scenario_hash())
        q.enqueue(units)
        cache.put(scenario, units[0].key, units[0].coords, {"cached": True})
        claimed = {q.claim(f"w{i}", lease_s=60).key for i in range(4)}
        assert units[0].key in claimed

    def test_concurrent_claims_resolved_by_the_database(self, tmp_path):
        """N racing workers, one unit: the leases PK picks one winner.

        Each thread opens its own store connection and hits the claim
        barrier together, so the race is real -- the single-statement
        ``INSERT OR IGNORE`` must arbitrate it, not any Python check.
        """
        scenario = _scenario()
        seed_store = SQLiteStore(tmp_path)
        units = plan_scenario_units(scenario)[:1]
        WorkQueue(seed_store, scenario.scenario_hash()).enqueue(units)
        n_workers = 8
        barrier = threading.Barrier(n_workers)
        wins: list[str] = []
        errors: list[Exception] = []

        def contend(worker: str) -> None:
            try:
                store = SQLiteStore(tmp_path)
                q = WorkQueue(store, scenario.scenario_hash())
                barrier.wait()
                claim = q.claim(worker, lease_s=60)
                if claim is not None:
                    wins.append(worker)
                store.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=contend, args=(f"w{i}",))
            for i in range(n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(wins) == 1

    def test_prune_clears_queue_state(self, tmp_path):
        scenario = _scenario()
        store = SQLiteStore(tmp_path)
        q = WorkQueue(store, scenario.scenario_hash())
        q.enqueue(plan_scenario_units(scenario))
        q.claim("w1", lease_s=60)
        store.prune([scenario.scenario_hash()])
        counts = q.counts()
        assert (counts.queued, counts.leased) == (0, 0)


class TestRunWorker:
    def test_drains_the_campaign(self, tmp_path):
        scenario = _scenario()
        stats = run_worker(
            scenario, cache_dir=tmp_path,
            worker_id="solo", lease_s=30, poll_s=0.01,
        )
        assert stats.claimed == stats.computed == 4
        assert stats.reused == 0 and stats.lease_lost == 0
        cache = ResultCache(tmp_path)
        keys = [u.key for u in plan_scenario_units(scenario)]
        assert len(cache.cached_keys(scenario, keys)) == 4
        q = WorkQueue(cache.store, scenario.scenario_hash())
        assert q.counts().idle

    def test_max_units_bounds_the_loop(self, tmp_path):
        stats = run_worker(
            _scenario(), cache_dir=tmp_path,
            worker_id="capped", lease_s=30, poll_s=0.01, max_units=2,
        )
        assert stats.claimed == 2

    def test_completed_campaign_is_a_noop(self, tmp_path):
        scenario = _scenario()
        run_worker(scenario, cache_dir=tmp_path,
                   worker_id="first", lease_s=30, poll_s=0.01)
        stats = run_worker(
            scenario, cache_dir=tmp_path,
            worker_id="second", lease_s=30, poll_s=0.01,
        )
        assert stats.computed == 0
        assert not stats.idle_timeout

    def test_idle_timeout_when_leases_held_elsewhere(self, tmp_path):
        scenario = _scenario()
        store = SQLiteStore(tmp_path)
        q = WorkQueue(store, scenario.scenario_hash())
        q.enqueue(plan_scenario_units(scenario))
        while q.claim("hog", lease_s=3600) is not None:
            pass  # every unit leased by a worker that never finishes
        stats = run_worker(
            scenario, cache_dir=tmp_path,
            worker_id="starved", lease_s=30, poll_s=0.01,
            idle_timeout_s=0.1,
        )
        assert stats.idle_timeout
        assert stats.computed == 0

    def test_worker_trace_carries_worker_ids(self, tmp_path):
        scenario = _scenario()
        tracer = Tracer(tmp_path, "queue-worker", run_id="worker-trace")
        run_worker(
            scenario, cache_dir=tmp_path,
            worker_id="traced-w", lease_s=30, poll_s=0.01, tracer=tracer,
        )
        manifest, events = load_trace(tracer.path)
        assert manifest["role"] == "worker"
        assert manifest["worker_id"] == "traced-w"
        spans = [e for e in events if e.get("type") == "unit"]
        assert len(spans) == 4
        assert {s["worker"] for s in spans} == {"traced-w"}
        summary = summarize_run(manifest, events)
        assert summary["workers"]["per_worker"]["traced-w"]["units"] == 4
        closing = summary["summary"]
        assert closing["computed"] == 4 and closing["worker_id"] == "traced-w"

    def test_reused_span_counts_as_cache_hit(self, tmp_path, cache_first_units):
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        units = plan_scenario_units(scenario)
        # Enqueue first, then cache one unit behind the queue's back --
        # the claim hands it out and the worker must reuse, not
        # recompute.  (A unit cached before enqueue is never claimable.)
        q = WorkQueue(cache.store, scenario.scenario_hash())
        q.enqueue(units)
        cache_first_units(scenario, tmp_path, 1)
        tracer = Tracer(tmp_path, "queue-worker", run_id="reuse-trace")
        stats = run_worker(
            scenario, cache_dir=tmp_path,
            worker_id="reuser", lease_s=30, poll_s=0.01, tracer=tracer,
        )
        assert stats.reused == 1 and stats.computed == 3
        manifest, events = load_trace(tracer.path)
        summary = summarize_run(manifest, events)
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["computed"] == 3


class _BrokenHeartbeatStore:
    """Stands in for the heartbeat thread's private store connection.

    ``lease_heartbeat`` raising (not returning False) models the store
    itself becoming unreachable -- file deleted, disk gone -- which the
    worker must treat as fatal, not as a lost renewal.
    """

    def __init__(self, root):
        self.root = root

    def lease_heartbeat(self, *args, **kwargs):
        raise OSError("store offline")

    def close(self):
        pass


class TestHeartbeatFailure:
    def _break_heartbeats(self, monkeypatch, exec_delay_s=0.3):
        import repro.campaigns.worker as worker_mod

        monkeypatch.setattr(
            worker_mod, "SQLiteStore", _BrokenHeartbeatStore
        )
        real_evaluate = worker_mod.evaluate_unit

        def slow_evaluate(spec):
            # Long enough that the heartbeat interval (lease/3, floor
            # 0.05s) fires mid-unit deterministically.
            import time as _time

            _time.sleep(exec_delay_s)
            return real_evaluate(spec)

        monkeypatch.setattr(worker_mod, "evaluate_unit", slow_evaluate)

    def test_thread_captures_store_error_and_stops(
        self, tmp_path, monkeypatch
    ):
        import repro.campaigns.worker as worker_mod

        monkeypatch.setattr(
            worker_mod, "SQLiteStore", _BrokenHeartbeatStore
        )
        thread = worker_mod._HeartbeatThread(
            tmp_path, "hash", "w1", lease_s=0.15
        )
        thread.watch("unit-key")
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(thread.error, OSError)
        assert thread.lost == set()

    def test_worker_abandons_claim_and_raises(self, tmp_path, monkeypatch):
        from repro.campaigns.worker import HeartbeatError, run_worker

        self._break_heartbeats(monkeypatch)
        scenario = _scenario()
        with pytest.raises(HeartbeatError, match="store offline"):
            run_worker(
                scenario, cache_dir=tmp_path,
                worker_id="zombie", lease_s=0.15, poll_s=0.01,
            )
        cache = ResultCache(tmp_path)
        # The in-flight unit was abandoned, not silently persisted:
        # nothing cached, no lease rows left behind.
        keys = [u.key for u in plan_scenario_units(scenario)]
        assert cache.cached_keys(scenario, keys) == set()
        q = WorkQueue(cache.store, scenario.scenario_hash())
        counts = q.counts()
        assert counts.leased == 0
        assert counts.queued == 4

    def test_cli_maps_heartbeat_error_to_exit_4(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.campaigns.cli import main

        self._break_heartbeats(monkeypatch)
        code = main([
            "worker", "fleet-attack-prevalence",
            "--patients", "20", "--trials", "1", "--chunk-size", "5",
            "--cache-dir", str(tmp_path),
            "--worker-id", "zombie", "--lease", "0.15", "--poll", "0.01",
        ])
        assert code == 4
        assert "heartbeat" in capsys.readouterr().err


class TestRunDistributed:
    def test_reduces_bit_identically_to_serial(self, tmp_path):
        scenario = _scenario()
        serial = CampaignRunner(scenario, cache_dir=tmp_path / "serial").run()
        runner = CampaignRunner(scenario, cache_dir=tmp_path / "dist")
        outcome = {}

        def coordinate():
            try:
                outcome["result"] = runner.run_distributed(
                    poll_s=0.01, wait_timeout_s=120
                )
            except BaseException as exc:  # re-raised on the test thread
                outcome["error"] = exc

        coordinator = threading.Thread(target=coordinate)
        coordinator.start()
        # The coordinator's cached/computed split is its plan-time
        # snapshot, and a worker enqueues the plan itself: start the
        # worker only once the coordinator's enqueue is visible, so no
        # unit can be finished before that snapshot.
        queue = WorkQueue(SQLiteStore(tmp_path / "dist"), scenario.scenario_hash())
        deadline = time.monotonic() + 60
        while queue.counts().queued < 4:
            assert coordinator.is_alive(), outcome
            assert time.monotonic() < deadline, "coordinator never enqueued"
            time.sleep(0.005)
        try:
            run_worker(
                scenario, cache_dir=tmp_path / "dist",
                worker_id="bg", lease_s=30, poll_s=0.01, idle_timeout_s=60,
            )
        finally:
            coordinator.join(timeout=120)
        if "error" in outcome:
            raise outcome["error"]
        distributed = outcome["result"]
        assert json.dumps(distributed.points, sort_keys=True) == json.dumps(
            serial.points, sort_keys=True
        )
        assert distributed.total_units == 4
        assert distributed.computed_units == 4

    def test_timeout_without_workers_names_the_fix(self, tmp_path):
        runner = CampaignRunner(_scenario(), cache_dir=tmp_path)
        with pytest.raises(RuntimeError, match="python -m repro worker"):
            runner.run_distributed(poll_s=0.01, wait_timeout_s=0.05)
        # The queue survives the timeout: workers can still drain it.
        store = SQLiteStore(tmp_path)
        q = WorkQueue(store, _scenario().scenario_hash())
        assert q.counts().queued == 4

    def test_requires_a_persistent_cache(self, tmp_path):
        runner = CampaignRunner(_scenario(), persist=False)
        with pytest.raises(ValueError, match="persist"):
            runner.run_distributed()

    def test_fully_cached_campaign_needs_no_workers(self, tmp_path):
        scenario = _scenario()
        CampaignRunner(scenario, cache_dir=tmp_path).run()
        result = CampaignRunner(scenario, cache_dir=tmp_path).run_distributed(
            poll_s=0.01, wait_timeout_s=5
        )
        assert result.computed_units == 0
        assert result.cached_units == 4
