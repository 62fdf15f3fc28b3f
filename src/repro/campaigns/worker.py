"""The distributed campaign worker: claim -> evaluate -> put -> complete.

``python -m repro worker <scenario>`` runs this loop against a shared
SQLite cache root.  Any number of workers (processes or machines
mounting the same root) drain one campaign cooperatively: each derives
the identical deterministic plan, enqueues it idempotently (so workers
never wait for a coordinator to show up), then claims units through the
lease table until every planned key is cached.

Crash safety is the lease protocol's job, not the worker's: a worker
that dies mid-unit simply stops heartbeating, and the unit is
re-claimed once its lease expires.  A worker that was merely *slow* --
its lease reaped while the unit still runs -- finishes and writes
anyway: results are deterministic, so the duplicate put is the same
bytes and completion stays idempotent.  The heartbeat thread keeps
long units alive; it owns a private database connection because sqlite
connections are bound to their creating thread.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaigns.cache import (
    ResultCache,
    check_store_name,
    default_cache_dir,
)
from repro.campaigns.queue import DEFAULT_LEASE_S, WorkQueue
from repro.campaigns.runner import evaluate_unit, plan_scenario_units
from repro.campaigns.spec import Scenario
from repro.campaigns.store import SQLiteStore
from repro.obs.log import get_logger
from repro.obs.metrics import observed_call
from repro.obs.observer import RunObserver
from repro.obs.progress import resolve_progress
from repro.obs.trace import Tracer

__all__ = [
    "HeartbeatError",
    "WorkerStats",
    "default_worker_id",
    "run_worker",
]

_log = get_logger("worker")


class HeartbeatError(RuntimeError):
    """The lease-heartbeat store became unavailable mid-campaign.

    A worker whose heartbeats cannot land is a zombie: it still holds a
    lease it can no longer renew, so other workers wait out the full
    lease on a unit this one may never be able to persist.  The worker
    must abandon its claim and exit distinctly (CLI exit code 4) -- not
    soldier on, not report a clean completion.
    """


def default_worker_id() -> str:
    """A fleet-unique worker identity: host plus pid."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker did to one campaign."""

    worker_id: str
    claimed: int = 0
    computed: int = 0
    reused: int = 0
    lease_lost: int = 0
    idle_timeout: bool = False
    busy_s: float = field(default=0.0)

    def to_payload(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "computed": self.computed,
            "reused": self.reused,
            "lease_lost": self.lease_lost,
            "idle_timeout": self.idle_timeout,
            "busy_s": self.busy_s,
        }


class _HeartbeatThread(threading.Thread):
    """Renews the lease on whichever unit the worker is evaluating.

    Owns its *own* store connection (sqlite3 connections are bound to
    the thread that created them; sharing the worker's would race).
    Keys whose renewal fails land in :attr:`lost` -- the worker checks
    after each unit to count double-evaluations, which are harmless
    (deterministic results) but worth surfacing in the stats.

    A renewal that *raises* (store file gone, database locked beyond
    sqlite's own retries, disk yanked) is a different beast from one
    that returns False: the store itself is unreachable, so no future
    renewal can succeed either.  The thread records the exception in
    :attr:`error` and stops; the worker loop checks that attribute and
    bails out with :class:`HeartbeatError` rather than running on with
    an unrenewable lease.
    """

    def __init__(self, root: Path, scenario_hash: str, worker_id: str,
                 lease_s: float):
        super().__init__(name="lease-heartbeat", daemon=True)
        self.root = root
        self.scenario_hash = scenario_hash
        self.worker_id = worker_id
        self.lease_s = lease_s
        self.interval_s = max(0.05, lease_s / 3.0)
        self.lost: set[str] = set()
        self.error: BaseException | None = None
        self._key: str | None = None
        self._lock = threading.Lock()
        self._halt = threading.Event()

    def watch(self, key: str) -> None:
        with self._lock:
            self._key = key

    def clear(self) -> None:
        with self._lock:
            self._key = None

    def stop(self) -> None:
        self._halt.set()

    def run(self) -> None:
        try:
            store = SQLiteStore(self.root)
        except Exception as exc:  # pragma: no cover - constructor is lazy
            self.error = exc
            return
        try:
            while not self._halt.wait(self.interval_s):
                with self._lock:
                    key = self._key
                if key is None:
                    continue
                try:
                    renewed = store.lease_heartbeat(
                        self.scenario_hash, key, self.worker_id,
                        time.time() + self.lease_s,
                    )
                except Exception as exc:
                    self.error = exc
                    _log.error(
                        "worker %s: lease heartbeat failed (%s); "
                        "store unreachable, halting renewals",
                        self.worker_id, exc,
                    )
                    return
                if not renewed:
                    with self._lock:
                        # Only record a loss for the unit still being
                        # watched -- clear() may have retired it between
                        # the read above and the renewal landing.
                        if self._key == key:
                            self.lost.add(key)
        finally:
            store.close()


def run_worker(
    scenario: Scenario,
    cache_dir: Path | str | None = None,
    cache_backend: str | None = None,
    worker_id: str | None = None,
    lease_s: float = DEFAULT_LEASE_S,
    poll_s: float = 0.5,
    idle_timeout_s: float | None = 600.0,
    max_units: int | None = None,
    tracer: Tracer | None = None,
    progress: bool | None = None,
) -> WorkerStats:
    """Drain one scenario's work queue until the campaign is cached.

    The worker plans the scenario itself (plans are deterministic), so
    it can start before, after, or without a coordinator.  It exits
    when every planned key is cached, when ``max_units`` claims have
    been processed, or after ``idle_timeout_s`` seconds without
    claimable work (``None`` polls forever -- daemon mode).

    With ``progress`` on (flag > ``REPRO_PROGRESS`` > on) the worker
    publishes periodic snapshots of its own claim/compute counts
    through the shared store, which is what ``python -m repro top``
    renders live.  Publishing is best-effort and throttled; it never
    changes what the worker computes or writes.

    Raises :class:`HeartbeatError` when the lease-heartbeat thread hits
    a store error (not a mere lost renewal): the worker abandons its
    claim and the CLI maps the exception to exit code 4.

    ``cache_backend`` is kept for compatibility: only ``None`` or
    ``"sqlite"``, the one store.
    """
    check_store_name(cache_backend)
    worker_id = worker_id or default_worker_id()
    cache_root = Path(
        cache_dir if cache_dir is not None else default_cache_dir()
    )
    cache = ResultCache(cache_root)
    scenario_hash = scenario.scenario_hash()
    queue = WorkQueue(cache.store, scenario_hash)
    stats = WorkerStats(worker_id=worker_id)
    observer = RunObserver.for_run(
        scenario, tracer,
        cache.store if resolve_progress(progress) else None,
        source=worker_id, role="worker",
    )
    with observer:
        units = plan_scenario_units(scenario)
        by_key = {u.key: u for u in units}
        all_keys = list(by_key)
        # Enqueue the plan ourselves (idempotent), so workers can start
        # before, after, or without a coordinator -- but skip units
        # already cached: a claim for those would only be reuse-retired.
        already = cache.cached_keys(scenario, all_keys)
        queue.enqueue([u for u in units if u.key not in already])
        observer.start(
            scenario, len(units), role="worker", worker_id=worker_id,
            lease_s=lease_s, cache_backend="sqlite",
            cache_root=str(cache_root),
        )
        _log.info(
            "worker %s: joined %s (%d planned units, lease %.0fs)",
            worker_id, scenario.name, len(units), lease_s,
        )
        heartbeat = _HeartbeatThread(
            cache_root, scenario_hash, worker_id, lease_s
        )
        heartbeat.start()
        idle_since: float | None = None
        exit_phase = "interrupted"
        try:
            while True:
                observer.progress("claim")
                if heartbeat.error is not None:
                    raise HeartbeatError(
                        f"worker {worker_id}: lease heartbeat hit a store "
                        f"error ({heartbeat.error}); exiting"
                    ) from heartbeat.error
                if max_units is not None and stats.claimed >= max_units:
                    exit_phase = "done"
                    break
                claim = queue.claim(worker_id, lease_s)
                if claim is None:
                    remaining = set(all_keys) - cache.cached_keys(
                        scenario, all_keys
                    )
                    if not remaining:
                        _log.info(
                            "worker %s: campaign %s complete",
                            worker_id, scenario.name,
                        )
                        exit_phase = "done"
                        break
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif (idle_timeout_s is not None
                          and now - idle_since > idle_timeout_s):
                        stats.idle_timeout = True
                        _log.warning(
                            "worker %s: no claimable work for %.0fs with "
                            "%d unit(s) still uncached (leases held "
                            "elsewhere?); giving up",
                            worker_id, idle_timeout_s, len(remaining),
                        )
                        exit_phase = "idle-timeout"
                        break
                    observer.progress("idle")
                    time.sleep(poll_s)
                    continue
                idle_since = None
                stats.claimed += 1
                unit = by_key.get(claim.key)
                if unit is None:
                    # A queue row from a different plan revision; leave
                    # it for a worker that recognizes it.
                    _log.warning(
                        "worker %s: claimed unknown unit %s (stale queue "
                        "row?); abandoning",
                        worker_id, claim.key,
                    )
                    queue.abandon(claim.key, worker_id)
                    continue
                if cache.get(scenario, claim.key) is not None:
                    # Cached after enqueue (another worker, earlier
                    # run): just retire the queue row.
                    queue.complete(claim.key, worker_id)
                    stats.reused += 1
                    observer.hit(
                        unit, status="reused", worker=worker_id,
                        attempt=claim.attempt,
                    )
                    continue
                heartbeat.watch(claim.key)
                observer.progress("evaluate")
                try:
                    envelope = observed_call(evaluate_unit, unit.spec)
                except BaseException:
                    heartbeat.clear()
                    queue.abandon(claim.key, worker_id)
                    raise
                heartbeat.clear()
                if heartbeat.error is not None:
                    # The store died while we were computing: abandon
                    # the claim (best effort -- the store may refuse
                    # even that) and surface the failure instead of
                    # pretending the result landed.
                    try:
                        queue.abandon(claim.key, worker_id)
                    except Exception:
                        pass
                    raise HeartbeatError(
                        f"worker {worker_id}: lease heartbeat hit a store "
                        f"error mid-unit ({heartbeat.error}); abandoning "
                        f"{claim.key} and exiting"
                    ) from heartbeat.error
                flush_start = time.perf_counter()
                cache.put(scenario, claim.key, unit.coords, envelope["result"])
                queue.complete(claim.key, worker_id)
                flush_seconds = time.perf_counter() - flush_start
                stats.computed += 1
                stats.busy_s += envelope["obs"]["exec_s"]
                lease_lost = claim.key in heartbeat.lost
                if lease_lost:
                    stats.lease_lost += 1
                observer.computed(
                    unit, envelope, flush_seconds, worker=worker_id,
                    attempt=claim.attempt, lease_lost=lease_lost,
                )
        finally:
            heartbeat.stop()
            heartbeat.join(timeout=5.0)
            observer.finish(exit_phase, **stats.to_payload())
    return stats
