"""Live progress snapshots: the campaign's pulse, published in flight.

Tracing (:mod:`repro.obs.trace`) answers *what happened* after a run;
this module answers *what is happening now*.  The runner (serial or
pooled), the distributed coordinator, and every worker (each through
its :class:`~repro.obs.observer.RunObserver`) publish small JSON
snapshots -- units done/total/failed, throughput, ETA, what phase the
publisher is in -- through the campaign's existing result store, where
``python -m repro top`` and ``repro export-metrics`` poll them.  The
store keeps snapshots in a ``progress`` table beside
``queue``/``leases`` (one upsert per publish, shared-mount visible),
apart from the ``units`` table that results are fingerprinted from.

Hard invariant, inherited from tracing and test-enforced the same way:
progress publishing never touches cache keys, RNG streams, or result
payloads.  A progress-enabled run is bit-identical to a disabled one --
snapshots are throttled, write-only, and best-effort (a store hiccup
drops a snapshot, never a unit).  Publishing is on by default (a
control room with dead gauges helps nobody) and switched by
``--progress/--no-progress`` or ``REPRO_PROGRESS=0``.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.obs.log import get_logger
from repro.obs.metrics import counter_inc

__all__ = [
    "DEFAULT_INTERVAL_S",
    "PROGRESS_ENV",
    "ProgressPublisher",
    "read_progress",
    "resolve_progress",
]

_log = get_logger("progress")

#: Environment variable switching progress publishing (flag wins).
PROGRESS_ENV = "REPRO_PROGRESS"

#: Seconds between unforced publishes.  Coarse on purpose: at any
#: realistic unit duration one snapshot every couple of seconds tracks
#: the campaign closely while keeping the store traffic negligible.
DEFAULT_INTERVAL_S = 2.0

#: Consecutive publish failures after which a publisher goes quiet.
#: Progress is best-effort by contract -- a store that went away must
#: cost a warning, not a campaign.
_MAX_FAILURES = 3

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def resolve_progress(flag: bool | None = None) -> bool:
    """Whether a run publishes progress (flag > ``REPRO_PROGRESS`` > on)."""
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(PROGRESS_ENV, "").strip().lower()
    if not raw:
        return True
    if raw in _TRUTHY:
        return True
    if raw in _FALSY:
        return False
    raise ValueError(
        f"{PROGRESS_ENV} must be one of {_TRUTHY + _FALSY}, got {raw!r}"
    )


def read_progress(store, scenario_hash: str, now: float | None = None) -> list[dict]:
    """Every source's latest snapshot for one scenario, oldest first.

    Each payload dict gains ``age_s`` (seconds since its publish, by
    the store's recorded timestamp) so pollers can flag idle sources
    without re-deriving clocks.  Unreadable payloads are skipped --
    progress is advisory, never load-bearing.
    """
    if now is None:
        now = time.time()
    snapshots: list[dict] = []
    for source, payload, updated_at in store.progress_read(scenario_hash):
        if not isinstance(payload, dict):
            continue
        payload = dict(payload)
        payload.setdefault("source", source)
        payload["age_s"] = max(0.0, now - float(updated_at))
        snapshots.append(payload)
    snapshots.sort(key=lambda p: (p.get("role", ""), str(p.get("source"))))
    return snapshots


class ProgressPublisher:
    """Throttled, best-effort progress snapshots for one run participant.

    Parameters
    ----------
    store:
        The campaign's result store; snapshots travel through its
        ``progress_publish`` verb.
    scenario_hash:
        The content hash namespacing this campaign.
    source:
        Who is publishing: a worker id, ``coordinator``, or ``runner``.
        One row per source -- each publish replaces the last.
    role:
        ``"runner"`` / ``"coordinator"`` / ``"worker"`` -- how ``top``
        groups the snapshot.
    total_units:
        The plan size this source reports against (0 = unknown).
    scenario / run_id / workers:
        Context stamped into every snapshot (``run_id`` only when the
        run is traced).
    interval_s:
        Minimum seconds between unforced publishes.
    clock / wall:
        Injectable monotonic / wall time sources (tests).
    """

    def __init__(
        self,
        store,
        scenario_hash: str,
        source: str,
        *,
        role: str = "runner",
        total_units: int = 0,
        scenario: str | None = None,
        run_id: str | None = None,
        workers: int | None = None,
        interval_s: float = DEFAULT_INTERVAL_S,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
    ):
        self.store = store
        self.scenario_hash = scenario_hash
        self.source = source
        self.role = role
        self.scenario = scenario
        self.run_id = run_id
        self.workers = workers
        self.interval_s = max(0.0, float(interval_s))
        self.total_units = int(total_units)
        self.done_units = 0
        self.computed_units = 0
        self.reused_units = 0
        self.failed_units = 0
        self.phase = "start"
        self._clock = clock
        self._wall = wall
        self._t0 = clock()
        self._started_wall = wall()
        self._last_publish: float | None = None
        self._failures = 0
        self.published = 0

    # -- accounting ----------------------------------------------------

    def advance(
        self,
        done: int = 1,
        computed: int = 0,
        reused: int = 0,
        failed: int = 0,
        phase: str | None = None,
    ) -> None:
        """Count finished units and publish if the interval elapsed."""
        self.done_units += done
        self.computed_units += computed
        self.reused_units += reused
        self.failed_units += failed
        if phase is not None:
            self.phase = phase
        self.publish()

    # -- publishing ----------------------------------------------------

    def snapshot(self) -> dict:
        """The JSON payload one publish writes."""
        elapsed = max(1e-9, self._clock() - self._t0)
        remaining = max(0, self.total_units - self.done_units)
        rate = self.done_units / elapsed if self.done_units else 0.0
        payload = {
            "role": self.role,
            "source": self.source,
            "scenario": self.scenario,
            "scenario_hash": self.scenario_hash,
            "phase": self.phase,
            "pid": os.getpid(),
            "total_units": self.total_units,
            "done_units": self.done_units,
            "computed_units": self.computed_units,
            "reused_units": self.reused_units,
            "failed_units": self.failed_units,
            "elapsed_s": elapsed,
            "rate_units_per_s": rate,
            "eta_s": (remaining / rate) if rate > 0 else None,
            "started_at": self._started_wall,
            "updated_at": self._wall(),
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.workers is not None:
            payload["workers"] = self.workers
        return payload

    def publish(self, force: bool = False, phase: str | None = None) -> bool:
        """Write a snapshot unless throttled; True when one was written.

        Never raises: a failing store costs a dropped snapshot and a
        warning, and after a few consecutive failures the publisher
        goes quiet entirely -- observability must not perturb the run
        it observes.
        """
        if self._failures >= _MAX_FAILURES:
            return False
        if phase is not None:
            self.phase = phase
        now = self._clock()
        if (
            not force
            and self._last_publish is not None
            and now - self._last_publish < self.interval_s
        ):
            return False
        try:
            self.store.progress_publish(
                self.scenario_hash,
                self.source,
                self.snapshot(),
                self._wall(),
            )
        except Exception as exc:
            self._failures += 1
            counter_inc("progress.publish_error")
            _log.warning(
                "progress publish failed for %s/%s: %s%s",
                self.scenario_hash, self.source, exc,
                " (giving up on progress for this run)"
                if self._failures >= _MAX_FAILURES else "",
            )
            return False
        self._failures = 0
        self._last_publish = now
        self.published += 1
        counter_inc("progress.published")
        return True

    def finish(self, phase: str = "done") -> None:
        """Force one closing snapshot (campaign complete / exiting)."""
        self.phase = phase
        self.publish(force=True)
