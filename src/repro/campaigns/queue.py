"""Lease-based work queue for distributed campaign execution.

A campaign plan is deterministic: every participant that knows the
scenario derives the same unit keys and coordinates (see
``plan_scenario_units``), so distributing a campaign does not require
shipping work -- only *arbitrating* it.  This module layers that
arbitration on the :class:`~repro.campaigns.store.SQLiteStore` cache
file every participant already shares:

``queue``
    one row per planned unit (``unit_key``, JSON coordinates, an
    ``attempts`` counter).  Enqueueing is ``INSERT OR IGNORE``, so the
    coordinator and every worker can enqueue the same plan without
    coordination.
``leases``
    one row per in-flight unit, keyed ``(scenario_hash, unit_key)``
    with a holder and an expiry timestamp.  A claim is a single
    ``INSERT OR IGNORE`` -- the primary key, not a Python-side clock
    comparison, decides which of two racing workers owns the unit.

Crash safety falls out of leases plus determinism: a worker killed
mid-unit simply stops heartbeating, its lease expires, the next claim
reaps it, and another worker re-evaluates the unit.  If the "dead"
worker was merely slow and still writes its result, the duplicate put
is idempotent -- both workers computed the same bytes from the same
seeded RNG streams -- so the race needs no resolution at all.

Completion is defined by the *results* table, not the queue: a unit is
done when its row exists in ``units``, and a campaign is done when
every planned key is cached.  A queue row whose unit is already cached
(its last holder died between persisting and completing) is still
claimable -- the claimant checks the cache first and retires the row
without recomputing, so stale rows self-heal instead of leaking.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.campaigns.store import SQLiteStore

__all__ = [
    "LeaseInfo",
    "QueueClaim",
    "QueueCounts",
    "WorkQueue",
]

#: Default lease duration: long enough to cover any realistic unit
#: (fleet chunks run in seconds), short enough that a crashed worker's
#: in-flight unit is re-queued promptly.
DEFAULT_LEASE_S = 60.0


@dataclass(frozen=True)
class QueueClaim:
    """One unit of work leased to one worker.

    ``attempt`` counts how many times the unit has ever been claimed;
    anything above 1 means a previous holder lost or abandoned its
    lease.
    """

    key: str
    coords: dict
    worker_id: str
    expires_at: float
    attempt: int


@dataclass(frozen=True)
class LeaseInfo:
    """One in-flight (or orphaned) claim, as ``repro top`` sees it.

    ``stalled`` means the expiry already passed but no claim has reaped
    the row yet -- the signature of a worker that died mid-unit and
    whose unit will be re-queued at the next claim.
    """

    key: str
    worker_id: str
    acquired_at: float
    expires_at: float
    stalled: bool

    @property
    def age_s(self) -> float:
        return max(0.0, self.expires_at - self.acquired_at)


@dataclass(frozen=True)
class QueueCounts:
    """Outstanding work for one scenario: queued rows and live leases."""

    queued: int
    leased: int

    @property
    def idle(self) -> bool:
        return self.queued == 0 and self.leased == 0


class WorkQueue:
    """Claim arbitration for one scenario's planned units.

    Parameters
    ----------
    store:
        The campaign cache's store.
    scenario_hash:
        The content hash namespacing this campaign's units.
    clock:
        Time source for lease stamps, injectable so expiry tests do not
        sleep.  Leases only ever *compare* stamps inside the database,
        so a skewed clock shortens or lengthens leases -- it cannot
        corrupt a claim.
    """

    def __init__(
        self,
        store: SQLiteStore,
        scenario_hash: str,
        clock: Callable[[], float] = time.time,
    ):
        self.store = store
        self.scenario_hash = scenario_hash
        self.clock = clock

    def enqueue(self, units: Iterable) -> int:
        """Make planned units claimable; returns how many were new.

        ``units`` are objects with ``.key`` and ``.coords`` (the
        planner's ``CampaignUnit``s).  Re-enqueueing an existing key is
        free, so every participant enqueues its own plan.
        """
        entries = [
            (unit.key, json.dumps(unit.coords, sort_keys=True))
            for unit in units
        ]
        return self.store.queue_enqueue(
            self.scenario_hash, entries, self.clock()
        )

    def claim(
        self, worker_id: str, lease_s: float = DEFAULT_LEASE_S
    ) -> QueueClaim | None:
        """Lease one unclaimed, uncached unit; None when none remain.

        Expired leases are reaped first, so a crashed worker's unit is
        claimable the moment its lease runs out.
        """
        now = self.clock()
        row = self.store.queue_claim(
            self.scenario_hash, worker_id, now, now + lease_s
        )
        if row is None:
            return None
        key, coords_json, attempt = row
        return QueueClaim(
            key=key,
            coords=json.loads(coords_json),
            worker_id=worker_id,
            expires_at=now + lease_s,
            attempt=attempt,
        )

    def heartbeat(
        self, key: str, worker_id: str, lease_s: float = DEFAULT_LEASE_S
    ) -> bool:
        """Extend a held lease; False means it expired and was taken."""
        return self.store.lease_heartbeat(
            self.scenario_hash, key, worker_id, self.clock() + lease_s
        )

    def complete(self, key: str, worker_id: str) -> None:
        """Retire a unit whose result is in the cache."""
        self.store.queue_complete(self.scenario_hash, key, worker_id)

    def abandon(self, key: str, worker_id: str) -> bool:
        """Release a lease without completing (immediate re-queue)."""
        return self.store.queue_abandon(self.scenario_hash, key, worker_id)

    def counts(self) -> QueueCounts:
        queued, leased = self.store.queue_counts(
            self.scenario_hash, self.clock()
        )
        return QueueCounts(queued=queued, leased=leased)

    def leases(self) -> list[LeaseInfo]:
        """Every lease row, stalled ones flagged (expired, unreaped)."""
        now = self.clock()
        return [
            LeaseInfo(
                key=key,
                worker_id=worker_id,
                acquired_at=acquired_at,
                expires_at=expires_at,
                stalled=expires_at <= now,
            )
            for key, worker_id, acquired_at, expires_at
            in self.store.queue_leases(self.scenario_hash)
        ]
