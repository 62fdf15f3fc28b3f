"""The SQLite result store behind the campaign cache.

Every completed unit of a cache root lives in one ``results.sqlite``
file: WAL journaling so readers never block the writer, one atomic
upsert per completed unit, and one indexed query for any membership or
stats question.  A SIGKILL mid-run loses at most the in-flight unit --
every write is one transaction.  The same file hosts the distributed
work queue, its leases and the live progress snapshots.

It is the only store: no flag or environment variable selects a
layout.  A cache root that still holds ``<hash>/*.json`` directories
from the one-file-per-unit layout of earlier releases is ignored;
those units recompute into ``results.sqlite``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.obs.log import get_logger
from repro.obs.metrics import counter_inc, timing_observe

_log = get_logger("store")

__all__ = ["CacheStats", "ScenarioStats", "SQLiteStore"]


@dataclass(frozen=True)
class ScenarioStats:
    """Cache usage of one scenario namespace."""

    scenario_hash: str
    name: str  # "" when the namespace carries no readable manifest
    entries: int
    bytes: int


@dataclass(frozen=True)
class CacheStats:
    """Aggregate cache usage of one store."""

    location: str
    entries: int
    bytes: int
    scenarios: tuple[ScenarioStats, ...]


class SQLiteStore:
    """All unit results of one cache root in a single SQLite file.

    Designed for the fleet workloads: 10^5-10^6 unit upserts into one
    WAL-journaled file beat a million-file directory on every axis that
    matters here (put throughput, membership queries, prune, backup).
    The schema is two tables -- ``units`` keyed by (scenario hash, unit
    key) and ``scenarios`` holding the human-readable manifests -- and
    every write is one transaction, so a SIGKILL mid-run loses at most
    the in-flight unit.

    Two further tables back distributed execution
    (:mod:`repro.campaigns.queue`): ``queue`` holds the planned units a
    campaign fanned out, ``leases`` the in-flight claims.  A claim is
    decided by a single ``INSERT OR IGNORE`` into ``leases`` -- two
    workers racing for one unit are resolved by the database's primary
    key, never by clock comparison in Python -- and an expired lease
    (crashed worker) is reaped and re-claimable by anyone.
    """

    #: File name inside the cache root.
    FILENAME = "results.sqlite"

    #: Pause before retrying a read (once) or the switch to WAL that
    #: hit SQLITE_BUSY.
    BUSY_RETRY_S = 0.05

    #: sqlite3's busy timeout, and the bound on retrying the switch
    #: to WAL while another connection creates the same database.
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        self._conn: sqlite3.Connection | None = None

    # -- connection -----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.root.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=self.BUSY_TIMEOUT_S)
            self._enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS units ("
                " scenario_hash TEXT NOT NULL,"
                " unit_key TEXT NOT NULL,"
                " coords TEXT NOT NULL,"
                " result TEXT NOT NULL,"
                " PRIMARY KEY (scenario_hash, unit_key))"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS scenarios ("
                " scenario_hash TEXT PRIMARY KEY,"
                " manifest TEXT NOT NULL)"
            )
            # Distributed-execution tables (repro.campaigns.queue):
            # planned-but-not-reduced units, and in-flight claims.  The
            # IF NOT EXISTS upgrades pre-existing caches in place.
            conn.execute(
                "CREATE TABLE IF NOT EXISTS queue ("
                " scenario_hash TEXT NOT NULL,"
                " unit_key TEXT NOT NULL,"
                " coords TEXT NOT NULL,"
                " enqueued_at REAL NOT NULL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " PRIMARY KEY (scenario_hash, unit_key))"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS leases ("
                " scenario_hash TEXT NOT NULL,"
                " unit_key TEXT NOT NULL,"
                " worker_id TEXT NOT NULL,"
                " acquired_at REAL NOT NULL,"
                " expires_at REAL NOT NULL,"
                " PRIMARY KEY (scenario_hash, unit_key))"
            )
            # Live telemetry (repro.obs.progress): one row per
            # publishing source, replaced on every publish.  Advisory
            # only -- nothing that fingerprints results reads it.
            conn.execute(
                "CREATE TABLE IF NOT EXISTS progress ("
                " scenario_hash TEXT NOT NULL,"
                " source TEXT NOT NULL,"
                " payload TEXT NOT NULL,"
                " updated_at REAL NOT NULL,"
                " PRIMARY KEY (scenario_hash, source))"
            )
            conn.commit()
            self._conn = conn
        return self._conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Switch to WAL, retrying while another connection holds the file.

        On a fresh database the switch returns SQLITE_BUSY at once when
        a second connection (a coordinator and its worker opening one
        new cache root together) holds a lock, without waiting out the
        connection's busy timeout -- so wait here, up to that same bound.
        """
        deadline = time.monotonic() + self.BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if not _is_busy(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(self.BUSY_RETRY_S)

    def _absent(self) -> bool:
        """Whether the database does not exist yet.

        Reads check this first and answer empty: a read-only verb on a
        fresh root must not leave results.sqlite + WAL files behind,
        and must work under a read-only parent.
        """
        return self._conn is None and not self.path.exists()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- unit results ---------------------------------------------------

    def get(self, scenario_hash: str, key: str) -> dict | None:
        if self._absent():
            counter_inc("store.sqlite.get_miss")
            return None
        start = time.perf_counter()
        try:
            row = self._read_unit_row(scenario_hash, key)
        except (sqlite3.Error, OSError) as exc:
            # A locked, corrupt or unopenable database (OSError covers
            # the mkdir/open failures) is NOT a cache miss: the
            # unit will recompute either way, but a silent miss hides
            # the store failure behind an inflated miss rate.  Count it
            # apart and say so.
            counter_inc("store.sqlite.get_error")
            _log.warning(
                "sqlite read failed for unit %s/%s: %s "
                "(recomputing the unit; check %s)",
                scenario_hash, key, exc, self.path,
            )
            return None
        finally:
            timing_observe("store.sqlite.get", time.perf_counter() - start)
        if row is None:
            counter_inc("store.sqlite.get_miss")
            return None
        try:
            result = json.loads(row[0])
        except ValueError:
            result = None
        if not isinstance(result, dict):
            # A present-but-unreadable entry means tampering or disk
            # corruption (writes are transactional) -- an error, not a
            # miss.
            counter_inc("store.sqlite.get_error")
            _log.warning(
                "corrupt cache entry for unit %s/%s in %s "
                "(recomputing the unit)",
                scenario_hash, key, self.path,
            )
            return None
        counter_inc("store.sqlite.get_hit")
        counter_inc("store.sqlite.read_bytes", len(row[0]))
        return result

    def _read_unit_row(self, scenario_hash: str, key: str):
        """One unit's row, retrying once when the database is busy.

        WAL keeps readers from blocking the writer, but a concurrent
        checkpoint (or a non-WAL copy of the file) can still surface
        SQLITE_BUSY past the driver's timeout; one short-fuse retry
        absorbs the transient case before :meth:`get` reports an error.
        """
        query = (
            "SELECT result FROM units"
            " WHERE scenario_hash = ? AND unit_key = ?"
        )
        try:
            return self._connect().execute(
                query, (scenario_hash, key)
            ).fetchone()
        except sqlite3.OperationalError as exc:
            if not _is_busy(exc):
                raise
            counter_inc("store.sqlite.busy_retry")
            time.sleep(self.BUSY_RETRY_S)
            return self._connect().execute(
                query, (scenario_hash, key)
            ).fetchone()

    def put(
        self,
        scenario_hash: str,
        key: str,
        coords: dict,
        result: dict,
        manifest: dict | None = None,
    ) -> None:
        start = time.perf_counter()
        conn = self._connect()
        result_text = json.dumps(result, sort_keys=True)
        with conn:  # one transaction: the upsert is atomic
            if manifest is not None:
                conn.execute(
                    "INSERT OR IGNORE INTO scenarios"
                    " (scenario_hash, manifest) VALUES (?, ?)",
                    (scenario_hash, json.dumps(manifest, sort_keys=True)),
                )
            conn.execute(
                "INSERT INTO units (scenario_hash, unit_key, coords, result)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT (scenario_hash, unit_key)"
                " DO UPDATE SET coords = excluded.coords,"
                "               result = excluded.result",
                (
                    scenario_hash,
                    key,
                    json.dumps(coords, sort_keys=True),
                    result_text,
                ),
            )
        counter_inc("store.sqlite.put")
        counter_inc("store.sqlite.write_bytes", len(result_text))
        timing_observe("store.sqlite.put", time.perf_counter() - start)

    def cached_keys(self, scenario_hash: str, keys: Iterable[str]) -> set[str]:
        if self._absent():
            return set()
        try:
            rows = self._connect().execute(
                "SELECT unit_key FROM units WHERE scenario_hash = ?",
                (scenario_hash,),
            ).fetchall()
        except (sqlite3.Error, OSError):
            return set()
        present = {row[0] for row in rows}
        return {key for key in keys if key in present}

    def stats(self) -> CacheStats:
        scenarios: list[ScenarioStats] = []
        total_entries = 0
        total_bytes = 0
        if self.path.exists():
            conn = self._connect()
            names = self.namespace_names()
            for scenario_hash, entries, n_bytes in conn.execute(
                "SELECT scenario_hash, COUNT(*),"
                " COALESCE(SUM(LENGTH(result) + LENGTH(coords)), 0)"
                " FROM units GROUP BY scenario_hash ORDER BY scenario_hash"
            ):
                scenarios.append(
                    ScenarioStats(
                        scenario_hash,
                        names.get(scenario_hash, ""),
                        int(entries),
                        int(n_bytes),
                    )
                )
                total_entries += int(entries)
                total_bytes += int(n_bytes)
        return CacheStats(
            location=str(self.path),
            entries=total_entries,
            bytes=total_bytes,
            scenarios=tuple(scenarios),
        )

    def namespace_names(self) -> dict[str, str]:
        if self._absent():
            return {}
        names: dict[str, str] = {}
        try:
            rows = self._connect().execute(
                "SELECT scenario_hash, manifest FROM scenarios"
            ).fetchall()
        except (sqlite3.Error, OSError):
            return {}
        for scenario_hash, manifest in rows:
            try:
                body = json.loads(manifest)
            except ValueError:
                body = {}
            name = body.get("name", "") if isinstance(body, dict) else ""
            names[scenario_hash] = name if isinstance(name, str) else ""
        return names

    def prune(self, scenario_hashes: Iterable[str] | None = None) -> int:
        if not self.path.exists():
            return 0
        conn = self._connect()
        with conn:
            if scenario_hashes is None:
                removed = int(
                    conn.execute("SELECT COUNT(*) FROM units").fetchone()[0]
                )
                conn.execute("DELETE FROM units")
                conn.execute("DELETE FROM scenarios")
                conn.execute("DELETE FROM queue")
                conn.execute("DELETE FROM leases")
                conn.execute("DELETE FROM progress")
            else:
                removed = 0
                for scenario_hash in scenario_hashes:
                    cur = conn.execute(
                        "DELETE FROM units WHERE scenario_hash = ?",
                        (scenario_hash,),
                    )
                    removed += cur.rowcount
                    for table in ("scenarios", "queue", "leases", "progress"):
                        conn.execute(
                            f"DELETE FROM {table} WHERE scenario_hash = ?",
                            (scenario_hash,),
                        )
        # DELETE alone leaves the file (and the WAL, which holds the
        # unmerged pages until a checkpoint) at full size; the verb
        # exists to reclaim disk, so rewrite the database and truncate
        # the log.  (VACUUM cannot run inside the transaction above.)
        if removed:
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return removed

    # -- distributed work queue (repro.campaigns.queue) ----------------

    def queue_enqueue(
        self,
        scenario_hash: str,
        entries: Iterable[tuple[str, str]],
        now: float,
    ) -> int:
        """Record planned units as claimable work (idempotent).

        ``entries`` are ``(unit_key, coords_json)`` pairs.  ``INSERT OR
        IGNORE`` makes re-enqueueing free, so every participant -- the
        coordinator and each worker -- can enqueue the same
        deterministic plan without coordination.  Returns how many rows
        were actually new.
        """
        conn = self._connect()
        with conn:
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO queue"
                " (scenario_hash, unit_key, coords, enqueued_at, attempts)"
                " VALUES (?, ?, ?, ?, 0)",
                [(scenario_hash, key, coords, now) for key, coords in entries],
            )
            added = conn.total_changes - before
        if added:
            counter_inc("queue.enqueued", added)
        return added

    def queue_claim(
        self,
        scenario_hash: str,
        worker_id: str,
        now: float,
        expires_at: float,
        candidates: int = 8,
    ) -> tuple[str, str, int] | None:
        """Claim one queued unit, or None when nothing is claimable.

        Expired leases are reaped first (one atomic DELETE -- racing
        reapers both succeed harmlessly), then the claim itself is a
        single ``INSERT OR IGNORE`` into ``leases``: the table's
        primary key, not any Python-side comparison, decides which of
        two racing workers owns the unit.  Returns ``(unit_key,
        coords_json, attempt)`` where ``attempt > 1`` marks a unit
        re-queued after a lost or abandoned lease.

        A claimed unit may already have a row in ``units`` (a previous
        holder persisted its result but died before completing): the
        claimant is expected to check the cache first and retire such
        rows via :meth:`queue_complete` without recomputing.
        """
        conn = self._connect()
        with conn:
            reaped = conn.execute(
                "DELETE FROM leases"
                " WHERE scenario_hash = ? AND expires_at <= ?",
                (scenario_hash, now),
            ).rowcount
        if reaped:
            counter_inc("queue.leases_expired", reaped)
        rows = conn.execute(
            "SELECT q.unit_key, q.coords FROM queue q"
            " WHERE q.scenario_hash = ?"
            " AND NOT EXISTS (SELECT 1 FROM leases l"
            "  WHERE l.scenario_hash = q.scenario_hash"
            "  AND l.unit_key = q.unit_key)"
            " ORDER BY q.enqueued_at, q.unit_key LIMIT ?",
            (scenario_hash, candidates),
        ).fetchall()
        for unit_key, coords in rows:
            with conn:
                cur = conn.execute(
                    "INSERT OR IGNORE INTO leases"
                    " (scenario_hash, unit_key, worker_id,"
                    "  acquired_at, expires_at)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (scenario_hash, unit_key, worker_id, now, expires_at),
                )
                if cur.rowcount == 1:
                    attempt = conn.execute(
                        "UPDATE queue SET attempts = attempts + 1"
                        " WHERE scenario_hash = ? AND unit_key = ?"
                        " RETURNING attempts",
                        (scenario_hash, unit_key),
                    ).fetchone()[0]
            if cur.rowcount == 1:
                counter_inc("queue.claimed")
                return unit_key, coords, int(attempt)
            # Another worker won this candidate between the SELECT and
            # our INSERT; try the next one.
            counter_inc("queue.claim_lost")
        return None

    def lease_heartbeat(
        self, scenario_hash: str, key: str, worker_id: str, expires_at: float
    ) -> bool:
        """Extend a held lease; False means it was lost (reaped/reclaimed)."""
        conn = self._connect()
        with conn:
            cur = conn.execute(
                "UPDATE leases SET expires_at = ?"
                " WHERE scenario_hash = ? AND unit_key = ? AND worker_id = ?",
                (expires_at, scenario_hash, key, worker_id),
            )
        renewed = cur.rowcount == 1
        counter_inc(
            "queue.heartbeats" if renewed else "queue.heartbeat_lost"
        )
        return renewed

    def queue_complete(
        self, scenario_hash: str, key: str, worker_id: str
    ) -> None:
        """Retire one unit: drop its queue row and any lease on it.

        Completion is authoritative regardless of who holds the lease
        -- the unit's result is already in ``units`` (the caller puts
        before completing), and results are deterministic, so a
        duplicate completion after a lost lease retires the same bytes.
        """
        conn = self._connect()
        with conn:
            conn.execute(
                "DELETE FROM leases"
                " WHERE scenario_hash = ? AND unit_key = ?",
                (scenario_hash, key),
            )
            conn.execute(
                "DELETE FROM queue"
                " WHERE scenario_hash = ? AND unit_key = ?",
                (scenario_hash, key),
            )
        counter_inc("queue.completed")

    def queue_abandon(
        self, scenario_hash: str, key: str, worker_id: str
    ) -> bool:
        """Release a held lease without completing (immediate re-queue)."""
        conn = self._connect()
        with conn:
            cur = conn.execute(
                "DELETE FROM leases"
                " WHERE scenario_hash = ? AND unit_key = ? AND worker_id = ?",
                (scenario_hash, key, worker_id),
            )
        released = cur.rowcount == 1
        if released:
            counter_inc("queue.abandoned")
        return released

    def queue_counts(
        self, scenario_hash: str, now: float
    ) -> tuple[int, int]:
        """(outstanding queue rows, live leases) for one scenario."""
        if self._absent():
            return 0, 0
        conn = self._connect()
        queued = conn.execute(
            "SELECT COUNT(*) FROM queue WHERE scenario_hash = ?",
            (scenario_hash,),
        ).fetchone()[0]
        leased = conn.execute(
            "SELECT COUNT(*) FROM leases"
            " WHERE scenario_hash = ? AND expires_at > ?",
            (scenario_hash, now),
        ).fetchone()[0]
        return int(queued), int(leased)

    def queue_leases(
        self, scenario_hash: str
    ) -> list[tuple[str, str, float, float]]:
        """Every lease row: (unit_key, worker_id, acquired_at, expires_at).

        Includes *expired* rows -- claims reap those lazily, so between
        a worker's death and the next claim they are exactly the
        stalled leases ``repro top`` exists to surface.
        """
        if self._absent():
            return []
        rows = self._connect().execute(
            "SELECT unit_key, worker_id, acquired_at, expires_at"
            " FROM leases WHERE scenario_hash = ?"
            " ORDER BY acquired_at, unit_key",
            (scenario_hash,),
        ).fetchall()
        return [
            (str(k), str(w), float(a), float(e)) for k, w, a, e in rows
        ]

    # -- live progress (repro.obs.progress) ----------------------------

    def progress_publish(
        self, scenario_hash: str, source: str, payload: dict, now: float
    ) -> None:
        conn = self._connect()
        with conn:
            conn.execute(
                "INSERT INTO progress"
                " (scenario_hash, source, payload, updated_at)"
                " VALUES (?, ?, ?, ?)"
                " ON CONFLICT (scenario_hash, source)"
                " DO UPDATE SET payload = excluded.payload,"
                "               updated_at = excluded.updated_at",
                (
                    scenario_hash,
                    source,
                    json.dumps(payload, sort_keys=True),
                    now,
                ),
            )

    def progress_read(
        self, scenario_hash: str
    ) -> list[tuple[str, dict, float]]:
        if self._absent():
            return []
        try:
            rows = self._connect().execute(
                "SELECT source, payload, updated_at FROM progress"
                " WHERE scenario_hash = ? ORDER BY source",
                (scenario_hash,),
            ).fetchall()
        except (sqlite3.Error, OSError):
            return []
        snapshots: list[tuple[str, dict, float]] = []
        for source, payload, updated_at in rows:
            try:
                body = json.loads(payload)
            except ValueError:
                continue
            if isinstance(body, dict):
                snapshots.append((str(source), body, float(updated_at)))
        return snapshots


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    """Whether an operational error is SQLITE_BUSY/SQLITE_LOCKED."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message

