"""Pluggable result stores behind the campaign cache.

:class:`~repro.campaigns.cache.ResultCache` used to *be* the
one-file-per-unit filesystem layout; population-scale fleet campaigns
(10^5-10^6 work units) turn that layout into a directory of a million
tiny JSON files, where every metadata operation -- membership checks,
pruning, even ``ls`` -- collapses.  This module extracts the storage
contract into a :class:`ResultStore` protocol with two interchangeable
backends:

:class:`FilesystemStore`
    The historical layout, byte-identical on disk to what every
    previous release wrote: one directory per scenario content hash,
    one ``<unit_hash>.json`` per completed unit, a ``scenario.json``
    manifest, atomic temp-file + ``os.replace`` writes.
:class:`SQLiteStore`
    A single ``results.sqlite`` file per cache root: WAL journaling so
    readers never block the writer, one atomic upsert per completed
    unit, and one indexed query for any membership/stats question.
    This is the backend fleet campaigns default to recommending.

Both backends answer the same five questions -- get, put, membership,
stats, prune -- and both are safe against mid-write kills: the
filesystem store by atomic rename, the SQLite store by transactional
journaling.  Selection happens per :class:`ResultCache` via the
``backend=`` argument, the ``--cache-backend`` CLI flag, or the
``REPRO_CACHE_BACKEND`` environment variable.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable

from repro.obs.log import get_logger
from repro.obs.metrics import counter_inc, timing_observe

_log = get_logger("store")

__all__ = [
    "BACKENDS",
    "CACHE_BACKEND_ENV",
    "CacheStats",
    "FilesystemStore",
    "ResultStore",
    "ScenarioStats",
    "SQLiteStore",
    "make_store",
    "resolve_backend",
]

#: Environment variable selecting the cache backend.
CACHE_BACKEND_ENV = "REPRO_CACHE_BACKEND"

#: Recognized backend names.
BACKENDS = ("filesystem", "sqlite")


def resolve_backend(backend: str | None = None) -> str:
    """Which store backend to use.

    Explicit ``backend`` wins; otherwise ``REPRO_CACHE_BACKEND`` from
    the environment; otherwise the filesystem layout (the historical
    default -- existing caches keep working untouched).  Both paths are
    normalized identically (stripped, lowercased): ``backend="SQLite"``
    and ``REPRO_CACHE_BACKEND=SQLite`` select the same store.
    """
    if backend is None:
        backend = os.environ.get(CACHE_BACKEND_ENV, "")
    backend = backend.strip().lower() or "filesystem"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; expected one of {BACKENDS} "
            f"(set via backend=, --cache-backend, or {CACHE_BACKEND_ENV})"
        )
    return backend


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

    backend: str
    location: str
    entries: int
    bytes: int
    scenarios: tuple[ScenarioStats, ...]


@runtime_checkable
class ResultStore(Protocol):
    """What a campaign cache backend must answer.

    Keys are pure content addresses (scenario hash, unit hash); values
    are the JSON-serializable per-unit result dicts the runners reduce.
    Every method must be safe against a concurrent reader and against
    the process dying mid-call -- a partial write can never surface as
    a corrupt entry, only as an absent one.
    """

    def get(self, scenario_hash: str, key: str) -> dict | None:
        """The stored result of one unit, or None if absent/unreadable."""
        ...

    def put(
        self,
        scenario_hash: str,
        key: str,
        coords: dict,
        result: dict,
        manifest: dict | None = None,
    ) -> None:
        """Persist one completed unit atomically (upsert semantics)."""
        ...

    def cached_keys(self, scenario_hash: str, keys: Iterable[str]) -> set[str]:
        """Which of ``keys`` the store already holds.

        Implementations must answer from one membership query per call
        (a directory listing, an indexed SELECT) -- never one metadata
        operation per key, which is what made status checks on large
        campaigns quadratic-feeling.
        """
        ...

    def stats(self) -> CacheStats:
        """Entries, bytes, and per-scenario counts for ``repro cache stats``."""
        ...

    def namespace_names(self) -> dict[str, str]:
        """Scenario hash -> manifest name for every namespace held.

        The cheap lookup ``cache prune --scenario`` needs: reads only
        the manifests (one file per namespace / one table scan), never
        the unit entries -- :meth:`stats` at fleet unit counts would
        stat the world just to resolve a name.
        """
        ...

    def prune(self, scenario_hashes: Iterable[str] | None = None) -> int:
        """Drop whole scenario namespaces (``None`` = everything).

        Returns how many unit entries were removed.
        """
        ...

    def progress_publish(
        self, scenario_hash: str, source: str, payload: dict, now: float
    ) -> None:
        """Replace one source's live progress snapshot (best-effort).

        Snapshots are advisory telemetry (:mod:`repro.obs.progress`):
        they must never appear where cached results are fingerprinted,
        so both backends keep them outside the unit namespaces.
        """
        ...

    def progress_read(
        self, scenario_hash: str
    ) -> list[tuple[str, dict, float]]:
        """Every source's latest snapshot: (source, payload, updated_at)."""
        ...


# ----------------------------------------------------------------------
# Filesystem backend (the historical on-disk layout, byte-identical)
# ----------------------------------------------------------------------


class FilesystemStore:
    """One directory per scenario hash, one JSON file per unit."""

    backend = "filesystem"

    def __init__(self, root: Path | str):
        self.root = Path(root)

    # -- paths ----------------------------------------------------------

    def scenario_dir(self, scenario_hash: str) -> Path:
        return self.root / scenario_hash

    def _unit_path(self, scenario_hash: str, key: str) -> Path:
        return self.scenario_dir(scenario_hash) / f"{key}.json"

    # -- protocol -------------------------------------------------------

    def get(self, scenario_hash: str, key: str) -> dict | None:
        path = self._unit_path(scenario_hash, key)
        start = time.perf_counter()
        try:
            text = path.read_text()
            payload = json.loads(text)
        # ValueError covers JSONDecodeError and UnicodeDecodeError alike:
        # any unreadable entry (truncated write, disk corruption, stray
        # binary) must look absent, never crash the resume.
        except (OSError, ValueError):
            counter_inc("store.filesystem.get_miss")
            return None
        finally:
            timing_observe(
                "store.filesystem.get", time.perf_counter() - start
            )
        if not isinstance(payload, dict) or "result" not in payload:
            counter_inc("store.filesystem.get_miss")
            return None
        counter_inc("store.filesystem.get_hit")
        counter_inc("store.filesystem.read_bytes", len(text))
        return payload["result"]

    def put(
        self,
        scenario_hash: str,
        key: str,
        coords: dict,
        result: dict,
        manifest: dict | None = None,
    ) -> None:
        start = time.perf_counter()
        directory = self.scenario_dir(scenario_hash)
        directory.mkdir(parents=True, exist_ok=True)
        if manifest is not None:
            self._write_manifest(directory, manifest)
        payload = {"coords": coords, "result": result}
        path = self._unit_path(scenario_hash, key)
        tmp = path.with_suffix(".json.tmp")
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        tmp.write_text(text)
        os.replace(tmp, path)
        counter_inc("store.filesystem.put")
        counter_inc("store.filesystem.write_bytes", len(text))
        timing_observe("store.filesystem.put", time.perf_counter() - start)

    def cached_keys(self, scenario_hash: str, keys: Iterable[str]) -> set[str]:
        """Membership from ONE directory listing, not a stat per key.

        A million-unit campaign's status check must not issue a million
        ``Path.exists`` calls; a single ``scandir`` of the scenario
        namespace answers every key at once.  Present-but-corrupt
        entries (possible only from external tampering -- writes are
        atomic) are reported as cached here and recomputed lazily when
        :meth:`get` actually reads them.
        """
        try:
            with os.scandir(self.scenario_dir(scenario_hash)) as entries:
                present = {entry.name for entry in entries}
        except OSError:
            return set()
        return {key for key in keys if f"{key}.json" in present}

    def stats(self) -> CacheStats:
        scenarios: list[ScenarioStats] = []
        total_entries = 0
        total_bytes = 0
        if self.root.is_dir():
            for scenario_dir in sorted(self.root.iterdir()):
                if not scenario_dir.is_dir():
                    continue
                name = ""
                entries = 0
                n_bytes = 0
                for path in scenario_dir.iterdir():
                    try:
                        size = path.stat().st_size
                    except OSError:
                        continue
                    n_bytes += size
                    if path.name == "scenario.json":
                        name = self._manifest_name(path)
                    elif path.suffix == ".json":
                        entries += 1
                scenarios.append(
                    ScenarioStats(scenario_dir.name, name, entries, n_bytes)
                )
                total_entries += entries
                total_bytes += n_bytes
        return CacheStats(
            backend=self.backend,
            location=str(self.root),
            entries=total_entries,
            bytes=total_bytes,
            scenarios=tuple(scenarios),
        )

    def namespace_names(self) -> dict[str, str]:
        names: dict[str, str] = {}
        if self.root.is_dir():
            for scenario_dir in self.root.iterdir():
                if scenario_dir.is_dir():
                    names[scenario_dir.name] = self._manifest_name(
                        scenario_dir / "scenario.json"
                    )
        return names

    def prune(self, scenario_hashes: Iterable[str] | None = None) -> int:
        import shutil

        if scenario_hashes is None:
            if not self.root.is_dir():
                return 0
            scenario_hashes = [
                p.name for p in self.root.iterdir() if p.is_dir()
            ]
        removed = 0
        for scenario_hash in scenario_hashes:
            directory = self.scenario_dir(scenario_hash)
            if not directory.is_dir():
                continue
            removed += sum(
                1
                for p in directory.iterdir()
                if p.suffix == ".json" and p.name != "scenario.json"
            )
            shutil.rmtree(directory)
        return removed

    # -- live progress (repro.obs.progress) ----------------------------

    def _progress_dir(self, scenario_hash: str) -> Path:
        # Deliberately *inside* runs/: everything that fingerprints
        # cached results (bit-identity digests, scenario namespaces)
        # already excludes the runs/ tree, and a dotted name keeps the
        # run-discovery scan from ever mistaking it for a run.
        return self.root / "runs" / ".progress" / scenario_hash

    def progress_publish(
        self, scenario_hash: str, source: str, payload: dict, now: float
    ) -> None:
        directory = self._progress_dir(scenario_hash)
        directory.mkdir(parents=True, exist_ok=True)
        safe = "".join(
            ch if ch.isalnum() or ch in "-._" else "_" for ch in source
        ) or "source"
        path = directory / f"{safe}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(
            {"source": source, "updated_at": now, "payload": payload},
            sort_keys=True,
        ) + "\n")
        os.replace(tmp, path)

    def progress_read(
        self, scenario_hash: str
    ) -> list[tuple[str, dict, float]]:
        directory = self._progress_dir(scenario_hash)
        snapshots: list[tuple[str, dict, float]] = []
        try:
            entries = sorted(directory.iterdir())
        except OSError:
            return snapshots
        for path in entries:
            if path.suffix != ".json":
                continue
            try:
                body = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # torn or foreign file: advisory data, skip
            if not isinstance(body, dict):
                continue
            payload = body.get("payload")
            if not isinstance(payload, dict):
                continue
            source = body.get("source")
            snapshots.append((
                source if isinstance(source, str) else path.stem,
                payload,
                float(body.get("updated_at", 0.0)),
            ))
        return snapshots

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _manifest_name(path: Path) -> str:
        try:
            body = json.loads(path.read_text())
        except (OSError, ValueError):
            return ""
        name = body.get("name", "") if isinstance(body, dict) else ""
        return name if isinstance(name, str) else ""

    def _write_manifest(self, directory: Path, manifest: dict) -> None:
        """A human-readable record of what this namespace holds."""
        target = directory / "scenario.json"
        if target.exists():
            return
        tmp = target.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, target)


# ----------------------------------------------------------------------
# SQLite backend (one file, WAL, atomic upserts)
# ----------------------------------------------------------------------


class SQLiteStore:
    """All unit results of one cache root in a single SQLite file.

    Designed for the fleet workloads: 10^5-10^6 unit upserts into one
    WAL-journaled file beat a million-file directory on every axis that
    matters here (put throughput, membership queries, prune, backup).
    The schema is two tables -- ``units`` keyed by (scenario hash, unit
    key) and ``scenarios`` holding the human-readable manifests -- and
    every write is one transaction, so a SIGKILL mid-run loses at most
    the in-flight unit, exactly like the filesystem backend's atomic
    rename.

    Two further tables back distributed execution
    (:mod:`repro.campaigns.queue`): ``queue`` holds the planned units a
    campaign fanned out, ``leases`` the in-flight claims.  A claim is
    decided by a single ``INSERT OR IGNORE`` into ``leases`` -- two
    workers racing for one unit are resolved by the database's primary
    key, never by clock comparison in Python -- and an expired lease
    (crashed worker) is reaped and re-claimable by anyone.
    """

    backend = "sqlite"

    #: File name inside the cache root (shares the root with any
    #: filesystem-backend namespaces without colliding).
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

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- protocol -------------------------------------------------------

    def get(self, scenario_hash: str, key: str) -> dict | None:
        # Reads never create the database (a status query on a fresh
        # root must not leave results.sqlite + WAL files behind, and
        # must work under a read-only parent); OSError covers the
        # mkdir/open failures sqlite3.Error does not.
        if self._conn is None and not self.path.exists():
            counter_inc("store.sqlite.get_miss")
            return None
        start = time.perf_counter()
        try:
            row = self._read_unit_row(scenario_hash, key)
        except (sqlite3.Error, OSError) as exc:
            # A locked or corrupt database is NOT a cache miss: the
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
        if self._conn is None and not self.path.exists():
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
            backend=self.backend,
            location=str(self.path),
            entries=total_entries,
            bytes=total_bytes,
            scenarios=tuple(scenarios),
        )

    def namespace_names(self) -> dict[str, str]:
        if self._conn is None and not self.path.exists():
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
        if self._conn is None and not self.path.exists():
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
        if self._conn is None and not self.path.exists():
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


def make_store(root: Path | str, backend: str | None = None) -> ResultStore:
    """Construct the store for a cache root (see :func:`resolve_backend`)."""
    resolved = resolve_backend(backend)
    if resolved == "sqlite":
        return SQLiteStore(root)
    return FilesystemStore(root)
