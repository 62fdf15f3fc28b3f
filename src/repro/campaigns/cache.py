"""Content-addressed cache of per-unit campaign results.

Keys are pure content addresses: the scenario hash digests the
scenario's execution payload (seed included), the unit hash digests the
unit's coordinates in the deterministic work plan.  Because every work
unit's RNG stream is a function of exactly those inputs, a cache hit is
guaranteed to hold the same numbers a fresh evaluation would produce --
so re-runs are incremental and an interrupted campaign resumes instead
of restarting.

Invalidation needs no bookkeeping: changing any execution parameter
changes the scenario hash, which lands in a fresh, empty namespace.

Storage is one :class:`~repro.campaigns.store.SQLiteStore` per cache
root: every unit lives in ``<root>/results.sqlite``, written one
transaction per unit, so a run killed mid-write never leaves a corrupt
entry.  Old one-JSON-file-per-unit directories in a root are ignored;
their units recompute into the database.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.campaigns.store import CacheStats, SQLiteStore

if TYPE_CHECKING:
    from repro.campaigns.spec import Scenario

__all__ = ["ResultCache", "default_cache_dir", "unit_hash"]

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``REPRO_CACHE_DIR`` or ``.repro-cache/`` in cwd."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(raw) if raw else Path(".repro-cache")


def check_store_name(backend: str | None) -> None:
    """Accept the store names callers may still pass: ``None``/``"sqlite"``.

    A compatibility shim for the ``cache_backend`` keyword of
    :class:`~repro.campaigns.runner.CampaignRunner` and
    :func:`~repro.campaigns.worker.run_worker`; SQLite is the only
    store.
    """
    if backend not in (None, "sqlite"):
        raise ValueError(
            f"unknown cache backend {backend!r}: the filesystem layout was "
            "removed, and every cache root now uses results.sqlite"
        )


def unit_hash(coords: dict) -> str:
    """Content address of one work unit inside its scenario namespace.

    ``coords`` are the unit's plan coordinates (grid point, chunk index,
    trial count) -- everything that, together with the scenario payload,
    determines its RNG stream and therefore its result.
    """
    canonical = json.dumps(coords, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class ResultCache:
    """Per-unit result cache rooted at one directory.

    The scenario-aware façade over the root's
    :class:`~repro.campaigns.store.SQLiteStore`: it owns content
    addressing (scenario hashes, manifests) and delegates persistence.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.store = SQLiteStore(self.root)

    def get(self, scenario: Scenario, key: str) -> dict | None:
        """The stored result of one unit, or None if absent/unreadable."""
        return self.store.get(scenario.scenario_hash(), key)

    def put(
        self, scenario: Scenario, key: str, coords: dict, result: dict
    ) -> None:
        """Persist one completed unit atomically."""
        manifest = {
            "name": scenario.name,
            "title": scenario.title,
            "payload": scenario.payload(),
        }
        self.store.put(
            scenario.scenario_hash(), key, coords, result, manifest=manifest
        )

    def cached_keys(self, scenario: Scenario, keys: list[str]) -> set[str]:
        """Which of ``keys`` the store already holds.

        One indexed SELECT per call, never a lookup per key -- the
        difference between an instant and an unusable ``repro status``
        on a 10^5-unit fleet campaign.
        """
        return self.store.cached_keys(scenario.scenario_hash(), keys)

    def stats(self) -> CacheStats:
        """Entries, bytes, and per-scenario counts of this cache root."""
        return self.store.stats()

    def prune(self, scenario_hashes: list[str] | None = None) -> int:
        """Drop whole scenario namespaces (``None`` = everything)."""
        return self.store.prune(scenario_hashes)
