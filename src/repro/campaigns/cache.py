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

Storage is pluggable (:mod:`repro.campaigns.store`): the default
filesystem backend keeps the historical one-JSON-file-per-unit layout
(atomic temp-file + ``os.replace`` writes, so a run killed mid-write
never leaves a corrupt entry), while the SQLite backend packs every
unit of a cache root into one WAL-journaled file -- the layout
population-scale fleet campaigns need, where 10^5-10^6 tiny files
would collapse the filesystem.  Select with ``backend=``, the
``--cache-backend`` CLI flag, or ``REPRO_CACHE_BACKEND``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.campaigns.store import (
    CacheStats,
    FilesystemStore,
    ResultStore,
    make_store,
    resolve_backend,
)

if TYPE_CHECKING:
    from repro.campaigns.spec import Scenario

__all__ = ["ResultCache", "default_cache_dir", "unit_hash"]

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root: ``REPRO_CACHE_DIR`` or ``.repro-cache/`` in cwd."""
    raw = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(raw) if raw else Path(".repro-cache")


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

    The scenario-aware façade over a :class:`~repro.campaigns.store`
    backend: it owns content addressing (scenario hashes, manifests)
    and delegates persistence, so runners never see which layout holds
    their units.
    """

    def __init__(self, root: Path | str, backend: str | None = None):
        self.root = Path(root)
        self.backend = resolve_backend(backend)
        self.store: ResultStore = make_store(self.root, self.backend)

    def scenario_dir(self, scenario: Scenario) -> Path:
        """The filesystem namespace of a scenario (filesystem backend).

        Kept for the filesystem layout's tooling and tests; the SQLite
        backend has no per-scenario directory and raises here.
        """
        if not isinstance(self.store, FilesystemStore):
            raise ValueError(
                f"the {self.backend!r} backend has no per-scenario directory"
            )
        return self.store.scenario_dir(scenario.scenario_hash())

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

        One membership query per call (a single directory listing or
        indexed SELECT), never a filesystem stat per key -- the
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
