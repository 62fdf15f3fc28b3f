"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns.cache import ResultCache
from repro.campaigns.runner import evaluate_unit, plan_scenario_units
from repro.campaigns.store import SQLiteStore
from repro.phy.fsk import FSKConfig
from repro.protocol.packets import PacketCodec


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG; tests must not depend on global random state."""
    return np.random.default_rng(1234)


@pytest.fixture
def fsk_config() -> FSKConfig:
    return FSKConfig()


@pytest.fixture
def codec() -> PacketCodec:
    return PacketCodec()


@pytest.fixture
def serial() -> bytes:
    return bytes(range(10))


def _results_digest(root: Path) -> str:
    """sha256 over every result row of a cache root's store.

    Covers the ``units`` and ``scenarios`` tables -- everything a
    campaign reduces from.  The database file itself is not
    byte-comparable across runs: queue, lease and progress rows carry
    wall-clock stamps, and the ``-wal``/``-shm`` files differ.
    """
    path = Path(root) / SQLiteStore.FILENAME
    assert path.is_file(), f"no cache store at {path}"
    conn = sqlite3.connect(path)
    try:
        rows = list(conn.execute(
            "SELECT scenario_hash, unit_key, coords, result FROM units"
            " ORDER BY scenario_hash, unit_key"
        ))
        rows += list(conn.execute(
            "SELECT scenario_hash, manifest FROM scenarios"
            " ORDER BY scenario_hash"
        ))
    finally:
        conn.close()
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _cached_unit_count(root: Path) -> int:
    """How many units a cache root holds, read-only: 0 until the store
    exists.  Safe to poll while another process writes."""
    uri = (Path(root) / SQLiteStore.FILENAME).absolute().as_uri()
    try:
        conn = sqlite3.connect(f"{uri}?mode=ro", uri=True)
    except sqlite3.Error:
        return 0
    try:
        return conn.execute("SELECT COUNT(*) FROM units").fetchone()[0]
    except sqlite3.Error:  # not created yet, or mid-creation
        return 0
    finally:
        conn.close()


@pytest.fixture
def results_digest():
    """The content digest of a cache root's results (see above)."""
    return _results_digest


@pytest.fixture
def cached_unit_count():
    """A read-only probe of how many units a cache root holds."""
    return _cached_unit_count


def _cache_first_units(scenario, cache_dir, k: int) -> int:
    """Cache a scenario's first ``k`` planned units, as a run that was
    cut short leaves them; returns ``k``."""
    cache = ResultCache(cache_dir)
    for unit in plan_scenario_units(scenario)[:k]:
        cache.put(scenario, unit.key, unit.coords, evaluate_unit(unit.spec))
    return k


@pytest.fixture
def cache_first_units():
    """Build a partly cached campaign (see above)."""
    return _cache_first_units
