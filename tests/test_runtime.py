"""Tests for the batched Monte-Carlo runtime."""

import numpy as np
import pytest

from repro.runtime import (
    SweepExecutor,
    chunk_sizes,
    resolve_workers,
    spawn_seed_sequences,
)
from repro.runtime.seeding import unit_seed_sequence


def _square(x: int) -> int:
    return x * x


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers() == 4

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(2) == 2

    def test_zero_means_serial(self):
        assert resolve_workers(0) == 1

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_rejects_float_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2.5")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_rejects_negative_env(self, monkeypatch):
        """A negative env value must name the variable, not raise a bare
        'workers cannot be negative' with no hint where it came from."""
        monkeypatch.setenv("REPRO_WORKERS", "-2")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_whitespace_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "   ")
        assert resolve_workers() == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_rejects_non_integer_workers(self):
        with pytest.raises(ValueError, match="integer"):
            resolve_workers(2.5)


class TestSweepExecutor:
    def test_serial_map_preserves_order(self):
        serial = SweepExecutor(1).imap(_square, range(7))
        assert list(serial) == [x * x for x in range(7)]

    def test_parallel_map_matches_serial(self):
        units = list(range(11))
        serial = list(SweepExecutor(1).imap(_square, units))
        parallel = list(SweepExecutor(2).imap(_square, units))
        assert parallel == serial

    def test_empty_units(self):
        assert list(SweepExecutor(2).imap(_square, [])) == []

    def test_parallel_flag(self):
        assert not SweepExecutor(1).parallel
        assert SweepExecutor(3).parallel

    def test_imap_streams_in_submission_order(self):
        executor = SweepExecutor(1)
        streamed = executor.imap(_square, range(5))
        assert next(streamed) == 0
        assert list(streamed) == [1, 4, 9, 16]

    def test_pool_session_reuses_one_pool_across_calls(self):
        executor = SweepExecutor(2)
        units = list(range(9))
        with executor.pool_session():
            first_pool = executor._pool
            assert first_pool is not None
            a = list(executor.imap(_square, units))
            assert executor._pool is first_pool  # reused, not respawned
            b = list(executor.imap(_square, units))
        assert executor._pool is None  # torn down on exit
        assert a == b == [x * x for x in units]

    def test_pool_session_noop_in_serial_mode(self):
        executor = SweepExecutor(1)
        with executor.pool_session():
            assert executor._pool is None
            assert list(executor.imap(_square, [3])) == [9]


class _RecordingPool:
    """ProcessPoolExecutor stand-in counting every map() call."""

    calls = 0

    def __init__(self, max_workers=None, initializer=None):
        pass

    def map(self, fn, units):
        _RecordingPool.calls += 1
        return (fn(u) for u in units)

    def shutdown(self, wait=True):
        pass


def test_serial_mode_never_touches_the_pool(monkeypatch):
    _RecordingPool.calls = 0
    monkeypatch.setattr(
        "repro.runtime.executor.ProcessPoolExecutor", _RecordingPool
    )
    assert list(SweepExecutor(1).imap(_square, range(8))) == [
        x * x for x in range(8)
    ]
    assert _RecordingPool.calls == 0
    # The stand-in is live: the same map at two workers goes through it.
    list(SweepExecutor(2).imap(_square, range(8)))
    assert _RecordingPool.calls == 1


class TestChunkSizes:
    def test_none_keeps_one_block(self):
        assert chunk_sizes(40, None) == [40]

    def test_even_split(self):
        assert chunk_sizes(40, 10) == [10, 10, 10, 10]

    def test_remainder_chunk(self):
        assert chunk_sizes(25, 10) == [10, 10, 5]

    def test_oversized_chunk(self):
        assert chunk_sizes(8, 100) == [8]

    def test_zero_trials(self):
        assert chunk_sizes(0, 10) == []

    def test_rejects_nonpositive_chunk(self):
        with pytest.raises(ValueError):
            chunk_sizes(10, 0)

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError):
            chunk_sizes(-1, None)


class TestSeeding:
    def test_unit_streams_are_reproducible(self):
        a = np.random.default_rng(unit_seed_sequence(7, (3, 1))).random(4)
        b = np.random.default_rng(unit_seed_sequence(7, (3, 1))).random(4)
        assert np.array_equal(a, b)

    def test_unit_streams_differ_across_keys(self):
        a = np.random.default_rng(unit_seed_sequence(7, (3, 1))).random(4)
        b = np.random.default_rng(unit_seed_sequence(7, (3, 2))).random(4)
        assert not np.array_equal(a, b)

    def test_spawn_rngs_independent(self):
        rngs = [np.random.default_rng(s) for s in spawn_seed_sequences(0, 3)]
        draws = [r.random(8) for r in rngs]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_accepts_seed_sequence(self):
        root = np.random.SeedSequence(5)
        children = spawn_seed_sequences(root, 2)
        assert len(children) == 2

    def test_spawn_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)
