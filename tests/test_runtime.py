"""Tests for the batched Monte-Carlo runtime."""

import numpy as np
import pytest

from repro.runtime import (
    SweepExecutor,
    chunk_sizes,
    resolve_workers,
    spawn_rngs,
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
        assert SweepExecutor(1).map(_square, range(7)) == [x * x for x in range(7)]

    def test_parallel_map_matches_serial(self):
        units = list(range(11))
        serial = SweepExecutor(1).map(_square, units)
        parallel = SweepExecutor(2).map(_square, units)
        assert parallel == serial

    def test_empty_units(self):
        assert SweepExecutor(2).map(_square, []) == []

    def test_parallel_flag(self):
        assert not SweepExecutor(1).parallel
        assert SweepExecutor(3).parallel

    def test_rejects_bad_chunksize(self):
        with pytest.raises(ValueError):
            SweepExecutor(1, chunksize=0)

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
            b = executor.map(_square, units)
        assert executor._pool is None  # torn down on exit
        assert a == b == [x * x for x in units]

    def test_pool_session_noop_in_serial_mode(self):
        executor = SweepExecutor(1)
        with executor.pool_session():
            assert executor._pool is None
            assert executor.map(_square, [3]) == [9]


class _RecordingPool:
    """ProcessPoolExecutor stand-in capturing every map()'s chunksize."""

    calls: list[int] = []

    def __init__(self, max_workers=None, initializer=None):
        pass

    def map(self, fn, units, chunksize=None):
        _RecordingPool.calls.append(chunksize)
        return (fn(u) for u in units)

    def shutdown(self, wait=True):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class TestChunksizeForwarding:
    """Both parallel paths (one-shot pool and pool_session) must hand the
    constructor's chunksize to every pool map call -- a batching setting
    that silently applies on one entry point but not the other corrupts
    perf comparisons without changing results."""

    @pytest.fixture(autouse=True)
    def _stub_pool(self, monkeypatch):
        _RecordingPool.calls = []
        monkeypatch.setattr(
            "repro.runtime.executor.ProcessPoolExecutor", _RecordingPool
        )

    def test_map_forwards_chunksize_one_shot_pool(self):
        SweepExecutor(2, chunksize=5).map(_square, range(8))
        assert _RecordingPool.calls == [5]

    def test_imap_forwards_chunksize_one_shot_pool(self):
        list(SweepExecutor(2, chunksize=3).imap(_square, range(8)))
        assert _RecordingPool.calls == [3]

    def test_pool_session_forwards_chunksize_every_call(self):
        executor = SweepExecutor(2, chunksize=7)
        with executor.pool_session():
            executor.map(_square, range(8))
            list(executor.imap(_square, range(8)))
        assert _RecordingPool.calls == [7, 7]

    def test_serial_mode_never_touches_the_pool(self):
        SweepExecutor(1, chunksize=9).map(_square, range(8))
        assert _RecordingPool.calls == []


class TestChunksizeValidation:
    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="chunksize"):
            SweepExecutor(1, chunksize=0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="chunksize"):
            SweepExecutor(2, chunksize=-3)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match="chunksize"):
            SweepExecutor(1, chunksize=True)

    def test_rejects_float(self):
        with pytest.raises(ValueError, match="chunksize"):
            SweepExecutor(1, chunksize=2.0)

    def test_validated_even_in_serial_mode(self):
        """The same constructor args must be legal at any worker count."""
        with pytest.raises(ValueError, match="chunksize"):
            SweepExecutor(1, chunksize=-1)


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
        rngs = spawn_rngs(0, 3)
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
