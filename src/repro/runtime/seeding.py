"""Deterministic RNG streams for sharded Monte-Carlo work.

The contract every sweep in this repo relies on: a work unit's random
stream depends only on the sweep's root seed and the unit's position in
the deterministic work plan -- never on which worker ran it or in what
order.  :class:`numpy.random.SeedSequence` gives exactly that: spawning
children of a root sequence yields independent, reproducible streams.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ROUND_SPAWN_NAMESPACE",
    "chunk_sizes",
    "round_seed_sequence",
    "spawn_seed_sequences",
    "unit_seed_sequence",
]

#: First spawn-key word of every *round* work unit (adaptive-precision
#: execution).  Fixed-plan units use 2-element spawn keys, round units
#: 4-element keys starting with this constant, so the two families can
#: never alias each other's RNG streams -- an adaptive run at a cache
#: warm with fixed-run results draws statistically fresh trials.
ROUND_SPAWN_NAMESPACE = 0x0AD0


def unit_seed_sequence(
    root_seed: int, spawn_key: tuple[int, ...]
) -> np.random.SeedSequence:
    """The seed sequence of one work unit of a sweep.

    ``spawn_key`` is the unit's coordinates in the work plan (e.g.
    ``(location_index, chunk_index)``); two distinct keys give
    statistically independent streams, and the same key always gives the
    same stream regardless of worker count or execution order.
    """
    return np.random.SeedSequence(root_seed, spawn_key=spawn_key)


def round_seed_sequence(
    root_seed: int, cell: int, round_index: int, chunk_index: int = 0
) -> np.random.SeedSequence:
    """The seed sequence of one round unit of an adaptive run.

    ``cell`` is an integer identifying the grid point (a location index,
    or a position along a non-integer axis), ``round_index`` the
    submission round.  The stream depends only on those coordinates --
    never on which cells are still active, the round's trial count, or
    worker scheduling -- so an adaptive run resumed from cache replays
    exactly the trials the uninterrupted run would have drawn.
    """
    if round_index < 0:
        raise ValueError(f"round_index cannot be negative, got {round_index}")
    return np.random.SeedSequence(
        root_seed,
        spawn_key=(ROUND_SPAWN_NAMESPACE, cell, round_index, chunk_index),
    )


def spawn_seed_sequences(
    root: int | np.random.SeedSequence, n: int
) -> list[np.random.SeedSequence]:
    """``n`` independent child sequences of a root seed."""
    if n < 0:
        raise ValueError("cannot spawn a negative number of streams")
    if not isinstance(root, np.random.SeedSequence):
        root = np.random.SeedSequence(root)
    return root.spawn(n)


def chunk_sizes(n_trials: int, chunk_size: int | None) -> list[int]:
    """Split ``n_trials`` into the per-chunk trial counts of the work plan.

    ``chunk_size=None`` keeps the whole trial block as one unit (the
    per-location granularity the figure sweeps parallelise over); any
    other value shards trials so one location's block can itself spread
    across workers.
    """
    if n_trials < 0:
        raise ValueError("n_trials cannot be negative")
    if chunk_size is None or chunk_size >= n_trials:
        return [n_trials] if n_trials else []
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    sizes = [chunk_size] * (n_trials // chunk_size)
    if n_trials % chunk_size:
        sizes.append(n_trials % chunk_size)
    return sizes
