"""Batched Monte-Carlo execution engine.

Every headline result in the paper is a Monte-Carlo sweep: N trials per
location over 14-18 locations.  This package is the shared runtime those
sweeps run on:

* :mod:`repro.runtime.seeding` -- deterministic per-unit RNG streams
  derived from :class:`numpy.random.SeedSequence`, so a sweep sharded
  across workers draws exactly the statistics a serial run draws;
* :mod:`repro.runtime.executor` -- :class:`SweepExecutor`, which fans
  independent (location, trial-chunk) work units across a process pool
  (opt-in via ``REPRO_WORKERS`` or ``workers=``; serial by default) and
  reassembles results in submission order, pickled over the pool's
  pipes.

The campaign runner (:mod:`repro.campaigns.runner`) and the waveform
lab (:mod:`repro.experiments.waveform_lab`) are built on top of these
primitives; future scaling work (sharding, caching, multi-backend)
should plug in here rather than into individual experiments.
"""

from repro.runtime.executor import SweepExecutor, resolve_workers
from repro.runtime.seeding import (
    chunk_sizes,
    round_seed_sequence,
    spawn_seed_sequences,
)

__all__ = [
    "SweepExecutor",
    "resolve_workers",
    "chunk_sizes",
    "round_seed_sequence",
    "spawn_seed_sequences",
]
