"""Process-pool fan-out for independent Monte-Carlo work units.

A sweep is a list of self-contained work units (picklable specs) plus a
module-level function that evaluates one unit.  :class:`SweepExecutor`
runs that map either serially (the default: zero overhead, exact
reproducibility, no subprocess machinery) or across a process pool when
the caller -- or the ``REPRO_WORKERS`` environment variable -- asks for
parallelism.  Results always come back in submission order, so callers
never see worker scheduling: a parallel run reduces to exactly the same
output as a serial one.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

from repro.obs.metrics import counter_inc, take_global

__all__ = ["SweepExecutor", "resolve_workers"]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable that opts a sweep into parallel execution.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None = None) -> int:
    """How many worker processes a sweep should use.

    Explicit ``workers`` wins; otherwise ``REPRO_WORKERS`` from the
    environment; otherwise 1 (serial).  ``0`` and ``1`` both mean serial.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be a non-negative integer "
                f"(e.g. REPRO_WORKERS=4), got {raw!r}"
            ) from None
        if workers < 0:
            raise ValueError(
                f"{WORKERS_ENV} cannot be negative, got {raw!r}"
            )
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be an integer, got {workers!r}")
    if workers < 0:
        raise ValueError(f"workers cannot be negative (got {workers})")
    return max(1, workers)


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers start with empty metrics.

    A forked worker inherits the parent's process-local accumulator;
    resetting it keeps the parent's counts from riding back in the
    worker's first per-unit delta.
    """
    return ProcessPoolExecutor(max_workers=max_workers, initializer=take_global)


class SweepExecutor:
    """Order-preserving map over independent work units.

    Parameters
    ----------
    workers:
        Worker process count; ``None`` defers to ``REPRO_WORKERS`` and
        defaults to serial.  Serial execution runs in-process with no
        pool, so it stays the determinism reference.
    """

    def __init__(self, workers: int | None = None):
        self.workers = resolve_workers(workers)
        self._pool: ProcessPoolExecutor | None = None

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    @contextmanager
    def pool_session(self):
        """Keep one process pool alive across consecutive map/imap calls.

        One-shot sweeps pay pool startup once and tear it down with the
        call -- fine.  Round-based callers (the adaptive scheduler) map
        many small batches back to back, and spawning fresh worker
        processes (process start-up, plus each import a worker does not
        inherit from its parent) every round can rival the round's
        actual work; inside this context the pool is created once and
        shut down on exit.  A no-op in serial mode, and re-entrant (an
        inner session reuses the outer pool).
        """
        if not self.parallel or self._pool is not None:
            yield self
            return
        counter_inc("executor.pool_sessions")
        self._pool = _new_pool(self.workers)
        try:
            yield self
        finally:
            pool, self._pool = self._pool, None
            pool.shutdown(wait=True)

    def map(self, fn: Callable[[T], R], units: Iterable[T]) -> list[R]:
        """Evaluate ``fn`` on every unit, returning results in unit order.

        In parallel mode ``fn`` and the units must be picklable
        (module-level function plus plain-data specs).  Because every
        unit carries its own RNG stream, the output is identical in both
        modes.
        """
        return list(self.imap(fn, units))

    def imap(self, fn: Callable[[T], R], units: Iterable[T]) -> Iterator[R]:
        """Streaming :meth:`map`: yield each result as soon as it exists.

        Results still arrive in submission order, so consumers see the
        same sequence either way -- but a caller that persists or reacts
        per unit (cache flushes, adaptive round bookkeeping) no longer
        waits for the whole batch.  An interrupt therefore loses at most
        the units still in flight, in serial *and* parallel mode alike.
        Closing the iterator early shuts the pool down cleanly.
        """
        units = list(units)
        if not self.parallel or len(units) <= 1:
            counter_inc("executor.serial_units", len(units))
            for unit in units:
                yield fn(unit)
            return
        counter_inc("executor.pool_units", len(units))
        # Inside a pool_session the session's pool serves this call;
        # otherwise a one-shot pool, sized to the work, lives for it.
        pool = self._pool or _new_pool(min(self.workers, len(units)))
        try:
            for result in pool.map(fn, units):
                yield result
        finally:
            if pool is not self._pool:
                pool.shutdown(wait=True)
