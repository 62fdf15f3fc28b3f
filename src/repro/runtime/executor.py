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
from functools import partial
from typing import Callable, Iterable, Iterator, TypeVar

from repro.obs.metrics import counter_inc, observed_call, take_global
from repro.runtime.transport import (
    DEFAULT_MIN_BYTES,
    decode_payload,
    encode_payload,
    resolve_transport,
    shm_call,
)

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
    chunksize:
        Batch size for shipping units to the pool.  Both :meth:`map` and
        :meth:`imap` forward it to every
        :meth:`concurrent.futures.ProcessPoolExecutor.map` call --
        one-shot pools and :meth:`pool_session` pools alike -- so the
        pool-side batching never depends on which entry point ran the
        sweep.  Irrelevant in serial mode (validated anyway: the same
        constructor arguments must be legal at any worker count).
    transport:
        How unit payloads travel to and from workers: ``"pickle"``,
        ``"shm"`` (ndarrays ride ``multiprocessing.shared_memory``
        blocks), or ``"auto"`` (shared memory only for payloads whose
        arrays exceed the size threshold).  ``None`` defers to
        ``REPRO_TRANSPORT``, defaulting to ``auto``.  The transport
        never changes results -- only copies.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunksize: int = 1,
        transport: str | None = None,
    ):
        self.workers = resolve_workers(workers)
        if isinstance(chunksize, bool) or not isinstance(chunksize, int):
            raise ValueError(
                f"chunksize must be an integer, got {chunksize!r}"
            )
        if chunksize < 1:
            raise ValueError(
                f"chunksize must be at least 1, got {chunksize}"
            )
        self.chunksize = chunksize
        self.transport = resolve_transport(transport)
        self._pool: ProcessPoolExecutor | None = None
        #: Optional per-unit completion hook: called (no arguments,
        #: exceptions swallowed) once per result :meth:`imap` yields,
        #: serial and pooled alike.  The campaign runner points this at
        #: its live progress publisher; anything observing a sweep can
        #: use it -- by contract the hook must never influence results.
        self.unit_callback: Callable[[], None] | None = None

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
                result = fn(unit)
                self._notify_unit()
                yield result
            return
        counter_inc("executor.pool_units", len(units))
        fn, units = self._apply_transport(fn, units)
        if self._pool is not None:  # inside a pool_session
            for result in self._pool.map(fn, units, chunksize=self.chunksize):
                self._notify_unit()
                yield decode_payload(result)
            return
        max_workers = min(self.workers, len(units))
        with _new_pool(max_workers) as pool:
            for result in pool.map(fn, units, chunksize=self.chunksize):
                self._notify_unit()
                yield decode_payload(result)

    def _notify_unit(self) -> None:
        """Fire the per-unit hook; a broken observer never breaks a sweep."""
        if self.unit_callback is None:
            return
        try:
            self.unit_callback()
        except Exception:
            counter_inc("executor.unit_callback_error")

    def imap_observed(
        self, fn: Callable[[T], R], units: Iterable[T]
    ) -> Iterator[tuple[R, dict]]:
        """:meth:`imap`, yielding ``(result, observation)`` pairs.

        Each unit is evaluated through
        :func:`repro.obs.metrics.observed_call`, so the observation
        carries the worker's pid, monotonic start, execute seconds,
        and the worker's metrics delta -- shipped back through the
        exact result path :meth:`imap` uses (same pickling, same
        shared-memory transport, same submission order), which is what
        keeps serial and parallel observability output identical in
        shape.  Results themselves are untouched: evaluation order,
        RNG streams, and values match :meth:`imap` bit for bit.
        """
        wrapped = partial(observed_call, fn)
        for envelope in self.imap(wrapped, units):
            yield envelope["result"], envelope["obs"]

    def _apply_transport(
        self, fn: Callable[[T], R], units: list[T]
    ) -> tuple[Callable, list]:
        """Wrap a parallel map in the configured payload transport.

        The pickle transport is the identity.  Otherwise unit inputs are
        encoded here (in the parent), the worker-side wrapper decodes
        them and encodes results, and :meth:`imap` decodes results as it
        yields -- with ``auto``, payloads below the size threshold skip
        encoding entirely, so the pickle path stays exercised.
        """
        if self.transport == "pickle":
            return fn, units
        min_bytes = 0 if self.transport == "shm" else DEFAULT_MIN_BYTES
        encoded = [encode_payload(unit, min_bytes) for unit in units]
        return partial(shm_call, fn, min_bytes=min_bytes), encoded
