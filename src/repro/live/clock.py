"""Pluggable time sources for the live engine.

The engine is a deterministic discrete-event core: it pops scheduled
events from a heap in ``(sim_time, sequence)`` order and asks its clock
to *pace* their dispatch.  The clock therefore controls nothing but
wall-clock waiting -- event order, RNG streams, and the event log are
pure functions of the schedule, which is what makes replay
bit-identical across every clock.

Three implementations cover the deployment spectrum:

* :class:`WallClock` -- one simulated second per wall second (the
  paper's artifact runs in real time);
* :class:`AcceleratedClock` -- ``speedup=N`` compresses N simulated
  seconds into one wall second.  When dispatch falls behind the wall
  target (an overloaded engine) it never sleeps and counts the lag as
  ``behind_s`` instead of stalling;
* :class:`TestClock` -- no waiting at all: simulated time jumps to
  each event's timestamp.  Deterministic-replay tests and throughput
  benchmarks run on it, as does any batch-style "drain the schedule"
  use.

``WallClock`` is just ``AcceleratedClock(1.0)``; it exists so call
sites read as what they mean.
"""

from __future__ import annotations

import asyncio
import time

__all__ = ["AcceleratedClock", "TestClock", "WallClock"]

#: Sleeps shorter than this are noise next to the event-loop overhead
#: of scheduling them; the clock dispatches immediately instead.
_MIN_SLEEP_S = 1e-4


class AcceleratedClock:
    """Paces dispatch at ``speedup`` simulated seconds per wall second."""

    def __init__(self, speedup: float = 1.0):
        if not speedup > 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        self.speedup = float(speedup)
        self.sim_time_s = 0.0
        #: Cumulative seconds dispatch ran late relative to the wall
        #: target -- the engine catching up, never blocking.
        self.behind_s = 0.0
        self._start_wall: float | None = None

    def start(self) -> None:
        """Anchor simulated zero to the current wall instant."""
        self._start_wall = time.monotonic()
        self.sim_time_s = 0.0
        self.behind_s = 0.0

    async def advance_to(self, sim_t: float) -> None:
        """Wait (if ahead of schedule) until ``sim_t`` is due, then adopt it."""
        if self._start_wall is None:
            self.start()
        target_wall = self._start_wall + sim_t / self.speedup
        delay = target_wall - time.monotonic()
        if delay > _MIN_SLEEP_S:
            await asyncio.sleep(delay)
        elif delay < 0:
            self.behind_s = -delay
        self.sim_time_s = sim_t


class WallClock(AcceleratedClock):
    """Real time: one simulated second per wall second."""

    def __init__(self):
        super().__init__(1.0)


class TestClock:
    """Deterministic clock: time is whatever the schedule says it is.

    Never sleeps, so an engine on a test clock drains its schedule as
    fast as one core dispatches events -- replay tests finish in
    milliseconds and throughput benchmarks measure the engine, not the
    pacing.
    """

    #: Advertised so status surfaces can distinguish paced from drained
    #: runs; ``None`` reads as "as fast as possible".
    speedup = None

    # Not a pytest class, despite the name.
    __test__ = False

    def __init__(self):
        self.sim_time_s = 0.0
        self.behind_s = 0.0

    def start(self) -> None:
        self.sim_time_s = 0.0

    async def advance_to(self, sim_t: float) -> None:
        self.sim_time_s = sim_t
