"""Heap-based discrete-event scheduler.

Deliberately minimal: a binary heap of ``(time, sequence, event)``
tuples, ordered by plain tuple comparison; cancellation marks the event
dead rather than re-heaping.  Ties break by scheduling order, so
same-instant events run deterministically -- important because several
experiments schedule a jam-start and a packet-end at the same instant.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]


@dataclass(slots=True)
class Event:
    """A scheduled callback; the scheduler orders it by (time, sequence)."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    # Set by the simulator so cancellation keeps its live-event counter
    # exact without rescanning the heap.
    _on_cancel: Callable[[], None] | None = field(
        compare=False, default=None, repr=False
    )
    _done: bool = field(compare=False, default=False, repr=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()


class Simulator:
    """Run callbacks in virtual-time order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay {delay})")
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], None], name: str = ""
    ) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        sequence = next(self._counter)
        event = Event(time, sequence, callback, name)
        event._on_cancel = self._on_event_cancelled
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def _on_event_cancelled(self) -> None:
        self._live -= 1

    def run(self, until: float | None = None) -> None:
        """Process events until the queue empties or ``until`` is reached.

        When ``until`` is given, virtual time is advanced to exactly
        ``until`` even if the queue empties earlier, so repeated
        ``run(until=...)`` calls compose predictably.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            if event.cancelled:
                event._done = True
                continue
            event._done = True
            self._live -= 1
            self._now = time
            self._processed += 1
            event.callback()
        if until is not None and until > self._now:
            self._now = until

    def pending(self) -> int:
        """Number of live events still queued.

        Maintained as a counter (incremented on schedule, decremented on
        run or cancel) so introspection stays O(1) however deep the heap
        grows over a long sweep.
        """
        return self._live
