"""Jam-window scheduling and alarm policy (S6 algorithm, S7(d) alarms).

Pure timing/decision helpers, kept separate from the event-level radio so
they can be unit- and property-tested in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ShieldConfig

__all__ = ["JamWindow", "JamWindowPolicy", "AlarmPolicy", "AlarmEvent"]


@dataclass(frozen=True)
class JamWindow:
    """An interval during which the shield jams the IMD's reply."""

    start_time: float
    duration: float

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True)
class JamWindowPolicy:
    """The S6 algorithm: jam from T1 after a command until T2 - T1 + P.

    "Whenever the shield sends a message to the IMD, it starts jamming
    the medium exactly T1 milliseconds after the end of its transmission
    ... for (T2 - T1) + P milliseconds."
    """

    t1_s: float = 2.8e-3
    t2_s: float = 3.7e-3
    max_packet_s: float = 21e-3

    def __post_init__(self) -> None:
        if not 0 < self.t1_s < self.t2_s:
            raise ValueError("need 0 < T1 < T2")
        if self.max_packet_s <= 0:
            raise ValueError("max packet duration must be positive")

    @classmethod
    def from_config(cls, config: ShieldConfig) -> "JamWindowPolicy":
        return cls(config.t1_s, config.t2_s, config.max_packet_s)

    def window_after(self, command_end_time: float) -> JamWindow:
        """The jam window following a command that ended at the given time."""
        return JamWindow(
            start_time=command_end_time + self.t1_s,
            duration=(self.t2_s - self.t1_s) + self.max_packet_s,
        )


@dataclass(frozen=True)
class AlarmEvent:
    """One raised alarm: when, why, and how strong the trigger was."""

    time: float
    rssi_dbm: float
    reason: str


class AlarmPolicy:
    """Collects alarms; the wearable would beep or vibrate (S7(d))."""

    def __init__(self) -> None:
        self._events: list[AlarmEvent] = []

    def raise_alarm(self, time: float, rssi_dbm: float, reason: str) -> None:
        self._events.append(AlarmEvent(time, rssi_dbm, reason))

    @property
    def events(self) -> list[AlarmEvent]:
        return list(self._events)

    @property
    def alarm_count(self) -> int:
        return len(self._events)
