"""The live subsystem's event vocabulary and its canonical log form.

Everything the engine emits -- telemetry ticks, attack encounters,
shield-state transitions, session admissions -- is one
:class:`LiveEvent`; everything the alarm pipeline raises is one
:class:`Alarm`.  Both serialize through :func:`canonical_line`:
sorted-key, separator-minimal JSON with **no wall-clock fields**, so a
log is a pure function of (cohort seed, live config, schedule) and two
runs of the same seed compare byte-for-byte -- the replay contract
``tests/test_live_engine.py`` pins.

:class:`EventLog` is the optional recorder: it collects events and
alarms interleaved in dispatch order (exactly the order the
deterministic scheduler produced them) and can write the stream as
JSONL for offline diffing -- the audit-log posture e-SAFE argues
deployed IMD monitoring needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

__all__ = [
    "EVENT_KINDS",
    "Alarm",
    "EventLog",
    "LiveEvent",
    "canonical_line",
]

#: Every event kind the engine emits.  ``vitals`` ticks dominate the
#: stream; ``attack`` and ``shield`` appear during encounters;
#: ``session`` marks admissions.
EVENT_KINDS = ("vitals", "attack", "shield", "session")


def canonical_line(payload: dict) -> str:
    """The one serialized form logs are compared in (byte-stable)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(slots=True)
class LiveEvent:
    """One thing that happened to one patient at one simulated instant.

    ``time_s`` is *simulated* seconds since engine start -- never wall
    time, which would break replay.  ``data`` holds the kind-specific
    payload (heart rate, attack outcome flags, shield state).

    Read-only by convention: nothing downstream of the engine assigns
    to an event or its ``data``.  The record is slotted but not frozen,
    because a frozen dataclass's ``__init__`` sets each field through
    ``object.__setattr__``, which doubles the cost of the one
    construction every dispatched event pays.
    """

    time_s: float
    patient: int
    kind: str
    data: dict

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )

    def to_payload(self) -> dict:
        return {
            "t": self.time_s,
            "patient": self.patient,
            "kind": self.kind,
            "data": self.data,
        }

    def canonical(self) -> str:
        """:func:`canonical_line` of the payload.

        The telemetry tick -- nearly every line of a ward's log -- is
        rendered directly: kind ``vitals``, an int ``patient``, a
        finite float ``t`` and data exactly ``{hr_bpm: finite float,
        rhythm: str}``, written in sorted key order with the primitives
        ``json.dumps`` itself uses (``repr`` of an exact float or int,
        ASCII string escaping).  Any other shape goes through
        :func:`canonical_line`, the one definition of the form.
        """
        data = self.data
        if self.kind == "vitals" and len(data) == 2:
            hr = data.get("hr_bpm")
            rhythm = data.get("rhythm")
            t = self.time_s
            if (
                type(hr) is float and type(t) is float
                and type(self.patient) is int and type(rhythm) is str
                and math.isfinite(hr) and math.isfinite(t)
            ):
                return (
                    f'{{"data":{{"hr_bpm":{hr!r},"rhythm":'
                    f'{encode_basestring_ascii(rhythm)}}},"kind":"vitals",'
                    f'"patient":{self.patient!r},"t":{t!r}}}'
                )
        return canonical_line(self.to_payload())


@dataclass(frozen=True)
class Alarm:
    """One monitor-layer notification (never a device action).

    ``rule`` names the :mod:`repro.live.alarms` rule that raised it;
    ``severity`` is ``info`` / ``warning`` / ``critical``.
    """

    time_s: float
    patient: int
    rule: str
    severity: str
    message: str
    data: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "t": self.time_s,
            "patient": self.patient,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "data": self.data,
        }

    def canonical(self) -> str:
        return canonical_line({"alarm": self.to_payload()})


class EventLog:
    """Dispatch-ordered canonical lines, optionally persisted as JSONL."""

    def __init__(self):
        self.lines: list[str] = []

    def event(self, event: LiveEvent) -> None:
        self.lines.append(event.canonical())

    def alarm(self, alarm: Alarm) -> None:
        self.lines.append(alarm.canonical())

    def digest(self) -> str:
        """Content hash of the whole log (replay tests compare these)."""
        import hashlib

        joined = "\n".join(self.lines).encode()
        return hashlib.sha256(joined).hexdigest()

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "\n".join(self.lines) + ("\n" if self.lines else ""),
            encoding="utf-8",
        )
        return path
