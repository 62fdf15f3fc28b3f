"""Command vocabulary of the modelled IMD air protocol.

The paper's attacks use two command families (S10.3): commands "that
trigger the IMD to transmit its data with the objective of depleting its
battery" (interrogation) and commands "that change the IMD's therapy
parameters".  We model both, plus the session-management and telemetry
opcodes needed to make a full programmer exchange runnable.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = [
    "CommandType",
    "TherapySettings",
    "encode_therapy_payload",
    "decode_therapy_payload",
]


class CommandType(enum.IntEnum):
    """Opcodes carried in the packet header."""

    #: Programmer -> IMD: open a session on the current channel.
    SESSION_OPEN = 0x01
    #: Programmer -> IMD: close the session.
    SESSION_CLOSE = 0x02
    #: Programmer -> IMD: request stored telemetry (patient data, ECG).
    INTERROGATE = 0x10
    #: Programmer -> IMD: modify therapy parameters.
    SET_THERAPY = 0x20
    #: IMD -> programmer: telemetry payload.
    TELEMETRY = 0x80
    #: IMD -> programmer: acknowledge a command (echoes the opcode).
    ACK = 0x81

    @property
    def is_imd_response(self) -> bool:
        """Whether this opcode only ever flows IMD -> programmer."""
        return self in (CommandType.TELEMETRY, CommandType.ACK)


@dataclass(frozen=True)
class TherapySettings:
    """The therapy parameters an adversary tries to tamper with.

    Modelled on an ICD's headline settings: pacing rate and the shock
    energy delivered on a detected fibrillation.
    """

    pacing_rate_bpm: int = 60
    shock_energy_j: int = 30
    detection_threshold_bpm: int = 180

    def __post_init__(self) -> None:
        if not 30 <= self.pacing_rate_bpm <= 220:
            raise ValueError("pacing rate outside the device's supported range")
        if not 0 <= self.shock_energy_j <= 40:
            raise ValueError("shock energy outside the device's supported range")
        if not 100 <= self.detection_threshold_bpm <= 250:
            raise ValueError("detection threshold outside the supported range")


_THERAPY_FORMAT = ">HHH"


def encode_therapy_payload(settings: TherapySettings) -> bytes:
    """Serialise therapy settings into a SET_THERAPY payload."""
    return struct.pack(
        _THERAPY_FORMAT,
        settings.pacing_rate_bpm,
        settings.shock_energy_j,
        settings.detection_threshold_bpm,
    )


def decode_therapy_payload(payload: bytes) -> TherapySettings:
    """Parse a SET_THERAPY payload; raises ``ValueError`` on bad fields."""
    if len(payload) != struct.calcsize(_THERAPY_FORMAT):
        raise ValueError(f"therapy payload must be 6 bytes, got {len(payload)}")
    rate, energy, threshold = struct.unpack(_THERAPY_FORMAT, payload)
    return TherapySettings(rate, energy, threshold)
