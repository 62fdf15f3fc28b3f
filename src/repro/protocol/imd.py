"""Behavioural model of the implanted devices the shield protects.

This is the stand-in for the Medtronic Virtuoso ICD and Concerto CRT of
the paper's testbed.  Only externally visible behaviour is modelled, and
each behaviour is pinned to a measurement in the paper:

* replies arrive a fixed interval after a command (3.5 ms for the
  Virtuoso, Fig. 3(a)), always within the shield's calibrated
  [T1 = 2.8 ms, T2 = 3.7 ms] window (S6);
* the IMD does **not** carrier-sense before replying (Fig. 3(b)) -- it
  answers into an occupied medium, which is precisely what lets the
  shield pre-arm its jam window;
* packets failing the checksum are silently discarded (S3.1);
* the IMD never initiates transmission (FCC rule, S2);
* every reply is a transmission that drains the battery -- the resource
  the battery-depletion attack of Fig. 11 burns, counted by
  :attr:`IMDevice.transmissions`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.protocol.commands import (
    CommandType,
    TherapySettings,
    decode_therapy_payload,
)
from repro.protocol.packets import DecodeError, Packet, PacketCodec

__all__ = ["IMDParameters", "IMDevice", "VIRTUOSO", "CONCERTO"]


@dataclass(frozen=True)
class IMDParameters:
    """Timing and power constants of one IMD model."""

    name: str
    #: Nominal command-to-reply latency (Fig. 3: 3.5 ms for the Virtuoso).
    reply_delay_s: float = 3.5e-3
    #: Uniform jitter on the reply latency; stays inside [T1, T2].
    reply_jitter_s: float = 0.3e-3
    #: Maximum packet duration P (S6: 21 ms for the tested devices).
    max_packet_duration_s: float = 21e-3
    #: Telemetry bit rate of the FSK link.
    bit_rate: float = 100e3
    #: Conducted transmit power (before body loss).
    tx_power_dbm: float = -16.0
    #: Telemetry payload returned per interrogation, bytes.
    telemetry_payload_bytes: int = 24

    def __post_init__(self) -> None:
        if self.reply_delay_s <= 0 or self.reply_jitter_s < 0:
            raise ValueError("reply timing must be positive")
        if self.max_packet_duration_s <= 0:
            raise ValueError("max packet duration must be positive")
        if self.telemetry_payload_bytes < 1:
            raise ValueError("telemetry payload must be at least one byte")


#: The two devices evaluated in the paper.  Their observable behaviour did
#: not differ ("the two IMDs did not show any significant difference",
#: S10), so they share timing; the CRT carries a bigger telemetry record.
VIRTUOSO = IMDParameters(name="Medtronic Virtuoso DR ICD")
CONCERTO = IMDParameters(
    name="Medtronic Concerto CRT", telemetry_payload_bytes=32
)


@dataclass
class IMDevice:
    """One implanted device: packet handling, therapy state, battery.

    The device is transport-agnostic: callers hand it received bit
    vectors (possibly corrupted by jamming) and it returns the reply
    packet plus the latency after which the reply starts -- the event
    simulator turns that into an on-air transmission *without carrier
    sensing*.
    """

    serial: bytes
    parameters: IMDParameters = field(default_factory=lambda: VIRTUOSO)
    codec: PacketCodec = field(default_factory=PacketCodec)
    therapy: TherapySettings = field(default_factory=TherapySettings)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(7))

    def __post_init__(self) -> None:
        self._tx_count = 0
        self._rx_accepted = 0
        self._sequence = 0

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def handle_bits(self, bits: np.ndarray) -> tuple[Packet, float] | None:
        """Process received bits; return ``(reply, delay_s)`` or ``None``.

        ``None`` means the device stayed silent: the bits failed the
        checksum, were addressed to another device, or carried an opcode
        that takes no reply.  Replay-attack note: the device accepts any
        well-formed command -- there is no cryptography on the air link,
        which is the vulnerability the paper (and [22] before it)
        documents.
        """
        try:
            packet = self.codec.decode(bits)
        except DecodeError:
            return None
        return self.handle_packet(packet)

    def handle_packet(self, packet: Packet) -> tuple[Packet, float] | None:
        """Packet-level receive path (used when bits were drawn analytically)."""
        if packet.serial != self.serial:
            return None
        if packet.opcode.is_imd_response:
            # Replayed IMD telemetry is not a command; ignore it.
            return None
        self._rx_accepted += 1
        reply = self._execute(packet)
        if reply is None:
            return None
        self._tx_count += 1
        return reply, self._draw_reply_delay()

    def _execute(self, packet: Packet) -> Packet | None:
        """Apply a command's effect and build the reply packet."""
        opcode = packet.opcode
        if opcode in (CommandType.SESSION_OPEN, CommandType.SESSION_CLOSE):
            return self._reply(CommandType.ACK, bytes([int(opcode)]))
        if opcode == CommandType.INTERROGATE:
            return self._reply(CommandType.TELEMETRY, self._telemetry_record())
        if opcode == CommandType.SET_THERAPY:
            try:
                self.therapy = decode_therapy_payload(packet.payload)
            except ValueError:
                # Malformed therapy payloads are rejected without reply.
                return None
            return self._reply(CommandType.ACK, bytes([int(opcode)]))
        return None

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------

    def _reply(self, opcode: CommandType, payload: bytes) -> Packet:
        self._sequence = (self._sequence + 1) % 256
        return Packet(self.serial, opcode, self._sequence, payload)

    def _telemetry_record(self) -> bytes:
        """A synthetic stored-telemetry record (stand-in for ECG/patient
        data -- the confidential payload the passive defence protects)."""
        n = self.parameters.telemetry_payload_bytes
        record = bytearray(n)
        record[0] = self.therapy.pacing_rate_bpm & 0xFF
        record[1] = self.therapy.shock_energy_j & 0xFF
        if n > 2:
            record[2:] = self.rng.integers(0, 256, size=n - 2, dtype=np.uint8).tobytes()
        return bytes(record)

    def _draw_reply_delay(self) -> float:
        """Reply latency: nominal delay plus bounded jitter (Fig. 3)."""
        p = self.parameters
        jitter = self.rng.uniform(-p.reply_jitter_s, p.reply_jitter_s / 2)
        return p.reply_delay_s + jitter

    # ------------------------------------------------------------------
    # Introspection used by experiments
    # ------------------------------------------------------------------

    @property
    def transmissions(self) -> int:
        return self._tx_count

    @property
    def accepted_packets(self) -> int:
        return self._rx_accepted
