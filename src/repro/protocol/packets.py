"""Wire format of the modelled IMD telemetry protocol.

Layout (MSB-first bits, byte-aligned fields)::

    +----------+------+----------------+--------+-----+--------+---------+-------+
    | preamble | sync | serial (10 B)  | opcode | seq | length | payload | CRC16 |
    | 16 bits  | 1 B  | 80 bits        | 1 B    | 1 B | 1 B    | N B     | 2 B   |
    +----------+------+----------------+--------+-----+--------+---------+-------+

The identifying sequence ``S_id`` the shield matches against is the
preamble + sync + serial prefix -- 104 bits of per-device constants,
mirroring the paper's observation that Medtronic packets carry "a known
preamble, a header, and the device's ID, i.e., its 10-byte serial number"
(S7(a)).  The CRC covers everything after the preamble/sync (the fields a
bit flip must not survive in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.preamble import DEFAULT_PREAMBLE_BITS, IdentifyingSequence
from repro.protocol.commands import CommandType
from repro.protocol.crc import bytes_to_bits, crc16_bytes_batch, crc16_ccitt

__all__ = ["Packet", "PacketCodec", "DecodeError", "SERIAL_LENGTH"]

SERIAL_LENGTH = 10  # bytes; "its 10-byte serial number" (S7(a))
_SYNC_BYTE = 0xD5
_MAX_PAYLOAD = 255
#: Entry cap of a codec's encode memo.  An attack sweep resends under a
#: hundred distinct commands per repetition.
_MEMO_CAP = 1024


class DecodeError(ValueError):
    """A received bit vector does not parse into a valid packet."""


@dataclass(frozen=True)
class Packet:
    """One air-protocol packet, pre-modulation."""

    serial: bytes
    opcode: CommandType
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if len(self.serial) != SERIAL_LENGTH:
            raise ValueError(
                f"device serial must be {SERIAL_LENGTH} bytes, got {len(self.serial)}"
            )
        if not 0 <= self.sequence <= 255:
            raise ValueError("sequence number must fit one byte")
        if len(self.payload) > _MAX_PAYLOAD:
            raise ValueError("payload too long for the one-byte length field")
        # Coerce plain ints (e.g. from tests) into the enum early.
        object.__setattr__(self, "opcode", CommandType(self.opcode))

    def body_bytes(self) -> bytes:
        """The CRC-covered portion: serial through payload."""
        return (
            self.serial
            + bytes([int(self.opcode), self.sequence, len(self.payload)])
            + self.payload
        )

    def crc(self) -> int:
        return crc16_ccitt(self.body_bytes())


@dataclass(frozen=True)
class PacketCodec:
    """Serialise packets to bit vectors and parse (possibly jammed) bits back.

    One codec instance is shared by every honest device and by the
    adversaries; the shield derives its per-device ``S_id`` from it.

    Attack trials send the same few commands over and over, so the codec
    memoises encoded command frames per :class:`Packet` (kept as
    ``uint8``, at most ``_MEMO_CAP`` of them, oldest dropped first).
    """

    preamble_bits: np.ndarray = field(
        default_factory=lambda: DEFAULT_PREAMBLE_BITS.copy()
    )
    sync_byte: int = _SYNC_BYTE
    _encoded: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def encode(self, packet: Packet) -> np.ndarray:
        """Bit vector for a packet, preamble first.

        Every call returns a fresh, writable ``int64`` array: receivers
        and tests flip bits in place.  Only commands are memoised: IMD
        responses carry device data (telemetry records) that seldom
        repeats, so memoising them would only churn the memo.
        """
        if packet.opcode.is_imd_response:
            return self._encode(packet)
        try:
            frame = self._encoded.get(packet)
        except TypeError:  # a bytearray field: unhashable, not memoised
            return self._encode(packet)
        if frame is None:
            bits = self._encode(packet)
            if len(self._encoded) >= _MEMO_CAP:
                del self._encoded[next(iter(self._encoded))]
            self._encoded[packet] = bits.astype(np.uint8)
            return bits
        return frame.astype(np.int64)

    def _encode(self, packet: Packet) -> np.ndarray:
        body = packet.body_bytes()
        crc = packet.crc()
        frame = bytes([self.sync_byte]) + body + crc.to_bytes(2, "big")
        return np.concatenate([self.preamble_bits, bytes_to_bits(frame)])

    def encode_batch(
        self,
        serial: bytes,
        opcode: CommandType,
        sequences: np.ndarray,
        payloads: np.ndarray,
    ) -> np.ndarray:
        """``(n, n_bits)`` bits of ``n`` packets that differ only in
        sequence number and payload, row ``i`` equal to
        ``encode(Packet(serial, opcode, sequences[i], payloads[i]))``.

        The frames are one ``uint8`` matrix -- constant header columns,
        the sequence column, the payload rows -- checksummed in one
        vectorised pass and unpacked once.
        """
        opcode = CommandType(opcode)
        sequences = np.asarray(sequences)
        payloads = np.asarray(payloads)
        n, size = payloads.shape
        if len(serial) != SERIAL_LENGTH:
            raise ValueError(
                f"device serial must be {SERIAL_LENGTH} bytes, got {len(serial)}"
            )
        if sequences.shape != (n,) or not np.all(
            (sequences >= 0) & (sequences <= 255)
        ):
            raise ValueError("need one one-byte sequence number per payload")
        if size > _MAX_PAYLOAD:
            raise ValueError("payload too long for the one-byte length field")
        header = bytes([self.sync_byte]) + serial
        body_end = len(header) + 3 + size
        frames = np.empty((n, body_end + 2), dtype=np.uint8)
        frames[:, : len(header)] = np.frombuffer(header, dtype=np.uint8)
        frames[:, len(header)] = int(opcode)
        frames[:, len(header) + 1] = sequences
        frames[:, len(header) + 2] = size
        frames[:, len(header) + 3 : body_end] = payloads
        crc = crc16_bytes_batch(frames[:, 1:body_end])
        frames[:, body_end] = crc >> 8
        frames[:, body_end + 1] = crc & 0xFF
        bits = np.empty((n, len(self.preamble_bits) + 8 * frames.shape[1]),
                        dtype=np.int64)
        bits[:, : len(self.preamble_bits)] = self.preamble_bits
        bits[:, len(self.preamble_bits) :] = np.unpackbits(frames, axis=1)
        return bits

    def decode(self, bits: np.ndarray) -> Packet:
        """Parse a bit vector; raises :class:`DecodeError` on any corruption.

        This is the receiver the IMD runs: any checksum failure (or
        malformed field) and the packet is silently discarded -- exactly
        the property jamming exploits.
        """
        bits = np.asarray(bits, dtype=np.int64)
        n_pre = len(self.preamble_bits)
        min_bits = n_pre + 8 * (1 + SERIAL_LENGTH + 3 + 2)
        if len(bits) < min_bits:
            raise DecodeError(f"truncated packet: {len(bits)} bits")
        frame_bits = bits[n_pre:][: (len(bits) - n_pre) // 8 * 8]
        # packbits would silently binarise stray values; keep the old
        # contract that non-binary input is an error.  ``x & ~1`` is zero
        # exactly for 0 and 1, so one pass finds any other value.
        if np.count_nonzero(frame_bits & ~1):
            raise DecodeError("bit vector must contain only 0s and 1s")
        frame = np.packbits(frame_bits.astype(np.uint8)).tobytes()
        if frame[0] != self.sync_byte:
            raise DecodeError(f"bad sync byte 0x{frame[0]:02x}")
        serial = frame[1 : 1 + SERIAL_LENGTH]
        opcode_raw = frame[1 + SERIAL_LENGTH]
        sequence = frame[2 + SERIAL_LENGTH]
        length = frame[3 + SERIAL_LENGTH]
        body_end = 4 + SERIAL_LENGTH + length
        if len(frame) < body_end + 2:
            raise DecodeError("length field exceeds received bits")
        payload = frame[4 + SERIAL_LENGTH : body_end]
        checksum = int.from_bytes(frame[body_end : body_end + 2], "big")
        body = frame[1:body_end]
        if crc16_ccitt(body) != checksum:
            raise DecodeError("checksum mismatch")
        try:
            opcode = CommandType(opcode_raw)
        except ValueError as exc:
            raise DecodeError(f"unknown opcode 0x{opcode_raw:02x}") from exc
        return Packet(serial, opcode, sequence, payload)

    def n_bits(self, packet: Packet) -> int:
        """Total on-air bit count of a packet."""
        return len(self.preamble_bits) + 8 * (1 + SERIAL_LENGTH + 3 + len(packet.payload) + 2)

    def identifying_sequence(self, serial: bytes) -> IdentifyingSequence:
        """``S_id`` for a device: preamble + sync + serial (104 bits).

        This is the prefix the shield matches (within ``b_thresh`` flips)
        to decide a transmission is addressed to its IMD (S7).
        """
        if len(serial) != SERIAL_LENGTH:
            raise ValueError(f"serial must be {SERIAL_LENGTH} bytes")
        prefix = bytes([self.sync_byte]) + serial
        return IdentifyingSequence(
            np.concatenate([self.preamble_bits, bytes_to_bits(prefix)])
        )

    def header_bit_count(self) -> int:
        """Number of bits in the S_id prefix (detection window size ``m``)."""
        return len(self.preamble_bits) + 8 * (1 + SERIAL_LENGTH)

    def payload_slice(self, payload_length: int) -> slice:
        """Where a ``payload_length``-byte payload sits in the frame bits.

        The frame layout is public (S7(a)): an eavesdropper who knows the
        protocol can cut the payload field straight out of a demodulated
        bit vector -- CRC-valid or not -- which is exactly what the
        physiological-inference attack does with corrupted packets.
        """
        if payload_length < 0 or payload_length > _MAX_PAYLOAD:
            raise ValueError(
                f"payload_length must lie in [0, {_MAX_PAYLOAD}], "
                f"got {payload_length}"
            )
        start = len(self.preamble_bits) + 8 * (1 + SERIAL_LENGTH + 3)
        return slice(start, start + 8 * payload_length)
