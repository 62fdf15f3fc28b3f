"""Tests for CRC-16 and the packet codec."""

import numpy as np
import pytest

from repro.phy.preamble import DEFAULT_PREAMBLE_BITS
from repro.protocol.commands import CommandType
from repro.protocol.crc import (
    bits_to_bytes,
    bytes_to_bits,
    crc16_bits_batch,
    crc16_ccitt,
)
from repro.protocol.packets import (
    _MEMO_CAP,
    DecodeError,
    Packet,
    PacketCodec,
    SERIAL_LENGTH,
)


class TestCRC16:
    def test_known_vector(self):
        """CRC-16/CCITT-FALSE of '123456789' is 0x29B1."""
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16_ccitt(b"") == 0xFFFF

    def test_check_round_trip(self):
        data = b"heartbeat telemetry"
        # A message followed by its big-endian checksum leaves no remainder.
        assert crc16_ccitt(data + crc16_ccitt(data).to_bytes(2, "big")) == 0

    def test_single_bit_flip_detected(self):
        data = bytearray(b"therapy parameters")
        crc = crc16_ccitt(bytes(data))
        data[3] ^= 0x10
        assert crc16_ccitt(bytes(data)) != crc

    def test_bit_level_matches_byte_level(self):
        data = b"\x01\x02\xff\x80"
        assert crc16_bits_batch(bytes_to_bits(data)[None])[0] == crc16_ccitt(data)


class TestBitPacking:
    def test_round_trip(self):
        data = bytes(range(256))
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_msb_first(self):
        bits = bytes_to_bits(b"\x80")
        assert list(bits) == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_empty(self):
        assert len(bytes_to_bits(b"")) == 0
        assert bits_to_bytes(np.zeros(0, dtype=int)) == b""

    def test_rejects_partial_byte(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.ones(7, dtype=int))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits_to_bytes(np.full(8, 2))


class TestPacket:
    def test_serial_length_enforced(self):
        with pytest.raises(ValueError):
            Packet(b"short", CommandType.INTERROGATE, 1)

    def test_sequence_range(self, serial):
        with pytest.raises(ValueError):
            Packet(serial, CommandType.INTERROGATE, 300)

    def test_payload_cap(self, serial):
        with pytest.raises(ValueError):
            Packet(serial, CommandType.TELEMETRY, 1, payload=bytes(300))

    def test_opcode_coercion(self, serial):
        p = Packet(serial, 0x10, 1)
        assert p.opcode is CommandType.INTERROGATE


class TestCodec:
    def test_encode_decode_round_trip(self, codec, serial):
        packet = Packet(serial, CommandType.SET_THERAPY, 42, payload=b"abcdef")
        assert codec.decode(codec.encode(packet)) == packet

    def test_round_trip_empty_payload(self, codec, serial):
        packet = Packet(serial, CommandType.SESSION_OPEN, 0)
        assert codec.decode(codec.encode(packet)) == packet

    def test_round_trip_max_payload(self, codec, serial):
        packet = Packet(serial, CommandType.TELEMETRY, 9, payload=bytes(255))
        assert codec.decode(codec.encode(packet)) == packet

    def test_encoded_length_matches_n_bits(self, codec, serial):
        packet = Packet(serial, CommandType.INTERROGATE, 7, payload=b"1234")
        assert len(codec.encode(packet)) == codec.n_bits(packet)

    def test_starts_with_preamble(self, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.ACK, 1))
        assert np.array_equal(bits[: len(DEFAULT_PREAMBLE_BITS)], DEFAULT_PREAMBLE_BITS)

    def test_any_single_bit_flip_breaks_crc(self, codec, serial, rng):
        """The checksum assumption of S3.1: any corrupted field kills the
        packet.  (Flips inside the preamble only affect sync, tested
        separately.)"""
        packet = Packet(serial, CommandType.SET_THERAPY, 3, payload=b"xy")
        bits = codec.encode(packet)
        n_pre = len(DEFAULT_PREAMBLE_BITS)
        for _ in range(40):
            corrupted = bits.copy()
            position = rng.integers(n_pre, len(bits))
            corrupted[position] ^= 1
            with pytest.raises(DecodeError):
                codec.decode(corrupted)

    def test_truncated_rejected(self, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))
        with pytest.raises(DecodeError):
            codec.decode(bits[:50])

    def test_bad_sync_rejected(self, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))
        bits[len(DEFAULT_PREAMBLE_BITS)] ^= 1
        with pytest.raises(DecodeError):
            codec.decode(bits)

    def test_unknown_opcode_rejected(self, codec, serial):
        packet = Packet(serial, CommandType.INTERROGATE, 1)
        raw = codec.encode(packet)
        # Surgically rewrite the opcode byte and fix the CRC so only the
        # opcode check can fail.
        from repro.protocol.crc import bits_to_bytes, bytes_to_bits, crc16_ccitt

        frame = bytearray(bits_to_bytes(raw[16:]))
        frame[1 + SERIAL_LENGTH] = 0x77  # not a CommandType
        body = bytes(frame[1 : 4 + SERIAL_LENGTH])
        crc = crc16_ccitt(body)
        frame[-2:] = crc.to_bytes(2, "big")
        rebuilt = np.concatenate([raw[:16], bytes_to_bits(bytes(frame))])
        with pytest.raises(DecodeError):
            codec.decode(rebuilt)

    def test_identifying_sequence_is_104_bits(self, codec, serial):
        """S7(a): preamble + sync + 10-byte serial."""
        sid = codec.identifying_sequence(serial)
        assert len(sid) == 104
        assert codec.header_bit_count() == 104

    def test_identifying_sequence_prefixes_every_packet(self, codec, serial):
        sid = codec.identifying_sequence(serial)
        for opcode in (CommandType.INTERROGATE, CommandType.TELEMETRY):
            bits = codec.encode(Packet(serial, opcode, 5, payload=b"zz"))
            assert sid.matches(bits, b_thresh=0)

    def test_different_serial_distinct_sid(self, codec, serial):
        other = bytes(reversed(range(10)))
        sid = codec.identifying_sequence(serial)
        bits = codec.encode(Packet(other, CommandType.INTERROGATE, 1))
        assert not sid.matches(bits, b_thresh=4)

    def test_sid_serial_length_checked(self, codec):
        with pytest.raises(ValueError):
            codec.identifying_sequence(b"abc")


class TestCodecMemos:
    """``encode`` memoises commands, without sharing arrays."""

    def test_repeat_encodes_are_equal_distinct_and_writable(self, codec, serial):
        packet = Packet(serial, CommandType.INTERROGATE, 3, payload=b"\x00\x01")
        first = codec.encode(packet)
        second = codec.encode(packet)
        assert first.dtype == second.dtype == np.int64
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        first[:] = 0
        second[len(DEFAULT_PREAMBLE_BITS)] ^= 1
        assert np.array_equal(codec.encode(packet), codec._encode(packet))

    def test_memoised_frame_decodes_to_an_equal_packet(self, codec, serial):
        packet = Packet(serial, CommandType.SET_THERAPY, 9, payload=b"abcdef")
        codec.encode(packet)
        bits = codec.encode(packet)
        assert packet in codec._encoded
        assert codec.decode(bits) == packet
        corrupted = bits.copy()
        corrupted[-1] ^= 1
        with pytest.raises(DecodeError):
            codec.decode(corrupted)

    def test_non_binary_vector_is_rejected(self, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.ACK, 4))
        codec.decode(bits)
        for stray in (2, -1):
            bits[-1] = stray
            with pytest.raises(DecodeError, match="only 0s and 1s"):
                codec.decode(bits)

    def test_memo_stays_under_its_cap(self, serial):
        codec = PacketCodec()
        for i in range(_MEMO_CAP + 300):
            packet = Packet(
                serial, CommandType.SET_THERAPY, i % 256, payload=i.to_bytes(2, "big")
            )
            assert codec.decode(codec.encode(packet)) == packet
            assert len(codec._encoded) <= _MEMO_CAP
        # The newest entries survive; the oldest were dropped.
        assert packet in codec._encoded
        assert len(codec._encoded) == _MEMO_CAP

    def test_imd_responses_are_not_memoised(self, codec, serial):
        """Telemetry and ACKs carry device data that seldom repeats."""
        for opcode in (CommandType.TELEMETRY, CommandType.ACK):
            packet = Packet(serial, opcode, 5, payload=b"record")
            first, second = codec.encode(packet), codec.encode(packet)
            assert np.array_equal(first, second)
            assert not np.shares_memory(first, second)
            assert codec.decode(first) == packet
        assert not codec._encoded

    def test_unhashable_packet_still_encodes(self, codec, serial):
        packet = Packet(serial, CommandType.SET_THERAPY, 1, payload=bytearray(b"ab"))
        bits = codec.encode(packet)
        assert codec.decode(bits) == Packet(
            serial, CommandType.SET_THERAPY, 1, payload=b"ab"
        )
        assert not codec._encoded


class TestEncodeBatch:
    """``encode_batch`` rows are the per-packet ``encode`` frames."""

    @pytest.mark.parametrize("size", [0, 1, 54, 255])
    @pytest.mark.parametrize(
        "opcode", [CommandType.TELEMETRY, CommandType.SET_THERAPY]
    )
    def test_rows_equal_stacked_encodes(self, codec, serial, rng, size, opcode):
        n = 40
        payloads = rng.integers(0, 256, size=(n, size), dtype=np.uint8)
        sequences = (250 + np.arange(n)) % 256  # wraps past 255
        bits = codec.encode_batch(serial, opcode, sequences, payloads)
        expected = np.stack([
            codec.encode(Packet(serial, opcode, int(seq), row.tobytes()))
            for seq, row in zip(sequences, payloads)
        ])
        assert bits.dtype == expected.dtype == np.int64
        assert bits.flags.writeable
        np.testing.assert_array_equal(bits, expected)
        assert codec.decode(bits[-1]) == Packet(
            serial, opcode, int(sequences[-1]), payloads[-1].tobytes()
        )

    def test_one_packet_block(self, codec, serial):
        bits = codec.encode_batch(
            serial, CommandType.TELEMETRY, np.array([7]),
            np.frombuffer(b"abc", dtype=np.uint8)[None, :],
        )
        expected = codec.encode(
            Packet(serial, CommandType.TELEMETRY, 7, b"abc")
        )
        np.testing.assert_array_equal(bits, expected[None, :])

    def test_rejects_what_packet_rejects(self, codec, serial):
        payloads = np.zeros((2, 4), dtype=np.uint8)
        telemetry = CommandType.TELEMETRY
        with pytest.raises(ValueError, match="serial"):
            codec.encode_batch(serial[:9], telemetry, np.array([1, 2]), payloads)
        with pytest.raises(ValueError, match="sequence"):
            codec.encode_batch(serial, telemetry, np.array([1, 256]), payloads)
        with pytest.raises(ValueError, match="sequence"):
            codec.encode_batch(serial, telemetry, np.array([1]), payloads)
        with pytest.raises(ValueError, match="payload too long"):
            codec.encode_batch(
                serial, telemetry, np.array([1]),
                np.zeros((1, 256), dtype=np.uint8),
            )


class TestTableDrivenCRC:
    """The table path must agree with the bitwise reference everywhere."""

    def test_property_table_matches_bitwise(self):
        from repro.protocol.crc import _crc16_ccitt_bitwise

        rng = np.random.default_rng(17)
        for _ in range(200):
            length = int(rng.integers(0, 64))
            data = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
            assert crc16_ccitt(data) == _crc16_ccitt_bitwise(data)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2, size=(20, 8 * 11))
        batch = crc16_bits_batch(bits)
        assert batch.dtype == np.uint16
        for row, crc in zip(bits, batch):
            assert int(crc) == crc16_ccitt(bits_to_bytes(row))

    def test_byte_rows_match_scalar(self):
        from repro.protocol.crc import crc16_bytes_batch

        rng = np.random.default_rng(29)
        for n_rows, width in [(12, 0), (12, 1), (0, 17), (1, 17), (12, 17),
                              (12, 300), (3, 300)]:
            rows = rng.integers(0, 256, size=(n_rows, width), dtype=np.uint8)
            batch = crc16_bytes_batch(rows)
            assert batch.dtype == np.uint16 and batch.shape == (n_rows,)
            assert [int(c) for c in batch] == [
                crc16_ccitt(row.tobytes()) for row in rows
            ]
        with pytest.raises(ValueError):
            crc16_bytes_batch(np.zeros(8, dtype=np.uint8))

    def test_batch_rejects_ragged_length(self):
        with pytest.raises(ValueError):
            crc16_bits_batch(np.zeros((2, 7), dtype=int))

    def test_batch_rejects_non_binary(self):
        with pytest.raises(ValueError):
            crc16_bits_batch(np.full((2, 8), 3))

    def test_batch_rejects_1d(self):
        with pytest.raises(ValueError):
            crc16_bits_batch(np.zeros(8, dtype=int))
