"""Tests for the physiological telemetry codec.

The load-bearing property (hypothesis-pinned): encode -> packetize ->
transmit clean -> decode recovers every window within half a
quantization step, and the beat annotations exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physio.codec import PhysioPayloadSource, WaveformCodec
from repro.protocol.commands import CommandType
from repro.protocol.packets import Packet, PacketCodec


class TestCodecValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WaveformCodec(window_samples=0)

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError, match="increasing"):
            WaveformCodec(amplitude_range=(1.0, 1.0))

    def test_payload_size(self):
        codec = WaveformCodec(window_samples=48)
        assert codec.mask_bytes == 6
        assert codec.payload_size == 54

    def test_n_windows_rejects_ragged_records(self):
        with pytest.raises(ValueError, match="multiple"):
            WaveformCodec(window_samples=48).n_windows(100)

    def test_encode_rejects_wrong_shape(self):
        codec = WaveformCodec(window_samples=8)
        with pytest.raises(ValueError):
            codec.encode_batch(np.zeros((2, 7)), np.zeros((2, 7), dtype=bool))

    def test_decode_rejects_wrong_width(self):
        codec = WaveformCodec(window_samples=8)
        with pytest.raises(ValueError):
            codec.decode_batch(np.zeros((1, 3), dtype=np.uint8))


windows = st.integers(0, 10_000).map(
    lambda seed: np.random.default_rng(seed)
)


class TestRoundTrip:
    @given(windows)
    @settings(max_examples=40, deadline=None)
    def test_packetized_round_trip_within_quantization(self, rng):
        """encode -> Packet -> bits -> PacketCodec.decode -> decode == input."""
        codec = WaveformCodec()
        packet_codec = PacketCodec()
        lo, hi = codec.amplitude_range
        samples = rng.uniform(lo, hi, size=codec.window_samples)
        mask = rng.random(codec.window_samples) < 0.1

        payload = codec.encode_window(samples, mask)
        packet = Packet(bytes(range(10)), CommandType.TELEMETRY, 1, payload)
        bits = packet_codec.encode(packet)
        received = packet_codec.decode(bits)  # CRC-checked
        out_samples, out_mask = codec.decode_window(received.payload)

        assert np.max(np.abs(out_samples - samples)) <= (
            codec.quantization_step / 2 + 1e-12
        )
        np.testing.assert_array_equal(out_mask, mask)

    @given(windows)
    @settings(max_examples=20, deadline=None)
    def test_out_of_range_amplitudes_clip(self, rng):
        codec = WaveformCodec()
        lo, hi = codec.amplitude_range
        samples = rng.uniform(lo - 2.0, hi + 2.0, size=codec.window_samples)
        mask = np.zeros(codec.window_samples, dtype=bool)
        out, _ = codec.decode_window(codec.encode_window(samples, mask))
        clipped = np.clip(samples, lo, hi)
        assert np.max(np.abs(out - clipped)) <= codec.quantization_step / 2 + 1e-12

    def test_batch_matches_scalar(self, rng):
        codec = WaveformCodec(window_samples=16)
        lo, hi = codec.amplitude_range
        samples = rng.uniform(lo, hi, size=(5, 16))
        mask = rng.random((5, 16)) < 0.2
        batch = codec.encode_batch(samples, mask)
        for i in range(5):
            assert batch[i].tobytes() == codec.encode_window(samples[i], mask[i])

    def test_encode_record_windows_in_order(self, rng):
        codec = WaveformCodec(window_samples=8)
        record = rng.uniform(-0.4, 1.4, size=24)
        mask = rng.random(24) < 0.2
        payloads = codec.encode_record(record, mask)
        assert payloads.shape == (3, codec.payload_size)
        out, out_mask = codec.decode_batch(payloads)
        assert np.max(np.abs(out.reshape(-1) - record)) <= codec.quantization_step / 2 + 1e-12
        np.testing.assert_array_equal(out_mask.reshape(-1), mask)

    def test_corrupted_packet_fails_crc(self, rng):
        """The legitimate receiver's CRC rejects a flipped payload bit."""
        codec = WaveformCodec()
        packet_codec = PacketCodec()
        samples = rng.uniform(-0.4, 1.4, size=codec.window_samples)
        payload = codec.encode_window(
            samples, np.zeros(codec.window_samples, dtype=bool)
        )
        bits = packet_codec.encode(
            Packet(bytes(range(10)), CommandType.TELEMETRY, 1, payload)
        )
        corrupted = bits.copy()
        corrupted[packet_codec.payload_slice(codec.payload_size).start] ^= 1
        with pytest.raises(Exception):
            packet_codec.decode(corrupted)


class TestPayloadSource:
    def test_serves_in_order_without_consuming_rng(self, rng):
        payloads = np.arange(12, dtype=np.uint8).reshape(3, 4)
        source = PhysioPayloadSource(payloads)
        state_before = rng.bit_generator.state
        assert source.payload_size == 4
        assert bytes(source.next_payload_batch(rng, 1)[0]) == bytes([0, 1, 2, 3])
        assert bytes(source.next_payload_batch(rng, 1)[0]) == bytes([4, 5, 6, 7])
        assert source.remaining == 1
        assert rng.bit_generator.state == state_before

    def test_refuses_to_wrap_around(self, rng):
        source = PhysioPayloadSource(np.zeros((1, 4), dtype=np.uint8))
        source.next_payload_batch(rng, 1)
        with pytest.raises(ValueError, match="exhausted"):
            source.next_payload_batch(rng, 1)

    def test_batch_serves_rows_in_order_like_next_payload(self, rng):
        payloads = np.arange(40, dtype=np.uint8).reshape(10, 4)
        batched = PhysioPayloadSource(payloads)
        single = PhysioPayloadSource(payloads)
        state_before = rng.bit_generator.state
        rows = [*batched.next_payload_batch(rng, 3)]
        rows += [*batched.next_payload_batch(rng, 1)]
        rows += [*batched.next_payload_batch(rng, 6)]
        assert [bytes(row) for row in rows] == [
            bytes(single.next_payload_batch(rng, 1)[0]) for _ in range(10)
        ]
        assert batched.remaining == single.remaining == 0
        assert rng.bit_generator.state == state_before

    def test_batch_refuses_to_run_past_the_stream(self, rng):
        source = PhysioPayloadSource(np.zeros((3, 4), dtype=np.uint8))
        source.next_payload_batch(rng, 2)
        with pytest.raises(ValueError, match="exhausted after 3 packets"):
            source.next_payload_batch(rng, 2)
        assert source.remaining == 1
        source.next_payload_batch(rng, 1)
        with pytest.raises(ValueError, match="exhausted after 3 packets"):
            source.next_payload_batch(rng, 1)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            PhysioPayloadSource(np.zeros((0, 4), dtype=np.uint8))
