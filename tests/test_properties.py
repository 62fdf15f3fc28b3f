"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.antidote import antidote_signal, residual_gain
from repro.core.policy import JamWindowPolicy
from repro.crypto.aead import AEAD
from repro.crypto.kdf import hkdf_sha256
from repro.crypto.stream import xor_stream
from repro.phy.ber import noncoherent_fsk_ber
from repro.phy.fsk import FSKModulator, NoncoherentFSKDemodulator
from repro.phy.preamble import IdentifyingSequence, hamming_distance
from repro.phy.signal import Waveform, db_to_linear, linear_to_db
from repro.protocol.commands import CommandType
from repro.protocol.crc import bits_to_bytes, bytes_to_bits, crc16_ccitt
from repro.protocol.packets import DecodeError, Packet, PacketCodec

bits_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=256).map(
    lambda xs: np.asarray(xs, dtype=np.int64)
)


class TestSignalProperties:
    @given(st.floats(min_value=-80.0, max_value=80.0))
    def test_db_linear_round_trip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db)

    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=4,
            max_size=64,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scaled_to_power_hits_target(self, values, power):
        samples = np.asarray(values, dtype=float)
        if np.sum(np.abs(samples) ** 2) < 1e-6:
            samples[0] = 1.0  # avoid the (rejected) underflow regime
        w = Waveform(samples, 1e6).scaled_to_power(power)
        assert w.power() == pytest.approx(power, rel=1e-9)

    def test_scaled_to_power_rejects_underflow(self):
        w = Waveform(np.full(4, 1e-200), 1e6)
        with pytest.raises(ValueError):
            w.scaled_to_power(1.0)


class TestFSKProperties:
    @settings(max_examples=25, deadline=None)
    @given(bits_arrays)
    def test_modulate_demodulate_identity(self, bits):
        """Clean round trip for any bit pattern."""
        w = FSKModulator().modulate(bits)
        decoded = NoncoherentFSKDemodulator().demodulate(w)
        assert np.array_equal(decoded, bits)

    @settings(max_examples=25, deadline=None)
    @given(bits_arrays, st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_phase_rotation_invariance(self, bits, phase):
        w = FSKModulator().modulate(bits).scaled(np.exp(1j * phase))
        decoded = NoncoherentFSKDemodulator().demodulate(w)
        assert np.array_equal(decoded, bits)

    @settings(max_examples=25, deadline=None)
    @given(bits_arrays)
    def test_constant_envelope(self, bits):
        w = FSKModulator().modulate(bits)
        assert np.allclose(np.abs(w.samples), 1.0)


class TestBERProperties:
    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_ber_in_valid_range(self, sinr_db):
        ber = noncoherent_fsk_ber(sinr_db)
        assert 0.0 <= ber <= 0.5


class TestCRCProperties:
    @given(st.binary(min_size=0, max_size=128))
    def test_bits_bytes_round_trip(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0))
    def test_single_bit_flip_always_detected(self, data, position):
        """CRC-16 detects every single-bit error (d_min >= 2)."""
        bits = bytes_to_bits(data)
        position %= len(bits)
        crc = crc16_ccitt(data)
        bits[position] ^= 1
        assert crc16_ccitt(bits_to_bytes(bits)) != crc


class TestPacketProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.binary(min_size=10, max_size=10),
        st.sampled_from(list(CommandType)),
        st.integers(min_value=0, max_value=255),
        st.binary(min_size=0, max_size=64),
    )
    def test_codec_round_trip(self, serial, opcode, sequence, payload):
        codec = PacketCodec()
        packet = Packet(serial, opcode, sequence, payload)
        assert codec.decode(codec.encode(packet)) == packet

    @settings(max_examples=40, deadline=None)
    @given(
        st.binary(min_size=10, max_size=10),
        st.binary(min_size=0, max_size=32),
        st.integers(min_value=0),
    )
    def test_post_preamble_flip_always_rejected(self, serial, payload, position):
        """Any single corrupted bit after the preamble kills the packet --
        the S3.1 checksum property jamming relies on."""
        codec = PacketCodec()
        packet = Packet(serial, CommandType.INTERROGATE, 1, payload)
        bits = codec.encode(packet)
        position = 16 + position % (len(bits) - 16)
        bits[position] ^= 1
        with pytest.raises(DecodeError):
            codec.decode(bits)


class TestIdentifyingSequenceProperties:
    @settings(max_examples=50, deadline=None)
    @given(bits_arrays, st.integers(min_value=0, max_value=8))
    def test_match_iff_within_threshold(self, bits, b_thresh):
        seq = IdentifyingSequence(bits)
        flips = min(b_thresh + 1, len(bits))
        corrupted = bits.copy()
        corrupted[:flips] ^= 1
        assert hamming_distance(bits, corrupted) == flips
        assert seq.matches(corrupted, b_thresh) == (flips <= b_thresh)

    @given(bits_arrays)
    def test_self_distance_zero(self, bits):
        assert hamming_distance(bits, bits) == 0

    @given(bits_arrays, bits_arrays)
    def test_distance_symmetric(self, a, b):
        n = min(len(a), len(b))
        assert hamming_distance(a[:n], b[:n]) == hamming_distance(b[:n], a[:n])


class TestAntidoteProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False),
        st.complex_numbers(min_magnitude=0.001, max_magnitude=0.2, allow_nan=False),
    )
    def test_true_channels_cancel_exactly(self, h_self, h_jr):
        rng = np.random.default_rng(0)
        jam = Waveform(
            rng.standard_normal(128) + 1j * rng.standard_normal(128), 600e3
        )
        antidote = antidote_signal(jam, h_jr, h_self)
        combined = jam.scaled(h_jr).samples + antidote.scaled(h_self).samples
        assert np.max(np.abs(combined)) < 1e-9

    @settings(max_examples=40)
    @given(
        st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0, allow_nan=False),
        st.complex_numbers(min_magnitude=0.01, max_magnitude=0.1, allow_nan=False),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    def test_residual_bounded_by_error(self, h_self, h_jr, eps):
        """|residual| <= |H_jr| * |eps| / |1 + eps| for a relative error
        on the jam-channel estimate alone."""
        residual = residual_gain(h_jr, h_self, h_jr * (1 + eps), h_self)
        assert abs(residual) <= abs(h_jr) * abs(eps) + 1e-12


class TestJamWindowProperties:
    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=2.8e-3, max_value=3.7e-3),
        st.floats(min_value=1e-4, max_value=21e-3),
    )
    def test_window_covers_all_legal_replies(self, end_time, delay, duration):
        """For every command end time, any reply inside the calibrated
        [T1, T2] x (0, P] envelope is fully jammed -- the S6 guarantee."""
        policy = JamWindowPolicy()
        assert policy.covers_reply(end_time, delay, duration)


class TestCryptoProperties:
    @settings(max_examples=40)
    @given(st.binary(min_size=0, max_size=256), st.binary(min_size=1, max_size=16))
    def test_stream_involution(self, data, nonce):
        key = b"k" * 16
        assert xor_stream(xor_stream(data, key, nonce), key, nonce) == data

    @settings(max_examples=30)
    @given(st.binary(min_size=0, max_size=128), st.binary(min_size=0, max_size=32))
    def test_aead_round_trip(self, plaintext, associated):
        keys = hkdf_sha256(b"root", 64)
        aead = AEAD(keys[:32], keys[32:])
        sealed = aead.seal(b"n" * 8, plaintext, associated)
        assert aead.open(b"n" * 8, sealed, associated) == plaintext

    @settings(max_examples=30)
    @given(st.binary(min_size=16, max_size=64), st.binary(min_size=16, max_size=64))
    def test_hkdf_distinct_inputs_distinct_outputs(self, a, b):
        if a == b:
            return
        assert hkdf_sha256(a, 32) != hkdf_sha256(b, 32)
