"""Tests for the IMD behavioural model."""

import numpy as np
import pytest

from repro.protocol.commands import (
    CommandType,
    TherapySettings,
    encode_therapy_payload,
)
from repro.protocol.imd import CONCERTO, IMDevice, IMDParameters, VIRTUOSO
from repro.protocol.packets import Packet, PacketCodec


@pytest.fixture
def imd(serial) -> IMDevice:
    return IMDevice(serial)


def _command(serial, opcode=CommandType.INTERROGATE, payload=b"") -> Packet:
    return Packet(serial, opcode, 1, payload)


class TestParameters:
    def test_virtuoso_timing_matches_paper(self):
        """Fig. 3: 3.5 ms reply; S6: window [2.8, 3.7] ms, P = 21 ms."""
        assert VIRTUOSO.reply_delay_s == pytest.approx(3.5e-3)
        # The reply jitter is drawn from [-j, j/2] around the delay.
        earliest = VIRTUOSO.reply_delay_s - VIRTUOSO.reply_jitter_s
        latest = VIRTUOSO.reply_delay_s + VIRTUOSO.reply_jitter_s / 2
        assert earliest >= 2.8e-3 - 1e-9
        assert latest <= 3.7e-3 + 1e-9
        assert VIRTUOSO.max_packet_duration_s == pytest.approx(21e-3)

    def test_concerto_shares_timing(self):
        """S10: 'the two IMDs did not show any significant difference'."""
        assert CONCERTO.reply_delay_s == VIRTUOSO.reply_delay_s

    def test_validation(self):
        with pytest.raises(ValueError):
            IMDParameters(name="bad", reply_delay_s=0.0)
        with pytest.raises(ValueError):
            IMDParameters(name="bad", telemetry_payload_bytes=0)


class TestReceivePath:
    def test_interrogate_gets_telemetry(self, imd, serial):
        reply, delay = imd.handle_packet(_command(serial))
        assert reply.opcode is CommandType.TELEMETRY
        assert len(reply.payload) == imd.parameters.telemetry_payload_bytes

    def test_reply_delay_within_shield_window(self, imd, serial):
        """Every reply latency must fall inside [T1, T2] = [2.8, 3.7] ms --
        the property the shield's jam window depends on."""
        for _ in range(300):
            _, delay = imd.handle_packet(_command(serial))
            assert 2.8e-3 <= delay <= 3.7e-3

    def test_wrong_serial_ignored(self, imd):
        other = bytes(reversed(range(10)))
        assert imd.handle_packet(_command(other)) is None
        assert imd.accepted_packets == 0

    def test_imd_responses_not_treated_as_commands(self, imd, serial):
        """Replayed IMD telemetry must not trigger anything."""
        assert imd.handle_packet(_command(serial, CommandType.TELEMETRY)) is None

    def test_therapy_change_applied_and_acked(self, imd, serial):
        settings = TherapySettings(pacing_rate_bpm=100, shock_energy_j=5)
        packet = _command(serial, CommandType.SET_THERAPY, encode_therapy_payload(settings))
        reply, _ = imd.handle_packet(packet)
        assert reply.opcode is CommandType.ACK
        assert imd.therapy == settings

    def test_malformed_therapy_rejected_silently(self, imd, serial):
        packet = _command(serial, CommandType.SET_THERAPY, b"bad")
        assert imd.handle_packet(packet) is None
        assert imd.therapy == TherapySettings()

    def test_session_open_close(self, imd, serial):
        for opcode in (CommandType.SESSION_OPEN, CommandType.SESSION_CLOSE):
            reply, _ = imd.handle_packet(_command(serial, opcode))
            assert reply.opcode is CommandType.ACK
            assert reply.payload == bytes([int(opcode)])

    def test_corrupt_bits_discarded(self, imd, serial, codec, rng):
        """S3.1: 'the IMD will discard any message that fails the
        checksum test' -- the property jamming exploits."""
        bits = codec.encode(_command(serial))
        bits[60] ^= 1
        assert imd.handle_bits(bits) is None
        assert imd.accepted_packets == 0
        assert imd.transmissions == 0

    def test_clean_bits_accepted(self, imd, serial, codec):
        result = imd.handle_bits(codec.encode(_command(serial)))
        assert result is not None

    def test_replayed_command_accepted(self, imd, serial, codec):
        """The vulnerability the shield exists to cover: the air protocol
        has no replay protection, so a verbatim copy works."""
        bits = codec.encode(_command(serial))
        assert imd.handle_bits(bits.copy()) is not None
        assert imd.handle_bits(bits.copy()) is not None
        assert imd.accepted_packets == 2


class TestBattery:
    """Battery drain is counted in transmissions: each reply is one."""

    def test_each_reply_costs_energy(self, imd, serial):
        before = imd.transmissions
        imd.handle_packet(_command(serial))
        assert imd.transmissions == before + 1

    def test_depletion_attack_accumulates(self, imd, serial):
        """Fig. 11's attack goal: every triggered reply burns battery."""
        for i in range(50):
            imd.handle_packet(Packet(serial, CommandType.INTERROGATE, i, b""))
        assert imd.transmissions == 50

    def test_fraction_remaining_decreases(self, imd, serial):
        assert imd.transmissions == 0
        imd.handle_packet(_command(serial))
        imd.handle_packet(_command(serial))
        assert imd.transmissions == 2

    def test_ignored_packets_cost_nothing(self, imd):
        other = bytes(reversed(range(10)))
        imd.handle_packet(_command(other))
        assert imd.transmissions == 0


class TestTelemetryRecord:
    def test_reflects_current_therapy(self, imd, serial):
        reply, _ = imd.handle_packet(_command(serial))
        assert reply.payload[0] == imd.therapy.pacing_rate_bpm
        assert reply.payload[1] == imd.therapy.shock_energy_j
