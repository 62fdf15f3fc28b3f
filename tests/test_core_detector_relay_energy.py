"""Tests for the active detector, the encrypted relay, and energy."""

import numpy as np
import pytest

from repro.core.detector import ActiveDetector
from repro.core.energy import EnergyBudget, ShieldEnergyMeter
from repro.core.relay import (
    ProgrammerLink,
    ShieldRelay,
    packet_to_wire,
    wire_to_packet,
)
from repro.crypto.secure_channel import ReplayError
from repro.protocol.commands import CommandType
from repro.protocol.packets import Packet, PacketCodec


@pytest.fixture
def detector(codec, serial) -> ActiveDetector:
    return ActiveDetector(
        codec.identifying_sequence(serial),
        b_thresh=4,
        p_thresh_dbm=-17.0,
        anomaly_rssi_dbm=-38.0,
    )


class TestActiveDetector:
    def test_matches_clean_prefix(self, detector, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))
        decision = detector.evaluate(bits[:104], rssi_dbm=-60.0)
        assert decision.matched and decision.should_jam
        assert decision.distance == 0

    def test_tolerates_b_thresh_flips(self, detector, codec, serial, rng):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))[:104]
        flip = rng.choice(104, size=4, replace=False)
        bits[flip] ^= 1
        assert detector.evaluate(bits, -60.0).matched

    def test_rejects_past_b_thresh(self, detector, codec, serial, rng):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))[:104]
        flip = rng.choice(104, size=5, replace=False)
        bits[flip] ^= 1
        assert not detector.evaluate(bits, -60.0).matched

    def test_foreign_traffic_not_matched(self, detector, rng):
        assert not detector.evaluate(rng.integers(0, 2, size=104), -60.0).matched

    def test_short_burst_not_matched(self, detector, rng):
        decision = detector.evaluate(rng.integers(0, 2, size=50), -10.0)
        assert not decision.matched
        assert not decision.should_alarm  # unmatched power is not an alarm

    def test_alarm_requires_match_and_power(self, detector, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))[:104]
        quiet = detector.evaluate(bits, rssi_dbm=-60.0)
        strong = detector.evaluate(bits, rssi_dbm=-10.0)
        assert not quiet.should_alarm
        assert strong.should_alarm and strong.exceeds_p_thresh

    def test_anomaly_flag(self, detector, codec, serial):
        bits = codec.encode(Packet(serial, CommandType.INTERROGATE, 1))[:104]
        decision = detector.evaluate(bits, rssi_dbm=-30.0)
        assert decision.anomalous_power
        assert not decision.exceeds_p_thresh
        assert decision.should_alarm

    def test_window_bits(self, detector):
        assert detector.window_bits == 104

    def test_unreasonable_b_thresh_rejected(self, codec, serial):
        with pytest.raises(ValueError):
            ActiveDetector(
                codec.identifying_sequence(serial),
                b_thresh=50,
                p_thresh_dbm=-17.0,
                anomaly_rssi_dbm=-38.0,
            )


class TestRelay:
    @pytest.fixture
    def endpoints(self, codec):
        secret = bytes(32)
        return ShieldRelay(secret, codec), ProgrammerLink(secret, codec)

    def test_command_relay_round_trip(self, endpoints, serial):
        shield, programmer = endpoints
        packet = Packet(serial, CommandType.INTERROGATE, 9, b"abcd")
        wire = programmer.seal_command(packet)
        assert shield.open_command(wire) == packet
        assert shield.relayed_commands == 1

    def test_reply_relay_round_trip(self, endpoints, serial):
        shield, programmer = endpoints
        reply = Packet(serial, CommandType.TELEMETRY, 3, b"ecg-data")
        assert programmer.open_reply(shield.seal_reply(reply)) == reply

    def test_network_replay_rejected(self, endpoints, serial):
        shield, programmer = endpoints
        wire = programmer.seal_command(Packet(serial, CommandType.INTERROGATE, 1))
        shield.open_command(wire)
        with pytest.raises(ReplayError):
            shield.open_command(wire)

    def test_seal_reply_bits_clean(self, endpoints, serial, codec):
        shield, programmer = endpoints
        reply = Packet(serial, CommandType.TELEMETRY, 5, b"xy")
        # The shield decodes a reply off the air, then seals it.
        wire = shield.seal_reply(codec.decode(codec.encode(reply)))
        assert programmer.open_reply(wire) == reply

    def test_wire_serialisation_round_trip(self, codec, serial):
        packet = Packet(serial, CommandType.SET_THERAPY, 77, b"123456")
        assert wire_to_packet(packet_to_wire(packet, codec), codec) == packet


class TestEnergy:
    def test_battery_life_exceeds_24h_continuous_jamming(self):
        """S7(e): 'it can last for a day or longer even if transmitting
        continuously', like the 24-48 h wearable monitors it cites."""
        meter = ShieldEnergyMeter()
        assert meter.battery_life_hours(duty_cycle_tx=1.0) >= 24.0
        assert meter.battery_life_hours(duty_cycle_tx=1.0) <= 48.0

    def test_idle_life_much_longer(self):
        meter = ShieldEnergyMeter()
        assert meter.battery_life_hours(0.0) > 1.5 * meter.battery_life_hours(1.0)

    def test_energy_accumulates(self):
        meter = ShieldEnergyMeter()
        meter.record_transmission(10.0)
        assert meter.energy_spent_j > 0
        assert meter.tx_seconds == 10.0

    def test_validation(self):
        meter = ShieldEnergyMeter()
        with pytest.raises(ValueError):
            meter.record_transmission(-1.0)
        with pytest.raises(ValueError):
            meter.battery_life_hours(2.0)
        with pytest.raises(ValueError):
            EnergyBudget(battery_j=0)
