"""Event-level tests for the assembled shield (S6 + S7 behaviours)."""

import numpy as np
import pytest

from repro.experiments.testbed import AttackTestbed
from repro.protocol.commands import CommandType
from repro.protocol.crc import bytes_to_bits


def _bed(**kwargs) -> AttackTestbed:
    defaults = dict(location_index=1, shield_present=True, attacker="fcc", seed=5)
    defaults.update(kwargs)
    return AttackTestbed(**defaults)


class TestActiveProtection:
    def test_matched_command_is_jammed(self):
        bed = _bed()
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.shield_jammed
        assert not outcome.imd_accepted

    def test_detection_recorded(self):
        bed = _bed()
        bed.attack_once(bed.interrogate_packet())
        assert len(bed.shield.jam_records) >= 1
        assert bed.shield.jam_records[0].decision.matched

    def test_jam_starts_after_detection_window(self):
        """The jam must begin after m bits + turn-around, not instantly."""
        bed = _bed()
        bed.attack_once(bed.interrogate_packet())
        jams = bed.air.transmissions_by("shield", kind="jam")
        attack = bed.air.transmissions_by("adversary")[0]
        m_bits_duration = bed.shield.detector.window_bits / attack.bit_rate
        assert jams[0].start_time >= attack.start_time + m_bits_duration

    def test_jam_stops_after_turnaround(self):
        """Table 2: the shield frees the medium ~270 us after the
        adversary stops."""
        bed = _bed()
        bed.attack_once(bed.interrogate_packet())
        jam = bed.air.transmissions_by("shield", kind="jam")[0]
        attack = bed.air.transmissions_by("adversary")[0]
        lag = jam.end_time - attack.end_time
        assert 100e-6 < lag < 500e-6

    def test_turnaround_samples_collected(self):
        bed = _bed()
        for _ in range(10):
            bed.attack_once(bed.interrogate_packet())
        samples = bed.shield.turnaround_samples_s
        assert len(samples) == 10
        assert abs(float(np.mean(samples)) - 270e-6) < 60e-6

    def test_foreign_serial_not_jammed(self):
        """Traffic addressed to another IMD must pass untouched --
        coexistence depends on it."""
        bed = _bed()
        from repro.protocol.packets import Packet

        other = bytes(reversed(range(10)))
        stray = Packet(other, CommandType.INTERROGATE, 1, b"xxxx")
        outcome = bed.attack_once(stray)
        assert not outcome.shield_jammed

    def test_jamming_disabled_logs_only(self):
        bed = _bed(shield_jamming_enabled=False)
        outcome = bed.attack_once(bed.interrogate_packet())
        assert not outcome.shield_jammed
        assert outcome.imd_accepted  # nothing stopped it
        assert len(bed.shield.jam_records) == 1

    def test_therapy_command_blocked(self):
        bed = _bed()
        outcome = bed.attack_once(bed.therapy_packet())
        assert not outcome.therapy_changed


class TestAlarms:
    def test_fcc_adversary_never_alarms(self):
        """Fig. 11: quiet failures; the FCC-power attack never exceeds
        P_thresh at any distance the jamming cannot cover."""
        bed = _bed(location_index=5)
        for _ in range(10):
            outcome = bed.attack_once(bed.interrogate_packet())
            assert not outcome.alarm_raised

    def test_highpower_nearby_alarms(self):
        """Fig. 13: the shield flags high-powered nearby transmissions."""
        bed = _bed(attacker="highpower")
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.alarm_raised

    def test_alarm_reasons_recorded(self):
        bed = _bed(attacker="highpower")
        bed.attack_once(bed.interrogate_packet())
        reasons = {e.reason for e in bed.shield.alarms.events}
        assert reasons <= {"above-p-thresh", "power-anomaly"}
        assert reasons


class TestRelayPath:
    def test_shield_relays_command_and_decodes_reply(self, serial):
        """S4 end to end at the event level: the shield commands the IMD
        and decodes the reply while jamming the reply window."""
        bed = _bed(jam_imd_replies=True)
        from repro.protocol.packets import Packet

        command = Packet(bed.imd.serial, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01")
        bed.shield.send_command_to_imd(command)
        bed.simulator.run(until=0.08)
        assert bed.imd.transmissions == 1
        assert len(bed.shield.decoded_replies) == 1
        assert bed.shield.decoded_replies[0].opcode is CommandType.TELEMETRY

    def test_reply_window_jam_covers_reply(self):
        """The S6 window [T1, T2-T1+P] must bracket the actual reply."""
        bed = _bed(jam_imd_replies=True)
        from repro.protocol.packets import Packet

        command = Packet(bed.imd.serial, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01")
        bed.shield.send_command_to_imd(command)
        bed.simulator.run(until=0.08)
        jams = [
            t
            for t in bed.air.transmissions_by("shield", kind="jam")
            if t.meta.get("reason") == "reply-window"
        ]
        reply = bed.air.transmissions_by("imd")[0]
        assert jams, "no reply-window jam was scheduled"
        jam = jams[0]
        assert jam.start_time <= reply.start_time
        assert jam.end_time >= reply.end_time

    def test_eavesdropper_cannot_read_jammed_reply(self):
        """While the shield jams the reply window, an adversary's copy of
        the reply is effectively noise (event-level check)."""
        bed = _bed(jam_imd_replies=True)
        from repro.protocol.packets import Packet

        command = Packet(bed.imd.serial, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01")
        bed.shield.send_command_to_imd(command)
        bed.simulator.run(until=0.08)
        reply = bed.air.transmissions_by("imd")[0]
        reception = bed.air.receive(reply, "adversary")
        assert reception.bit_flips / reply.n_bits > 0.3

    def test_shield_reply_loss_rate_low(self):
        """Fig. 10: the shield's own decode loss under jamming is tiny."""
        bed = _bed(jam_imd_replies=True)
        from repro.protocol.packets import Packet

        for i in range(30):
            command = Packet(
                bed.imd.serial, CommandType.INTERROGATE, i % 256, b"\x00\x00\x00\x01"
            )
            bed.shield.send_command_to_imd(command)
            bed.simulator.run(until=bed.simulator.now + 0.08)
        assert bed.shield.reply_loss_rate() <= 0.1


class TestMessageAlterationDefence:
    def test_concurrent_signal_aborts_relay_and_jams(self):
        """S7 rule 2: a signal overlapping the shield's own message makes
        the shield switch from transmission to jamming, so the adversary
        cannot ride on the shield's packets."""
        bed = _bed(jam_imd_replies=True)
        from repro.protocol.packets import Packet

        command = Packet(bed.imd.serial, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01")
        bed.shield.send_command_to_imd(command)
        # Adversary fires 0.5 ms into the shield's ~1.8 ms transmission.
        bed.simulator.schedule(
            0.5e-3, lambda: bed.attacker.send_packet(bed.interrogate_packet())
        )
        bed.simulator.run(until=0.08)
        assert bed.shield.aborted_relays == 1
        assert bed.air.transmissions_by("shield", kind="jam")
        # Neither the truncated relay nor the adversary command worked.
        assert bed.imd.accepted_packets == 0


class TestImdOriginOpcodes:
    def test_every_opcode_byte(self):
        """The opcode set agrees with ``CommandType.is_imd_response`` on
        all 256 bytes; a byte that is no opcode is not an IMD frame."""
        bed = _bed()
        prefix = bed.shield.detector.sequence.bits
        for byte in range(256):
            bits = np.concatenate([prefix, bytes_to_bits(bytes([byte]))])
            try:
                expected = CommandType(byte).is_imd_response
            except ValueError:
                expected = False
            assert bed.shield._is_imd_origin_frame(bits) is expected, byte

    def test_prefix_without_opcode_is_not_an_imd_frame(self):
        bed = _bed()
        prefix = bed.shield.detector.sequence.bits
        assert bed.shield._is_imd_origin_frame(prefix) is False
        assert bed.shield._is_imd_origin_frame(None) is False
