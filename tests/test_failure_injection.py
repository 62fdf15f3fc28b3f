"""Failure-injection tests: what breaks when components degrade.

Each test damages one component and checks that the system fails the way
the design predicts -- protection degrades in the documented direction,
and no failure silently *helps* an adversary more than analysis says it
should.
"""

import numpy as np
import pytest

from repro.core.config import ShieldConfig
from repro.core.detector import ActiveDetector
from repro.core.policy import JamWindowPolicy
from repro.core.relay import ProgrammerLink, ShieldRelay
from repro.crypto.aead import AuthenticationError
from repro.crypto.pairing import OutOfBandPairing
from repro.experiments.testbed import AttackTestbed
from repro.experiments.waveform_lab import PassiveLab
from repro.protocol.commands import CommandType
from repro.protocol.imd import IMDParameters
from repro.protocol.packets import Packet


class TestDegradedCancellation:
    def test_poor_cancellation_costs_decode_not_protection(self):
        """A shield whose antidote only reaches ~12 dB still jams the
        eavesdropper perfectly -- it just starts losing its *own*
        packets.  Confidentiality never depends on the cancellation."""
        lab = PassiveLab(
            shield_config=ShieldConfig(
                antenna_cancellation_db=12.0,
                antenna_cancellation_std_db=1.0,
                estimation_error_std=0.25,
                digital_cancellation_db=0.0,
            ),
            seed=5,
        )
        eve_bers, losses = [], 0
        for _ in range(30):
            trial = lab.run_trial(20.0, use_digital=False)
            eve_bers.append(trial.eavesdropper_ber)
            losses += trial.shield_packet_lost
        assert np.mean(eve_bers) > 0.4  # adversary still blind
        assert losses > 5  # the shield itself suffers


class TestMisconfiguredDetector:
    def test_wrong_serial_shield_protects_nothing(self):
        """A shield calibrated against the wrong device ID watches the
        attack sail past -- configuration is part of the TCB."""
        bed = AttackTestbed(location_index=1, shield_present=True, seed=9)
        wrong_serial = bytes(reversed(range(10)))
        bed.shield.detector = ActiveDetector(
            bed.codec.identifying_sequence(wrong_serial),
            b_thresh=4,
            p_thresh_dbm=-17.4,
            anomaly_rssi_dbm=-30.0,
        )
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.imd_responded
        assert not outcome.shield_jammed

    def test_zero_b_thresh_still_catches_clean_headers(self):
        """b_thresh = 0 is strict but not broken: noiseless attack
        headers still match exactly."""
        bed = AttackTestbed(location_index=1, shield_present=True, seed=10)
        bed.shield.detector = ActiveDetector(
            bed.codec.identifying_sequence(bed.imd.serial),
            b_thresh=0,
            p_thresh_dbm=-17.4,
            anomaly_rssi_dbm=-30.0,
        )
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.shield_jammed


class TestOutOfSpecIMD:
    def test_slow_imd_escapes_the_jam_window(self):
        """An IMD replying *outside* the calibrated [T1, T2] window
        defeats the reply-window jam -- which is exactly why S6 says
        'each shield should calibrate the above parameters for its own
        IMD'."""
        window = JamWindowPolicy().window_after(0.0)
        # In-spec replies are covered...
        assert window.start_time <= 3.5e-3
        assert 3.5e-3 + 10e-3 <= window.end_time
        # ...an out-of-spec straggler is not.
        assert 6.0e-3 + 21e-3 > window.end_time

    def test_miscalibrated_shield_leaks_reply(self):
        """End to end: protect a (pathologically) slow IMD with default
        Virtuoso shield timing and the reply starts after the jam window
        has closed -- the whole packet leaks."""
        slow = IMDParameters(name="slow-imd", reply_delay_s=30.0e-3)
        bed = AttackTestbed(
            location_index=1,
            shield_present=True,
            jam_imd_replies=True,
            imd_parameters=slow,
            seed=11,
        )
        command = Packet(
            bed.imd.serial, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01"
        )
        bed.shield.send_command_to_imd(command)
        bed.simulator.run(until=0.1)
        reply = bed.air.transmissions_by("imd")[0]
        eve_copy = bed.air.receive(reply, "adversary")
        # The window closed before the reply finished: most of it leaked
        # (jam covers at most the leading edge).
        assert eve_copy.bit_flips < reply.n_bits / 10


class TestBrokenRelay:
    def test_wrong_pairing_code_cannot_command(self):
        bed = AttackTestbed(location_index=1, shield_present=True, seed=12)
        pairing = OutOfBandPairing(b"shield-z")
        bed.shield.relay = ShieldRelay(pairing.derive_secret("111111"), bed.codec)
        imposter = ProgrammerLink(pairing.derive_secret("999999"), bed.codec)
        wire = imposter.seal_command(
            Packet(bed.imd.serial, CommandType.SET_THERAPY, 1, bytes(6))
        )
        with pytest.raises(AuthenticationError):
            bed.shield.receive_encrypted_command(wire)
        assert bed.air.transmissions_by("shield") == []

    def test_truncated_wire_rejected(self):
        bed = AttackTestbed(location_index=1, shield_present=True, seed=13)
        secret = OutOfBandPairing(b"shield-z").derive_secret("123123")
        bed.shield.relay = ShieldRelay(secret, bed.codec)
        link = ProgrammerLink(secret, bed.codec)
        wire = link.seal_command(
            Packet(bed.imd.serial, CommandType.INTERROGATE, 1, b"abcd")
        )
        with pytest.raises(AuthenticationError):
            bed.shield.receive_encrypted_command(wire[: len(wire) // 2])
