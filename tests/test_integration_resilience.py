"""Resilience integration tests: DoS channel switching, two patients.

Two stories the substrate layers promise individually, checked end to
end:

* S2's persistent-interference rule: a denial-of-service jammer parked on
  the session channel forces the pair to a fresh channel, where the
  session completes;
* per-device identifying sequences (S7(a)): two patients with their own
  shields can stand next to each other -- each shield jams only commands
  addressed to *its* implant.
"""

import numpy as np

from repro.core.relay import ProgrammerLink, ShieldRelay
from repro.crypto.pairing import OutOfBandPairing
from repro.experiments.testbed import AttackTestbed, Placement
from repro.protocol.commands import CommandType
from repro.protocol.workflow import RelayedSessionWorkflow
from repro.sim.radio import RadioDevice


class _DoSJammer(RadioDevice):
    """Continuously occupies one channel with noise."""

    def __init__(self, simulator, channel, name="dos"):
        super().__init__(name, simulator, {channel})
        self.channel = channel

    def start(self, duration=10.0):
        self._require_air().transmit(
            source=self.name,
            channel=self.channel,
            tx_power_dbm=0.0,
            bit_rate=100e3,
            kind="jam",
            duration=duration,
        )


class TestPersistentInterferenceSwitch:
    def test_session_moves_off_a_jammed_channel(self):
        secret = OutOfBandPairing(b"sw").derive_secret("123456")
        bed = AttackTestbed(
            location_index=1, shield_present=True, jam_imd_replies=True, seed=31
        )
        bed.shield.relay = ShieldRelay(secret, bed.codec)
        link = ProgrammerLink(secret, bed.codec)
        flow = RelayedSessionWorkflow(
            bed.simulator, bed.shield, link, target_serial=bed.imd.serial
        )
        dos = _DoSJammer(bed.simulator, channel=0)
        bed.links.place(Placement("dos", location=bed.budget.geometry.location(4)))
        bed.air.register(dos)
        dos.start()

        outcome = flow.open()
        assert outcome.channel_index == 0
        # Commands on the jammed channel fail until the persistent-
        # interference rule trips and the session moves; the IMD rescans.
        for _ in range(flow.session.interference_limit):
            flow.interrogate()
        assert flow.channel_switches == 1
        assert outcome.channel_index != 0
        # The IMD rescans and follows its programmer to the new channel.
        bed.imd_radio.channel = outcome.channel_index
        bed.imd_radio.monitored_channels = {outcome.channel_index}

        flow.interrogate()
        assert len(outcome.telemetry_records) >= 1
        flow.close()


class TestTwoPatients:
    def test_each_shield_protects_only_its_own_imd(self):
        """Two shielded patients side by side: commands to patient B's
        implant are jammed by B's shield, ignored by A's."""
        from repro.core.config import ShieldConfig
        from repro.core.detector import ActiveDetector
        from repro.core.shield import ShieldRadio
        from repro.protocol.imd import IMDevice
        from repro.protocol.packets import Packet
        from repro.sim.radio import IMDRadio

        bed = AttackTestbed(location_index=2, shield_present=True, seed=32)

        serial_b = bytes(reversed(range(10)))
        imd_b = IMDevice(serial_b, codec=bed.codec, rng=np.random.default_rng(99))
        imd_b_radio = IMDRadio(bed.simulator, imd_b, channel=0, name="imd-b")
        bed.links.place(Placement("imd-b", in_phantom=True))
        bed.air.register(imd_b_radio)

        config = ShieldConfig(
            passive_jam_tx_dbm=bed.budget.passive_jam_tx_dbm(),
            detection_window_bits=bed.codec.header_bit_count(),
        )
        shield_b = ShieldRadio(
            bed.simulator,
            config,
            ActiveDetector(
                bed.codec.identifying_sequence(serial_b),
                b_thresh=config.b_thresh,
                p_thresh_dbm=config.p_thresh_dbm,
                anomaly_rssi_dbm=config.anomaly_rssi_dbm,
            ),
            session_channel=0,
            codec=bed.codec,
            name="shield-b",
            rng=np.random.default_rng(100),
            jam_imd_replies=False,
            imd_source_name="imd-b",
        )
        bed.links.place(Placement("shield-b", on_body=True))
        bed.air.register(shield_b)

        # Attack patient A's implant: only shield A jams.
        outcome = bed.attack_once(bed.interrogate_packet())
        assert outcome.shield_jammed
        assert not outcome.imd_responded
        assert bed.air.transmissions_by("shield-b", kind="jam") == []

        # Attack patient B's implant: only shield B jams.
        jams_a_before = len(bed.air.transmissions_by("shield", kind="jam"))
        packet_b = Packet(serial_b, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01")
        bed.attacker.send_packet(packet_b)
        bed.simulator.run(until=bed.simulator.now + 0.08)
        assert imd_b.transmissions == 0
        assert bed.air.transmissions_by("shield-b", kind="jam")
        assert (
            len(bed.air.transmissions_by("shield", kind="jam")) == jams_a_before
        )
