"""Cross-module integration tests: coexistence, wideband defence, relay.

These exercise the end-to-end stories the paper tells: the shield leaves
legitimate users of the band alone (S11), defends across all ten MICS
channels against hopping adversaries (S7(c)), and carries the full
encrypted programmer <-> shield <-> IMD exchange (S4).
"""

import numpy as np
import pytest

from repro.adversary.active import CommandInjector
from repro.core.relay import ProgrammerLink, ShieldRelay
from repro.crypto.pairing import OutOfBandPairing
from repro.experiments.testbed import AttackTestbed, Placement
from repro.phy.gmsk import GMSKConfig, GMSKModulator
from repro.protocol.commands import CommandType
from repro.protocol.crc import bytes_to_bits
from repro.sim.radio import RadioDevice


class CrossTrafficSource(RadioDevice):
    """A meteorological-style transmitter: GMSK frames not addressed to
    any IMD (the Vaisala radiosonde stand-in of S11)."""

    def __init__(self, simulator, channel=0, name="radiosonde"):
        super().__init__(name, simulator, {channel})
        self.channel = channel
        self.modulator = GMSKModulator(GMSKConfig())

    def send_frame(self, payload: bytes):
        air = self._require_air()
        bits = bytes_to_bits(payload)
        return air.transmit(
            source=self.name,
            channel=self.channel,
            tx_power_dbm=-16.0,
            bit_rate=self.modulator.config.bit_rate,
            bits=bits,
            kind="packet",
            meta={"role": "cross-traffic"},
        )


class TestCoexistence:
    """Table 2: the shield jams what targets its IMD, nothing else."""

    def _bed_with_crosstraffic(self, seed=0):
        bed = AttackTestbed(location_index=5, shield_present=True, seed=seed)
        source = CrossTrafficSource(bed.simulator)
        bed.links.place(
            Placement("radiosonde", location=bed.budget.geometry.location(7))
        )
        bed.air.register(source)
        return bed, source

    def test_cross_traffic_never_jammed(self, rng):
        bed, source = self._bed_with_crosstraffic()
        for i in range(20):
            source.send_frame(bytes(rng.integers(0, 256, size=30)))
            bed.simulator.run(until=bed.simulator.now + 0.05)
        jams = bed.air.transmissions_by("shield", kind="jam")
        assert jams == []

    def test_imd_traffic_always_jammed_alongside_cross_traffic(self, rng):
        """The paper alternates cross-traffic and IMD-addressed packets;
        the shield must jam 100% of the latter and 0% of the former."""
        bed, source = self._bed_with_crosstraffic(seed=3)
        jammed_attacks = 0
        n = 10
        for i in range(n):
            source.send_frame(bytes(rng.integers(0, 256, size=30)))
            bed.simulator.run(until=bed.simulator.now + 0.05)
            outcome = bed.attack_once(bed.interrogate_packet())
            jammed_attacks += outcome.shield_jammed
        assert jammed_attacks == n
        # Every jam the shield ever produced was triggered by an attack.
        jams = bed.air.transmissions_by("shield", kind="jam")
        active_jams = [j for j in jams if j.meta.get("reason") == "active"]
        assert len(active_jams) == n

    def test_turnaround_stats_match_table2(self):
        """Table 2: 270 +/- 23 us software turn-around."""
        bed = AttackTestbed(location_index=5, shield_present=True, seed=8)
        for _ in range(40):
            bed.attack_once(bed.interrogate_packet())
        samples = np.asarray(bed.shield.turnaround_samples_s)
        assert samples.size == 40
        assert abs(samples.mean() - 270e-6) < 25e-6
        assert 5e-6 < samples.std() < 60e-6


class TestWidebandDefence:
    """S7(c): the shield watches all ten channels simultaneously."""

    def test_attack_on_any_channel_is_jammed(self):
        bed = AttackTestbed(location_index=3, shield_present=True, seed=11)
        for channel in (1, 4, 9):
            attacker = CommandInjector(
                bed.simulator,
                channel=channel,
                tx_power_dbm=-16.0,
                codec=bed.codec,
                name=f"hopper-{channel}",
            )
            bed.links.place(
                Placement(
                    f"hopper-{channel}", location=bed.budget.geometry.location(3)
                )
            )
            bed.air.register(attacker)
            attacker.send_packet(bed.interrogate_packet())
        bed.simulator.run(until=0.1)
        jammed_channels = {
            j.channel for j in bed.air.transmissions_by("shield", kind="jam")
        }
        assert jammed_channels == {1, 4, 9}

    def test_simultaneous_multichannel_attack(self):
        """An adversary transmitting on several channels at once to
        confuse the shield still gets jammed on each."""
        bed = AttackTestbed(location_index=2, shield_present=True, seed=12)
        attackers = []
        for channel in (2, 3):
            a = CommandInjector(
                bed.simulator,
                channel=channel,
                tx_power_dbm=-16.0,
                codec=bed.codec,
                name=f"multi-{channel}",
            )
            bed.links.place(
                Placement(f"multi-{channel}", location=bed.budget.geometry.location(2))
            )
            bed.air.register(a)
            attackers.append(a)
        for a in attackers:
            a.send_packet(bed.interrogate_packet())
        bed.simulator.run(until=0.1)
        jammed = {j.channel for j in bed.air.transmissions_by("shield", kind="jam")}
        assert jammed == {2, 3}


class TestEncryptedRelayEndToEnd:
    """S4's full path: pairing -> encrypted command -> air -> IMD ->
    air -> decode under jamming -> encrypted reply."""

    def test_full_round_trip(self, rng):
        pairing = OutOfBandPairing(b"shield-necklace-7")
        code = pairing.generate_code(rng)
        secret = pairing.derive_secret(code)

        bed = AttackTestbed(
            location_index=1, shield_present=True, jam_imd_replies=True, seed=21
        )
        bed.shield.relay = ShieldRelay(secret, bed.codec)
        programmer = ProgrammerLink(secret, bed.codec)

        from repro.protocol.packets import Packet

        command = Packet(
            bed.imd.serial, CommandType.INTERROGATE, 1, b"\x00\x00\x00\x01"
        )
        wire = programmer.seal_command(command)
        bed.shield.receive_encrypted_command(wire)
        bed.simulator.run(until=0.1)

        # The IMD answered; the shield decoded it through its own jam and
        # sealed it for the programmer.
        assert bed.imd.transmissions == 1
        assert len(bed.shield.sealed_outbox) == 1
        reply = programmer.open_reply(bed.shield.sealed_outbox[0])
        assert reply.opcode is CommandType.TELEMETRY

        # Meanwhile the adversary's copy of the reply was jammed garbage.
        reply_tx = bed.air.transmissions_by("imd")[0]
        reception = bed.air.receive(reply_tx, "adversary")
        assert reception.bit_flips / reply_tx.n_bits > 0.25

    def test_tampered_relay_command_never_reaches_air(self, rng):
        secret = OutOfBandPairing(b"s7").derive_secret("123456")
        bed = AttackTestbed(
            location_index=1, shield_present=True, jam_imd_replies=True, seed=22
        )
        bed.shield.relay = ShieldRelay(secret, bed.codec)
        programmer = ProgrammerLink(secret, bed.codec)
        from repro.crypto.aead import AuthenticationError
        from repro.protocol.packets import Packet

        wire = bytearray(
            programmer.seal_command(
                Packet(bed.imd.serial, CommandType.SET_THERAPY, 1, bytes(6))
            )
        )
        wire[12] ^= 0xFF
        with pytest.raises(AuthenticationError):
            bed.shield.receive_encrypted_command(bytes(wire))
        assert bed.air.transmissions_by("shield") == []


class TestBatteryDepletionAccounting:
    def test_unshielded_attack_drains_battery(self):
        bed = AttackTestbed(location_index=2, shield_present=False, seed=30)
        bed.run_trials(20, command="interrogate")
        # Every interrogation forced a reply: 20 battery-draining
        # transmissions.
        assert bed.imd.transmissions == 20

    def test_shield_prevents_battery_drain(self):
        bed = AttackTestbed(location_index=2, shield_present=True, seed=30)
        bed.run_trials(20, command="interrogate")
        assert bed.imd.transmissions == 0
