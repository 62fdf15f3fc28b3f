"""Safety-property tests: direct access and IMD-originated frames.

The paper's safety arguments (S1, S3.1):

* while worn, the shield jams *any* direct command to the IMD, honest or
  not (access goes through the relay, or by removing the shield);
* the shield never jams a frame the IMD itself could have sent.
"""

from repro.experiments.testbed import AttackTestbed, Placement
from repro.protocol.commands import CommandType
from repro.protocol.programmer import Programmer
from repro.sim.radio import ProgrammerRadio


class TestEmergencyAccess:
    """S1: 'empowers medical personnel to access a protected IMD by
    removing the external device or powering it off'."""

    def _bed_with_er_programmer(self, seed=50, shield_present=True):
        bed = AttackTestbed(
            location_index=2,
            shield_present=shield_present,
            jam_imd_replies=True,
            seed=seed,
        )
        programmer = Programmer(target_serial=bed.imd.serial, codec=bed.codec)
        radio = ProgrammerRadio(bed.simulator, programmer, channel=0, name="er")
        bed.links.place(Placement("er", location=bed.budget.geometry.location(2)))
        bed.air.register(radio)
        return bed, programmer, radio

    def test_shield_blocks_even_honest_direct_access(self):
        """By design the shield jams *any* direct communication with the
        IMD -- including an honest programmer that skips the relay."""
        bed, programmer, radio = self._bed_with_er_programmer()
        radio.send_command(programmer.interrogate(), skip_lbt=True)
        bed.simulator.run(until=0.1)
        assert bed.imd.transmissions == 0

    def test_removing_the_shield_restores_direct_access(self):
        """An emergency-room programmer with no credentials talks to the
        IMD as soon as the shield is off the patient."""
        bed, programmer, radio = self._bed_with_er_programmer(
            shield_present=False
        )
        radio.send_command(programmer.interrogate(), skip_lbt=True)
        bed.simulator.run(until=0.1)
        assert bed.imd.transmissions == 1
        assert len(programmer.replies) == 1
        assert programmer.replies[0].opcode is CommandType.TELEMETRY


class TestEmergencyTransmission:
    """S3.1: the shield never jams a frame with an IMD-to-programmer
    opcode -- the IMD's own alerts must get out -- and such a frame
    cannot command the IMD."""

    def test_forged_response_frames_not_jammed_but_harmless(self):
        """An adversary transmitting with a response opcode escapes the
        jammer -- and accomplishes nothing, because the IMD ignores
        response opcodes."""
        from repro.protocol.packets import Packet

        bed = AttackTestbed(location_index=1, shield_present=True, seed=63)
        forged = Packet(bed.imd.serial, CommandType.TELEMETRY, 1, b"fake")
        outcome = bed.attack_once(forged)
        assert not outcome.shield_jammed
        assert not outcome.imd_accepted
        assert not outcome.imd_responded
