"""Coexistence scenario: the shield shares the band politely (S11).

The MICS band's primary users are meteorological systems.  This example
alternates radiosonde-style GMSK frames with IMD-addressed attack packets
and shows that the shield jams all of the latter and none of the former,
freeing the medium ~270 us after each offending signal stops.  It also
runs the event-level shield against a channel-hopping adversary: the
shield listens on every MICS channel, so it jams the adversary on every
channel it tries.

Run:  python examples/coexistence.py
"""

import numpy as np

from repro.adversary.active import CommandInjector
from repro.experiments.testbed import AttackTestbed, Placement
from repro.phy.gmsk import GMSKModulator
from repro.protocol.crc import bytes_to_bits
from repro.sim.radio import RadioDevice


class Radiosonde(RadioDevice):
    """Vaisala RS92-style GMSK telemetry source (not IMD traffic)."""

    def __init__(self, simulator, channel=0, name="radiosonde"):
        super().__init__(name, simulator, {channel})
        self.channel = channel
        self.modulator = GMSKModulator()

    def send_frame(self, payload: bytes):
        return self._require_air().transmit(
            source=self.name,
            channel=self.channel,
            tx_power_dbm=-16.0,
            bit_rate=self.modulator.config.bit_rate,
            bits=bytes_to_bits(payload),
            kind="packet",
            meta={"role": "cross-traffic"},
        )


def main() -> None:
    rng = np.random.default_rng(0)
    bed = AttackTestbed(location_index=5, shield_present=True, seed=13)
    sonde = Radiosonde(bed.simulator)
    bed.links.place(Placement("radiosonde", location=bed.budget.geometry.location(7)))
    bed.air.register(sonde)

    cross_jammed = imd_jammed = 0
    rounds = 12
    for _ in range(rounds):
        jams = len(bed.air.transmissions_by("shield", kind="jam"))
        sonde.send_frame(bytes(rng.integers(0, 256, size=30)))
        bed.simulator.run(until=bed.simulator.now + 0.05)
        cross_jammed += len(bed.air.transmissions_by("shield", kind="jam")) > jams
        outcome = bed.attack_once(bed.interrogate_packet())
        imd_jammed += outcome.shield_jammed

    turnarounds = np.asarray(bed.shield.turnaround_samples_s) * 1e6
    print(f"cross-traffic frames jammed : {cross_jammed}/{rounds}   (paper: 0)")
    print(f"IMD-addressed packets jammed: {imd_jammed}/{rounds}   (paper: all)")
    print(f"turn-around after signal end: {turnarounds.mean():.0f} +/- "
          f"{turnarounds.std():.0f} us (paper: 270 +/- 23 us)")

    print("\nchannel-hopping adversary vs. the shield:")
    for channel in (2, 6, 9):
        hopper = CommandInjector(
            bed.simulator,
            channel=channel,
            tx_power_dbm=-16.0,
            codec=bed.codec,
            name=f"hopper-{channel}",
        )
        bed.links.place(
            Placement(f"hopper-{channel}", location=bed.budget.geometry.location(3))
        )
        bed.air.register(hopper)
        before = bed.imd.accepted_packets
        hopper.send_packet(bed.interrogate_packet())
        bed.simulator.run(until=bed.simulator.now + 0.05)
        jammed = any(
            j.channel == channel
            for j in bed.air.transmissions_by("shield", kind="jam")
        )
        print(f"  channel {channel}: jammed = {jammed}, "
              f"IMD accepted = {bed.imd.accepted_packets > before}")


if __name__ == "__main__":
    main()
