"""Active adversaries: command injection and replay (S3.2(b), S9).

Two event-level attacker radios:

* :class:`CommandInjector` -- synthesises unauthorized command packets
  directly (a reverse-engineering adversary, or equivalently one using a
  commercial programmer when limited to FCC power: the paper notes an
  unmodified programmer "cannot use a transmit power higher than that
  allowed by the FCC").
* :class:`ReplayAttacker` -- the S9 methodology: records programmer
  transmissions off the air, demodulates them to bits (removing channel
  noise), and re-modulates a clean copy later.
"""

from __future__ import annotations

from repro.protocol.packets import DecodeError, Packet, PacketCodec
from repro.sim.air import AirTransmission
from repro.sim.engine import Simulator
from repro.sim.radio import RadioDevice

__all__ = ["CommandInjector", "ReplayAttacker"]


class CommandInjector(RadioDevice):
    """Transmits unauthorized commands to the IMD, ignoring LBT etiquette."""

    def __init__(
        self,
        simulator: Simulator,
        channel: int,
        tx_power_dbm: float,
        codec: PacketCodec | None = None,
        name: str = "adversary",
        bit_rate: float = 100e3,
    ):
        super().__init__(name, simulator, {channel})
        self.channel = channel
        self.tx_power_dbm = tx_power_dbm
        self.codec = codec or PacketCodec()
        self.bit_rate = bit_rate
        self.sent: list[AirTransmission] = []

    def send_packet(self, packet: Packet) -> AirTransmission:
        """Put one unauthorized command on the air right now."""
        air = self._require_air()
        bits = self.codec.encode(packet)
        tx = air.transmit(
            source=self.name,
            channel=self.channel,
            tx_power_dbm=self.tx_power_dbm,
            bit_rate=self.bit_rate,
            bits=bits,
            kind="packet",
            meta={"role": "attack", "opcode": int(packet.opcode)},
        )
        self.sent.append(tx)
        return tx


class ReplayAttacker(CommandInjector):
    """Records programmer commands, then replays clean copies (S9).

    "Analog replaying of these captured signals doubles their noise ...
    so the adversary demodulates the programmer's FSK signal into the
    transmitted bits to remove the channel noise [and] re-modulates the
    bits to obtain a clean version of the signal."  In the event-level
    simulation, demodulation happens through the attacker's own (noisy)
    reception; only recordings that decode to a valid packet are kept,
    mirroring the clean-up step.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorded: list[Packet] = []

    def on_transmission_end(self, tx: AirTransmission) -> None:
        if tx.kind != "packet" or tx.source == self.name:
            return
        air = self._require_air()
        reception = air.receive(tx, self.name)
        if reception.bits is None:
            return
        try:
            packet = self.codec.decode(reception.bits)
        except DecodeError:
            return
        if not packet.opcode.is_imd_response:
            self.recorded.append(packet)

    def replay(self, index: int = -1) -> AirTransmission:
        """Re-modulate and transmit a recorded command."""
        if not self.recorded:
            raise RuntimeError("nothing recorded to replay")
        return self.send_packet(self.recorded[index])
