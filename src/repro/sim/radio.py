"""Radio device adapters: glue between protocol models and the air.

Each adapter owns a name, the set of MICS channels it monitors, and the
reactions to transmission start/end notifications.  The base class keeps
the duck type the :class:`repro.sim.air.Air` expects in one place.
"""

from __future__ import annotations

from repro.protocol.imd import IMDevice
from repro.protocol.packets import Packet, PacketCodec
from repro.protocol.programmer import Programmer
from repro.sim.air import Air, AirTransmission, Reception
from repro.sim.engine import Simulator
from repro.sim.trace import TimelineTrace

__all__ = ["RadioDevice", "IMDRadio", "ProgrammerRadio", "ObserverRadio"]


class RadioDevice:
    """Base radio: registry handshake plus default no-op notifications.

    ``full_duplex_rejection_db`` is ``None`` for half-duplex radios: their
    own transmission saturates their receiver.  The shield overrides it
    with its antidote cancellation (S5).
    """

    full_duplex_rejection_db: float | None = None

    def __init__(
        self, name: str, simulator: Simulator, monitored_channels: set[int]
    ):
        self.name = name
        self.simulator = simulator
        self.monitored_channels = set(monitored_channels)
        self.air: Air | None = None

    def attach(self, air: Air) -> None:
        self.air = air

    def on_transmission_start(self, tx: AirTransmission) -> None:  # noqa: B027
        """Called when another device starts transmitting on a monitored
        channel.  Default: ignore."""

    def on_transmission_end(self, tx: AirTransmission) -> None:  # noqa: B027
        """Called when another device's transmission ends.  Default: ignore."""

    def _require_air(self) -> Air:
        if self.air is None:
            raise RuntimeError(f"device {self.name!r} is not attached to an Air")
        return self.air


class IMDRadio(RadioDevice):
    """The implanted device on the air.

    Decodes every packet that ends on its channel, hands the (possibly
    jammed) bits to the :class:`~repro.protocol.imd.IMDevice` model, and
    transmits any reply after the device's fixed latency -- *without
    carrier sensing*, reproducing the Fig. 3(b) behaviour.
    """

    def __init__(
        self,
        simulator: Simulator,
        device: IMDevice,
        channel: int,
        name: str = "imd",
        trace: TimelineTrace | None = None,
    ):
        super().__init__(name, simulator, {channel})
        self.device = device
        self.channel = channel
        self.trace = trace
        self._transmitting_until = -1.0

    def on_transmission_end(self, tx: AirTransmission) -> None:
        if tx.kind != "packet" or tx.channel != self.channel:
            return
        # Half-duplex: while the IMD itself transmits, it cannot receive.
        if self.simulator.now < self._transmitting_until:
            return
        air = self._require_air()
        reception = air.receive(tx, self.name)
        if self.trace is not None:
            self.trace.record(
                self.simulator.now, self.name, "rx", sinr_db=reception.mean_sinr_db
            )
        result = self.device.handle_bits(reception.bits)
        if result is None:
            return
        reply, delay = result
        self.simulator.schedule(
            delay, lambda: self._transmit_reply(reply), name="imd-reply"
        )

    def _transmit_reply(self, reply: Packet) -> None:
        """Transmit the reply immediately -- no medium sensing (Fig. 3(b))."""
        self._transmit_packet(reply, role="imd-reply")

    def _transmit_packet(self, packet: Packet, role: str) -> None:
        air = self._require_air()
        bits = self.device.codec.encode(packet)
        tx = air.transmit(
            source=self.name,
            channel=self.channel,
            tx_power_dbm=self.device.parameters.tx_power_dbm,
            bit_rate=self.device.parameters.bit_rate,
            bits=bits,
            kind="packet",
            meta={"opcode": int(packet.opcode), "role": role},
        )
        self._transmitting_until = tx.scheduled_end()
        if self.trace is not None:
            self.trace.record(
                self.simulator.now,
                self.name,
                "tx-start",
                opcode=int(packet.opcode),
                duration=tx.scheduled_end() - self.simulator.now,
            )


class ProgrammerRadio(RadioDevice):
    """An honest programmer on the air: listen-before-talk, then command."""

    def __init__(
        self,
        simulator: Simulator,
        programmer: Programmer,
        channel: int,
        name: str = "programmer",
        trace: TimelineTrace | None = None,
    ):
        super().__init__(name, simulator, {channel})
        self.programmer = programmer
        self.channel = channel
        self.trace = trace

    def send_command(self, packet: Packet, skip_lbt: bool = False) -> None:
        """Queue a command: sense the channel for 10 ms, then transmit.

        If the channel is busy at the end of the listening window the
        programmer retries after another listening period (simplified
        back-off).
        """
        if skip_lbt:
            self._transmit(packet)
            return
        lbt = self.programmer.listen_before_talk_s()
        self.simulator.schedule(
            lbt, lambda: self._after_listen(packet), name="programmer-lbt"
        )

    def _after_listen(self, packet: Packet) -> None:
        air = self._require_air()
        if air.channel_busy(self.channel):
            lbt = self.programmer.listen_before_talk_s()
            self.simulator.schedule(
                lbt, lambda: self._after_listen(packet), name="programmer-lbt-retry"
            )
            return
        self._transmit(packet)

    def _transmit(self, packet: Packet) -> None:
        air = self._require_air()
        bits = self.programmer.codec.encode(packet)
        tx = air.transmit(
            source=self.name,
            channel=self.channel,
            tx_power_dbm=self.programmer.tx_power_dbm,
            bit_rate=100e3,
            bits=bits,
            kind="packet",
            meta={"opcode": int(packet.opcode), "role": "programmer-command"},
        )
        if self.trace is not None:
            self.trace.record(
                self.simulator.now,
                self.name,
                "tx-start",
                opcode=int(packet.opcode),
                duration=tx.scheduled_end() - self.simulator.now,
            )

    def on_transmission_end(self, tx: AirTransmission) -> None:
        if tx.kind != "packet":
            return
        air = self._require_air()
        reception = air.receive(tx, self.name)
        self.programmer.handle_bits(reception.bits)


class ObserverRadio(RadioDevice):
    """The paper's in-phantom USRP observer (S10.3): records receptions.

    Used by the attack experiments to check whether the IMD responded,
    without relying on the attacker's own (possibly jammed) vantage
    point.
    """

    def __init__(
        self,
        simulator: Simulator,
        channels: set[int],
        name: str = "observer",
        codec: PacketCodec | None = None,
    ):
        super().__init__(name, simulator, channels)
        self.codec = codec or PacketCodec()
        self.receptions: list[Reception] = []

    def on_transmission_end(self, tx: AirTransmission) -> None:
        if tx.kind != "packet":
            return
        air = self._require_air()
        self.receptions.append(air.receive(tx, self.name))
