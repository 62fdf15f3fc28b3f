"""Clinical session workflow: the programmer's side of a full check-up.

The paper's programmer "initiates a session with the IMD during which it
either queries the IMD for its data (e.g., patient name, ECG signal) or
sends it commands (e.g., a treatment modification)" (S2).  This module
drives that workflow over the event simulator through either path:

* direct (the unshielded baseline), or
* relayed (via the shield's encrypted channel -- the S4 architecture).

It exercises the pieces the lower layers provide -- the channel plan and
listen-before-talk etiquette, the session state machine, and the relay --
as one coherent clinical interaction, which is also what the
``examples/clinical_session.py`` walkthrough runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.relay import ProgrammerLink
from repro.core.shield import ShieldRadio
from repro.mics.channel_plan import ChannelPlan
from repro.protocol.commands import CommandType, TherapySettings
from repro.protocol.packets import Packet
from repro.protocol.programmer import Programmer
from repro.protocol.session import Session, SessionState
from repro.sim.engine import Simulator

__all__ = ["SessionOutcome", "RelayedSessionWorkflow"]


@dataclass
class SessionOutcome:
    """What a clinical session accomplished."""

    channel_index: int
    telemetry_records: list[bytes] = field(default_factory=list)
    acks: list[int] = field(default_factory=list)
    commands_sent: int = 0


class RelayedSessionWorkflow:
    """Drive a full programmer session through the shield's relay.

    The programmer never touches the air around the patient: every
    command goes over the encrypted link; the shield transmits it,
    collects the IMD's (jam-protected) reply, and seals it back.
    """

    def __init__(
        self,
        simulator: Simulator,
        shield: ShieldRadio,
        link: ProgrammerLink,
        target_serial: bytes,
        channel_plan: ChannelPlan | None = None,
    ):
        if shield.relay is None:
            raise ValueError("the shield must carry a relay endpoint")
        self.simulator = simulator
        self.shield = shield
        self.link = link
        self.programmer = Programmer(target_serial=target_serial, codec=link.codec)
        self.plan = channel_plan or ChannelPlan()
        self.session = Session()
        self._outcome: SessionOutcome | None = None
        self._delivered = 0
        self.channel_switches = 0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def open(self) -> SessionOutcome:
        """Listen, claim a channel, and open the session with the IMD."""
        self.session.start_listening()
        # The 10 ms listen-before-talk pause (S2).
        self.simulator.run(
            until=self.simulator.now + self.programmer.listen_before_talk_s()
        )
        channel = self.plan.pick_channel(self.simulator.now)
        self.session.activate(channel)
        # S2: the pair "can keep using the channel until the end of their
        # session" -- hold it until close() releases it.
        self.plan.occupy(channel, float("inf"))
        self._outcome = SessionOutcome(channel_index=channel)
        self._send(self.programmer.open_session())
        return self._outcome

    def interrogate(self) -> None:
        """Query stored telemetry (one record per call)."""
        self._require_open()
        self._send(self.programmer.interrogate())

    def set_therapy(self, settings: TherapySettings) -> None:
        self._require_open()
        self._send(self.programmer.set_therapy(settings))

    def close(self) -> SessionOutcome:
        self._require_open()
        self._send(self.programmer.close_session())
        self.session.close()
        self.plan.release(self._outcome.channel_index)
        return self._outcome

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self.session.state is not SessionState.ACTIVE:
            raise RuntimeError("session is not active; call open() first")

    def _send(self, packet: Packet) -> None:
        wire = self.link.seal_command(packet)
        self.shield.receive_encrypted_command(wire)
        self.session.record_command()
        self._outcome.commands_sent += 1
        # Let the command, the reply window, and the reply play out.
        replies_before = self._delivered
        self.simulator.run(until=self.simulator.now + 0.06)
        self._drain_replies()
        if self._delivered == replies_before:
            # No reply made it through: count an interference event; on
            # persistent interference, abandon the channel and move the
            # whole session to a fresh one (S2: pairs that "encounter
            # persistent interference ... listen again to find an
            # unoccupied channel").
            if self.session.record_interference():
                self._switch_channel()

    def _switch_channel(self) -> None:
        old = self._outcome.channel_index
        self.plan.release(old)
        self.session.start_listening()
        self.simulator.run(
            until=self.simulator.now + self.programmer.listen_before_talk_s()
        )
        new = self._pick_clear_channel()
        self.session.activate(new)
        self.plan.occupy(new, float("inf"))
        self._outcome.channel_index = new
        self.shield.session_channel = new
        self.channel_switches += 1

    def _pick_clear_channel(self) -> int:
        """First channel idle in the plan *and* quiet on the air.

        The channel plan only tracks cooperative claims; the listening
        step must also carrier-sense, or the session would walk straight
        back onto a jammed channel.  The air's per-channel occupancy
        provides the sensing.
        """
        air = self.shield.air
        now = self.simulator.now
        for channel in self.plan.idle_channels(now):
            if air is None or not air.channel_busy(channel):
                return channel
        raise RuntimeError("no clear MICS channel available")

    def _drain_replies(self) -> None:
        outbox = self.shield.sealed_outbox
        while self._delivered < len(outbox):
            reply = self.link.open_reply(outbox[self._delivered])
            self._delivered += 1
            if reply.opcode is CommandType.TELEMETRY:
                self._outcome.telemetry_records.append(reply.payload)
                self.session.record_reply()
            elif reply.opcode is CommandType.ACK:
                self._outcome.acks.append(reply.payload[0])
                self.session.record_reply()
