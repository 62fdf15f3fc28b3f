"""The shield on the air: passive + active protection, relay, alarms.

This is the event-level assembly of the whole system:

* **Passive protection** (S6): after every command the shield relays to
  the IMD, it jams the reply window [T1, T2 - T1 + P] at a power +20 dB
  over the received IMD signal, while decoding the reply through its own
  jam (the air models the antidote as the shield's
  ``full_duplex_rejection_db``).
* **Active protection** (S7): on any transmission start the shield
  decodes the first ``m`` bits, matches them against the IMD's
  identifying sequence within ``b_thresh`` flips, and jams matches from
  ``m``-bits-plus-turnaround until the signal stops (plus turnaround).
  Anything that starts while the shield itself is sending a *message* is
  jammed without a match check, so an adversary cannot piggyback on the
  shield's own transmissions.
* **Alarms** (S7(d)): matched transmissions whose RSSI exceeds the
  calibrated ``P_thresh`` (or the power-anomaly threshold) raise an
  alarm, and their reply window is jammed as if the command had been the
  shield's own -- the adversary may have gotten through, so the IMD's
  coerced reply must still be protected.
* **Relay** (S4): encrypted commands from the programmer are unwrapped,
  transmitted to the IMD, and the decoded replies are sealed back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ShieldConfig
from repro.core.detector import ActiveDetector, DetectionDecision
from repro.core.energy import ShieldEnergyMeter
from repro.core.policy import AlarmPolicy, JamWindowPolicy
from repro.core.relay import ShieldRelay
from repro.protocol.commands import CommandType
from repro.protocol.packets import DecodeError, Packet, PacketCodec
from repro.sim.air import AirTransmission
from repro.sim.engine import Simulator
from repro.sim.radio import RadioDevice
from repro.sim.trace import TimelineTrace

__all__ = ["ShieldRadio", "JamRecord"]

#: Opcode bytes that only ever flow IMD -> programmer.
_IMD_RESPONSE_OPCODES = frozenset(
    int(opcode) for opcode in CommandType if opcode.is_imd_response
)


@dataclass(frozen=True)
class JamRecord:
    """Bookkeeping for one reactive jam decision (feeds Table 2)."""

    trigger_tx_id: int
    decision: DetectionDecision
    jam_started: float | None
    turnaround_s: float | None


class ShieldRadio(RadioDevice):
    """The wearable shield as an event-level radio device."""

    def __init__(
        self,
        simulator: Simulator,
        config: ShieldConfig,
        detector: ActiveDetector,
        session_channel: int,
        codec: PacketCodec | None = None,
        relay: ShieldRelay | None = None,
        name: str = "shield",
        trace: TimelineTrace | None = None,
        rng: np.random.Generator | None = None,
        jam_imd_replies: bool = True,
        jamming_enabled: bool = True,
        imd_source_name: str = "imd",
    ):
        super().__init__(name, simulator, set(config.monitored_channels))
        self.config = config
        self.detector = detector
        self.codec = codec or PacketCodec()
        self.relay = relay
        self.session_channel = session_channel
        self.trace = trace
        self.rng = rng or np.random.default_rng(11)
        #: S10.3 experiment switch: the paper "configure[s] the shield to
        #: jam only the adversary's packets, not the packets transmitted
        #: by the IMD" so an observer can count IMD replies.
        self.jam_imd_replies = jam_imd_replies
        #: S10.1(c) calibration switch: "the shield stays in its marked
        #: location ... but its jamming capability is turned off" while it
        #: logs detections; used to calibrate b_thresh.
        self.jamming_enabled = jamming_enabled
        self._imd_source_name = imd_source_name

        self.window_policy = JamWindowPolicy.from_config(config)
        self.alarms = AlarmPolicy()
        self.energy = ShieldEnergyMeter()

        # Per-episode full-duplex rejection; redrawn whenever the shield
        # re-estimates its channels (before every jam).
        self._draw_cancellation()

        self._active_jams: dict[int, AirTransmission] = {}
        self._jam_triggers: dict[int, set[int]] = {}
        self._own_message_tx: AirTransmission | None = None
        self._pthresh_flagged: set[int] = set()
        # Intervals [cmd_end + T1, cmd_end + T2] per channel in which the
        # IMD's *anticipated* reply will start (S6: the shield can bound
        # the reply time because the IMD does not carrier-sense).  A
        # transmission starting inside one is the expected reply -- it is
        # already covered by the calibrated reply-window jam and must not
        # additionally be attacked by the reactive jammer.
        self._expected_reply_starts: dict[int, list[tuple[float, float]]] = {}
        self._jam_records: list[JamRecord] = []
        self._turnaround_samples: list[float] = []
        self.decoded_replies: list[Packet] = []
        self.failed_reply_decodes: int = 0
        self.sealed_outbox: list[bytes] = []
        self.aborted_relays: int = 0

    # ------------------------------------------------------------------
    # Full-duplex front-end state
    # ------------------------------------------------------------------

    @property
    def full_duplex_rejection_db(self) -> float:
        """Current self-interference rejection (antenna + digital)."""
        return self._cancellation_db

    def _draw_cancellation(self) -> None:
        """Redraw the per-episode antidote cancellation (Fig. 7 spread)."""
        antenna = self.rng.normal(
            self.config.antenna_cancellation_db,
            self.config.antenna_cancellation_std_db,
        )
        self._cancellation_db = antenna + self.config.digital_cancellation_db

    def _draw_turnaround(self) -> float:
        """Software turn-around latency (Table 2: 270 +/- 23 us)."""
        return max(
            50e-6,
            self.rng.normal(self.config.turnaround_s, self.config.turnaround_std_s),
        )

    # ------------------------------------------------------------------
    # Relay path (S4)
    # ------------------------------------------------------------------

    def receive_encrypted_command(self, wire: bytes) -> None:
        """Unwrap a programmer command and forward it to the IMD."""
        if self.relay is None:
            raise RuntimeError("this shield was built without a relay")
        packet = self.relay.open_command(wire)
        self.send_command_to_imd(packet)

    def send_command_to_imd(self, packet: Packet) -> None:
        """Transmit a command to the IMD and arm the reply-window jam."""
        air = self._require_air()
        bits = self.codec.encode(packet)
        tx = air.transmit(
            source=self.name,
            channel=self.session_channel,
            tx_power_dbm=self.config.active_jam_tx_dbm,
            bit_rate=100e3,
            bits=bits,
            kind="packet",
            meta={"role": "shield-relay", "opcode": int(packet.opcode)},
        )
        self._own_message_tx = tx
        self.energy.record_transmission(tx.scheduled_end() - self.simulator.now)
        if self.trace is not None:
            self.trace.record(
                self.simulator.now,
                self.name,
                "tx-start",
                opcode=int(packet.opcode),
                duration=tx.scheduled_end() - self.simulator.now,
            )
        self.simulator.schedule_at(
            tx.scheduled_end(), self._own_message_done, name="shield-relay-end"
        )
        if self.jam_imd_replies:
            self._arm_reply_window(tx.scheduled_end())

    def _own_message_done(self) -> None:
        self._own_message_tx = None

    def _arm_reply_window(self, command_end_time: float) -> None:
        """Schedule the S6 jam window covering the IMD's reply."""
        if not self.jamming_enabled:
            return
        window = self.window_policy.window_after(command_end_time)
        guard = 0.2e-3
        self._expected_reply_starts.setdefault(self.session_channel, []).append(
            (
                command_end_time + self.config.t1_s - guard,
                command_end_time + self.config.t2_s + guard,
            )
        )
        self.simulator.schedule_at(
            window.start_time,
            lambda: self._start_reply_jam(window.duration),
            name="reply-window-jam",
        )

    def _is_expected_reply(self, tx: AirTransmission) -> bool:
        """Whether a transmission starting now is the anticipated IMD
        reply to a command the shield sent (or flagged)."""
        intervals = self._expected_reply_starts.get(tx.channel)
        if not intervals:
            return False
        now = tx.start_time
        live = [(lo, hi) for lo, hi in intervals if hi > now - 1.0]
        self._expected_reply_starts[tx.channel] = live
        return any(lo <= now <= hi for lo, hi in live)

    def _start_reply_jam(self, duration: float) -> None:
        air = self._require_air()
        self._draw_cancellation()
        air.transmit(
            source=self.name,
            channel=self.session_channel,
            tx_power_dbm=self.config.passive_jam_tx_dbm,
            bit_rate=100e3,
            bits=None,
            duration=duration,
            kind="jam",
            meta={"reason": "reply-window"},
        )
        self.energy.record_transmission(duration)
        if self.trace is not None:
            self.trace.record(
                self.simulator.now, self.name, "jam-start", reason="reply-window"
            )

    # ------------------------------------------------------------------
    # Active protection (S7)
    # ------------------------------------------------------------------

    def on_transmission_start(self, tx: AirTransmission) -> None:
        if tx.kind == "jam" and tx.source == self.name:
            return
        # Rule 2 of S7: anything concurrent with the shield's own message
        # is jammed immediately, no identity check -- otherwise an
        # adversary could alter the shield's message on the channel.
        own = self._own_message_tx
        if (
            own is not None
            and own.channel == tx.channel
            and own.end_time is not None
            and own.end_time > self.simulator.now
        ):
            air = self._require_air()
            air.stop(own)
            self.aborted_relays += 1
            self._own_message_tx = None
            self._begin_jam(tx.channel, tx.id, decision=None)
            return
        if not self.jam_imd_replies and tx.source == self._imd_source_name:
            return
        if self._is_expected_reply(tx):
            return
        if tx.bits is None:
            # An unmodulated burst (e.g. someone else's jam) carries no
            # header to match; rule 2 above already covers the dangerous
            # case.
            return
        # Decode the m-bit identifying sequence plus the following opcode
        # byte: the opcode distinguishes IMD-originated frames (telemetry,
        # ACKs) from commands *to* the IMD, so an unsolicited emergency
        # transmission is never attacked by its own shield (S3.1).
        decision_time = (
            self.simulator.now
            + (self.detector.window_bits + 8) / tx.bit_rate
        )
        if tx.end_time is not None:
            decision_time = min(decision_time, tx.end_time)
        self.simulator.schedule_at(
            decision_time,
            lambda: self._detection_check(tx),
            name="sid-check",
        )

    def _detection_check(self, tx: AirTransmission) -> None:
        air = self._require_air()
        reception = air.receive(tx, self.name, until=self.simulator.now)
        decision = self.detector.evaluate(reception.bits, reception.rssi_dbm)
        if decision.matched and self._is_imd_origin_frame(reception.bits):
            # The frame carries an IMD-to-programmer opcode: it is the
            # IMD itself talking (e.g. a life-threatening-condition
            # alert).  A forged "response" poses no threat either -- the
            # IMD ignores response opcodes -- so there is nothing to jam.
            self._jam_records.append(JamRecord(tx.id, decision, None, None))
            return
        if self.trace is not None:
            self.trace.record(
                self.simulator.now,
                self.name,
                "sid-check",
                matched=decision.matched,
                distance=decision.distance,
            )
        if not decision.should_jam:
            self._jam_records.append(JamRecord(tx.id, decision, None, None))
            return
        if self.jamming_enabled:
            turnaround = self._draw_turnaround()
            self.simulator.schedule(
                turnaround,
                lambda: self._begin_jam(tx.channel, tx.id, decision),
                name="jam-start",
            )
        else:
            self._jam_records.append(JamRecord(tx.id, decision, None, None))
        if decision.should_alarm:
            reason = (
                "power-anomaly" if decision.anomalous_power else "above-p-thresh"
            )
            self.alarms.raise_alarm(self.simulator.now, decision.rssi_dbm, reason)
            if self.trace is not None:
                self.trace.record(
                    self.simulator.now, self.name, "alarm", reason=reason
                )
        if decision.exceeds_p_thresh or decision.anomalous_power:
            # S7(d): the command may reach the IMD despite jamming, so
            # treat it like the shield's own message and jam the reply
            # window that follows it.
            self._pthresh_flagged.add(tx.id)

    def _is_imd_origin_frame(self, bits) -> bool:
        """Whether the decoded prefix carries an IMD-to-programmer opcode.

        The opcode byte sits right after the m-bit identifying sequence;
        we require an exact match against the response opcodes so a
        noisy command cannot masquerade as a response.
        """
        m = self.detector.window_bits
        if bits is None or len(bits) < m + 8:
            return False
        opcode = 0
        for bit in bits[m : m + 8].tolist():
            opcode = (opcode << 1) | bit
        return opcode in _IMD_RESPONSE_OPCODES

    def _begin_jam(
        self, channel: int, trigger_tx_id: int, decision: DetectionDecision | None
    ) -> None:
        if not self.jamming_enabled:
            return
        air = self._require_air()
        self._jam_triggers.setdefault(channel, set()).add(trigger_tx_id)
        if channel not in self._active_jams:
            self._draw_cancellation()
            jam = air.transmit(
                source=self.name,
                channel=channel,
                tx_power_dbm=self.config.active_jam_tx_dbm,
                bit_rate=100e3,
                bits=None,
                duration=None,
                kind="jam",
                meta={"reason": "active", "trigger": trigger_tx_id},
            )
            self._active_jams[channel] = jam
            if self.trace is not None:
                self.trace.record(
                    self.simulator.now, self.name, "jam-start", reason="active"
                )
        if decision is not None:
            self._jam_records.append(
                JamRecord(trigger_tx_id, decision, self.simulator.now, None)
            )

    def on_transmission_end(self, tx: AirTransmission) -> None:
        # Stop the reactive jam (after turn-around) once its trigger ends.
        channel_triggers = self._jam_triggers.get(tx.channel, set())
        if tx.id in channel_triggers:
            turnaround = self._draw_turnaround()
            self.simulator.schedule(
                turnaround,
                lambda: self._maybe_stop_jam(tx.channel, tx.id, turnaround),
                name="jam-stop",
            )
        # S7(d): a flagged command may have reached the IMD; jam the
        # window where its coerced reply would appear.
        if tx.id in self._pthresh_flagged:
            self._pthresh_flagged.discard(tx.id)
            if self.jam_imd_replies:
                self._arm_reply_window(tx.end_time)
        # Decode IMD replies through our own jamming (full duplex).
        if tx.kind == "packet" and tx.source == self._imd_source_name:
            self._decode_imd_reply(tx)

    def _maybe_stop_jam(
        self, channel: int, trigger_tx_id: int, turnaround: float
    ) -> None:
        triggers = self._jam_triggers.get(channel, set())
        triggers.discard(trigger_tx_id)
        if triggers:
            return
        jam = self._active_jams.pop(channel, None)
        if jam is None:
            return
        air = self._require_air()
        duration = self.simulator.now - jam.start_time
        air.stop(jam)
        self.energy.record_transmission(duration)
        self._turnaround_samples.append(turnaround)
        if self.trace is not None:
            self.trace.record(
                self.simulator.now,
                self.name,
                "jam-stop",
                turnaround_us=turnaround * 1e6,
            )

    # ------------------------------------------------------------------
    # Decoding the IMD while jamming (S6)
    # ------------------------------------------------------------------

    def _decode_imd_reply(self, tx: AirTransmission) -> None:
        air = self._require_air()
        reception = air.receive(tx, self.name)
        try:
            packet = self.codec.decode(reception.bits)
        except DecodeError:
            self.failed_reply_decodes += 1
            return
        self.decoded_replies.append(packet)
        if self.relay is not None:
            self.sealed_outbox.append(self.relay.seal_reply(packet))

    # ------------------------------------------------------------------
    # Introspection for the experiments
    # ------------------------------------------------------------------

    @property
    def jam_records(self) -> list[JamRecord]:
        return list(self._jam_records)

    @property
    def turnaround_samples_s(self) -> list[float]:
        """Measured jam turn-around latencies (Table 2)."""
        return list(self._turnaround_samples)

    def reply_loss_rate(self) -> float:
        """Fraction of IMD replies the shield failed to decode (Fig. 10)."""
        total = len(self.decoded_replies) + self.failed_reply_decodes
        if total == 0:
            return 0.0
        return self.failed_reply_decodes / total
