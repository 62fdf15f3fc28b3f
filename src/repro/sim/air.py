"""The shared medium of the event-level simulator.

Transmissions are intervals on a MICS channel with a source, a power, and
(for packets) a bit vector.  The air answers the two questions every
receiver has:

1. *What is on the channel right now?* -- carrier sensing, RSSI, and the
   transmission start/end notifications that drive reactive jamming.
2. *What did I actually decode?* -- a reception is split into intervals
   of constant interference (reactive jamming starts mid-packet, which is
   the whole point), each interval's SINR drives the noncoherent-FSK BER
   model, bits are flipped accordingly, and the corrupted bits then face
   the real packet CRC downstream.

Self-interference is first-class: a full-duplex device (the shield)
reports how many dB of its own transmission it can cancel
(``full_duplex_rejection_db``); everyone else is half-duplex and
effectively deaf while transmitting.  This is exactly the jammer-cum-
receiver asymmetry of S5: the shield hears *through* its own jamming,
the eavesdropper does not.
"""

from __future__ import annotations

import abc
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.phy.ber import noncoherent_fsk_ber
from repro.sim.engine import Simulator

__all__ = ["LinkModel", "AirTransmission", "Reception", "Air"]

# Residual self-coupling for half-duplex devices: own TX appears at the
# receiver essentially unattenuated, drowning any concurrent reception.
_HALF_DUPLEX_REJECTION_DB = 0.0


class LinkModel(abc.ABC):
    """Received powers and noise floors for every (source, destination) pair."""

    @abc.abstractmethod
    def mean_rx_power_dbm(
        self, source: str, destination: str, tx_power_dbm: float
    ) -> float:
        """Mean received power over the link (pathloss + body loss)."""

    @abc.abstractmethod
    def fading_db(
        self, source: str, destination: str, rng: np.random.Generator
    ) -> float:
        """Draw a per-transmission fading + shadowing term for the link."""

    @abc.abstractmethod
    def noise_power_dbm(self, destination: str) -> float:
        """Receiver noise floor at a device."""


@dataclass(slots=True)
class AirTransmission:
    """One on-air transmission.  ``end_time`` is None while open-ended
    (reactive jamming keeps transmitting until told to stop)."""

    id: int
    source: str
    channel: int
    start_time: float
    tx_power_dbm: float
    bit_rate: float
    bits: np.ndarray | None = None
    kind: str = "packet"
    end_time: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_bits(self) -> int:
        return 0 if self.bits is None else len(self.bits)

    def scheduled_end(self) -> float:
        """End time if known; packets always know theirs."""
        if self.end_time is None:
            raise RuntimeError(f"transmission {self.id} is still open-ended")
        return self.end_time

    def is_active_at(self, time: float) -> bool:
        if time < self.start_time:
            return False
        return self.end_time is None or time < self.end_time

    def overlap(self, t0: float, t1: float) -> tuple[float, float] | None:
        """Intersection of this transmission with the window [t0, t1)."""
        lo = max(self.start_time, t0)
        hi = t1 if self.end_time is None else min(self.end_time, t1)
        if hi <= lo:
            return None
        return lo, hi


@dataclass(slots=True)
class Reception:
    """The outcome of decoding one transmission at one receiver."""

    transmission: AirTransmission
    receiver: str
    bits: np.ndarray | None
    rssi_dbm: float
    mean_sinr_db: float
    min_sinr_db: float
    bit_flips: int
    segments: list[tuple[float, float, float]]  # (t0, t1, sinr_db)


class Air:
    """Per-channel transmission bookkeeping plus reception evaluation."""

    def __init__(
        self,
        simulator: Simulator,
        links: LinkModel,
        rng: np.random.Generator | None = None,
    ):
        self.simulator = simulator
        self.links = links
        self.rng = rng or np.random.default_rng(0)
        self._devices: dict[str, "object"] = {}
        self._transmissions: list[AirTransmission] = []
        self._tx_counter = itertools.count()
        # Per-(transmission, receiver) RSSI, fading draw included.
        self._fading_cache: dict[tuple[int, str], float] = {}
        # Interference scans only ever need transmissions that can still
        # overlap a live reception window, so the air keeps a pruned
        # working set alongside the append-only history.  ``_prune_before``
        # is the guarantee: every transmission ending at or before it has
        # been dropped from ``_recent``.  Without this, a long Monte-Carlo
        # sweep rescans its whole history on every reception (O(trials^2)).
        self._recent: list[AirTransmission] = []
        self._prune_before = 0.0
        self._counts: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Device registry
    # ------------------------------------------------------------------

    def register(self, device: "object") -> None:
        """Register a radio device (anything with the RadioDevice duck type)."""
        name = device.name
        if name in self._devices:
            raise ValueError(f"device name {name!r} already registered")
        self._devices[name] = device
        device.attach(self)

    def device(self, name: str) -> "object":
        return self._devices[name]

    # ------------------------------------------------------------------
    # Transmitting
    # ------------------------------------------------------------------

    def transmit(
        self,
        source: str,
        channel: int,
        tx_power_dbm: float,
        bit_rate: float,
        bits: np.ndarray | None = None,
        duration: float | None = None,
        kind: str = "packet",
        meta: dict | None = None,
    ) -> AirTransmission:
        """Put a transmission on the air, starting now.

        Packet transmissions derive their duration from the bit count;
        jam/noise transmissions may be open-ended and stopped later with
        :meth:`stop`.
        """
        if source not in self._devices:
            raise ValueError(f"unknown source device {source!r}")
        now = self.simulator.now
        if bits is not None:
            bits = np.asarray(bits, dtype=np.int64)
            duration = len(bits) / bit_rate
        tx = AirTransmission(
            id=next(self._tx_counter),
            source=source,
            channel=channel,
            start_time=now,
            tx_power_dbm=tx_power_dbm,
            bit_rate=bit_rate,
            bits=bits,
            kind=kind,
            end_time=None if duration is None else now + duration,
            meta=meta or {},
        )
        self._transmissions.append(tx)
        self._prune_recent(now)
        self._recent.append(tx)
        key = (source, tx.kind)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._notify("on_transmission_start", tx)
        if tx.end_time is not None:
            self.simulator.schedule_at(
                tx.end_time,
                lambda: self._notify("on_transmission_end", tx),
                name=f"end:{tx.kind}:{tx.source}",
            )
        return tx

    def stop(self, tx: AirTransmission) -> None:
        """End an open-ended transmission now and notify listeners."""
        if tx.end_time is not None and tx.end_time <= self.simulator.now:
            return
        tx.end_time = self.simulator.now
        self._notify("on_transmission_end", tx)

    def _notify(self, method: str, tx: AirTransmission) -> None:
        source, channel = tx.source, tx.channel
        for name, device in self._devices.items():
            if name != source and channel in device.monitored_channels:
                getattr(device, method)(tx)

    def _prune_recent(self, now: float) -> None:
        """Drop transmissions that can no longer matter from the working
        set.

        A future reception window always starts at the ``start_time`` of
        a transmission still in flight (receptions are evaluated at
        transmission end), so anything ending at or before the earliest
        in-flight start can never be scanned again.  Historical
        transmissions stay reachable through ``_transmissions`` for
        introspection and post-hoc ``receive`` calls.
        """
        threshold = now
        for tx in self._recent:
            if (tx.end_time is None or tx.end_time > now) and tx.start_time < threshold:
                threshold = tx.start_time
        if threshold <= self._prune_before:
            return
        self._recent = [
            tx
            for tx in self._recent
            if tx.end_time is None or tx.end_time > threshold
        ]
        self._prune_before = threshold

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------

    def active_transmissions(
        self, channel: int, at_time: float | None = None
    ) -> list[AirTransmission]:
        t = self.simulator.now if at_time is None else at_time
        # Anything active at t >= the prune watermark is still in the
        # working set; only queries about the deep past need the history.
        pool = self._recent if t >= self._prune_before else self._transmissions
        return [tx for tx in pool if tx.channel == channel and tx.is_active_at(t)]

    def channel_busy(self, channel: int, at_time: float | None = None) -> bool:
        return bool(self.active_transmissions(channel, at_time))

    def rssi_dbm(self, tx: AirTransmission, receiver: str) -> float:
        """Received power of one transmission at one device (with fading).

        The fading draw *and* the resulting RSSI are cached per
        (transmission, receiver): interference scans re-ask for the same
        links many times per reception.
        """
        key = (tx.id, receiver)
        cached = self._fading_cache.get(key)
        if cached is not None:
            return cached
        rssi = self.links.mean_rx_power_dbm(
            tx.source, receiver, tx.tx_power_dbm
        ) + self.links.fading_db(tx.source, receiver, self.rng)
        self._fading_cache[key] = rssi
        return rssi

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def receive(
        self,
        tx: AirTransmission,
        receiver: str,
        until: float | None = None,
    ) -> Reception:
        """Evaluate the reception of ``tx`` at ``receiver``.

        Splits the packet into constant-interference segments, computes
        per-segment SINR, flips bits at the corresponding noncoherent-FSK
        error rate, and reports the corrupted bits plus diagnostics.
        ``until`` truncates the evaluation (the shield's streaming
        detector looks at the first ``m`` bits mid-flight).
        """
        window_end = self._window_end(tx, until)
        signal_dbm = self.rssi_dbm(tx, receiver)
        noise_dbm = self.links.noise_power_dbm(receiver)
        segments = self._segments(tx, receiver, window_end, signal_dbm, noise_dbm)
        sinr_values = [s for _, _, s in segments]
        bits = None
        flips = 0
        if tx.bits is not None:
            bits, flips = self._corrupt_bits(tx, signal_dbm, segments, window_end)
        return Reception(
            transmission=tx,
            receiver=receiver,
            bits=bits,
            rssi_dbm=signal_dbm,
            mean_sinr_db=sum(sinr_values) / len(sinr_values),
            min_sinr_db=min(sinr_values),
            bit_flips=flips,
            segments=segments,
        )

    def _window_end(self, tx: AirTransmission, until: float | None) -> float:
        end = tx.end_time if tx.end_time is not None else self.simulator.now
        if until is not None:
            end = min(end, until)
        if end <= tx.start_time:
            raise ValueError("reception window is empty")
        return end

    def _segments(
        self,
        tx: AirTransmission,
        receiver: str,
        window_end: float,
        signal_dbm: float,
        noise_dbm: float,
    ) -> list[tuple[float, float, float]]:
        """Constant-interference intervals of [tx.start, window_end)."""
        # Windows starting at or after the prune watermark can only
        # overlap transmissions still in the working set (see
        # _prune_recent); older windows fall back to the full history.
        pool = (
            self._recent
            if tx.start_time >= self._prune_before
            else self._transmissions
        )
        others = [
            o
            for o in pool
            if o.id != tx.id
            and o.channel == tx.channel
            and o.overlap(tx.start_time, window_end) is not None
        ]
        if not others:
            # Clean channel: one segment at the thermal-noise SINR.
            return [(tx.start_time, window_end, signal_dbm - noise_dbm)]
        boundaries = {tx.start_time, window_end}
        for o in others:
            lo, hi = o.overlap(tx.start_time, window_end)
            boundaries.update((lo, hi))
        edges = sorted(boundaries)
        noise_linear = 10.0 ** (noise_dbm / 10.0)
        segments = []
        for lo, hi in zip(edges, edges[1:]):
            if hi - lo <= 0:
                continue
            mid = (lo + hi) / 2.0
            interference = noise_linear
            for o in others:
                if not o.is_active_at(mid):
                    continue
                power_dbm = self.rssi_dbm(o, receiver)
                power_dbm -= self._self_rejection_db(o, receiver)
                interference += 10.0 ** (power_dbm / 10.0)
            sinr_db = signal_dbm - 10.0 * math.log10(interference)
            segments.append((lo, hi, sinr_db))
        return segments

    def _self_rejection_db(self, tx: AirTransmission, receiver: str) -> float:
        """How much of its *own* transmission a receiver cancels.

        Zero for foreign transmissions.  For the device's own signal, the
        shield's jammer-cum-receiver reports its antidote + digital
        cancellation; ordinary radios report ~0 dB (half-duplex: they are
        deaf while transmitting).
        """
        if tx.source != receiver:
            return 0.0
        device = self._devices[receiver]
        rejection = getattr(device, "full_duplex_rejection_db", None)
        if rejection is None:
            return _HALF_DUPLEX_REJECTION_DB
        return float(rejection)

    def _corrupt_bits(
        self,
        tx: AirTransmission,
        signal_dbm: float,
        segments: list[tuple[float, float, float]],
        window_end: float,
    ) -> tuple[np.ndarray, int]:
        """Flip packet bits segment-by-segment at the analytic BER."""
        # Round to the nearest bit: float arithmetic on window edges must
        # not silently shorten the detector's m-bit prefix.
        n_window = int(round((window_end - tx.start_time) * tx.bit_rate))
        n_window = min(n_window, tx.n_bits)
        bits = tx.bits[:n_window].copy()
        start = tx.start_time
        rate = tx.bit_rate
        flips_total = 0
        for lo, hi, sinr_db in segments:
            # Bits whose midpoints fall in [lo, hi) form a contiguous
            # index range -- no per-bit masking needed.
            i0 = max(math.ceil((lo - start) * rate - 0.5), 0)
            i1 = min(math.ceil((hi - start) * rate - 0.5), n_window)
            count = i1 - i0
            if count <= 0:
                continue
            ber = noncoherent_fsk_ber(sinr_db)
            if ber * count < 16.0:
                # Sample the flip *count* first (binomial), then
                # positions.  At the high SINRs that dominate a sweep the
                # count is almost always zero, so the common case costs
                # two scalar draws instead of a per-bit uniform vector.
                flip_count = int(self.rng.binomial(count, ber)) if ber > 0 else 0
                if flip_count:
                    idx = i0 + self.rng.choice(
                        count, size=flip_count, replace=False
                    )
                    bits[idx] = 1 - bits[idx]
                flips_total += flip_count
            else:
                flips = self.rng.random(count) < ber
                segment_bits = bits[i0:i1]
                segment_bits[flips] = 1 - segment_bits[flips]
                flips_total += int(np.count_nonzero(flips))
        return bits, flips_total

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------

    @property
    def transmissions(self) -> list[AirTransmission]:
        """Every transmission ever put on the air (oldest first)."""
        return list(self._transmissions)

    def transmissions_by(self, source: str, kind: str | None = None) -> list[AirTransmission]:
        return [
            tx
            for tx in self._transmissions
            if tx.source == source and (kind is None or tx.kind == kind)
        ]

    def transmission_count(self, source: str, kind: str | None = None) -> int:
        """How many transmissions a device has made (O(1) counters).

        Trial loops poll this between attacks; counting through
        :meth:`transmissions_by` would rescan the whole history each
        time.
        """
        if kind is not None:
            return self._counts.get((source, kind), 0)
        return sum(
            count for (src, _), count in self._counts.items() if src == source
        )
