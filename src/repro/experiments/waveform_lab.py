"""Waveform-level laboratory for the micro-benchmarks (Figs. 4-10).

Everything here works on actual complex-baseband samples: real FSK
packets, real shaped-noise jamming, a real antidote with estimation
error, and real demodulators on both the shield's and the eavesdropper's
side.  Powers are absolute (linear milliwatts mapped from the link
budget's dBm figures) so the same numbers drive both simulation levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.adversary.eavesdropper import Eavesdropper
from repro.adversary.strategies import DecodingStrategy, TreatJammingAsNoise
from repro.channel.link_budget import LinkBudget
from repro.core.config import ShieldConfig
from repro.core.full_duplex import JammerCumReceiver, batch_effective_jam_gains
from repro.core.jamming import ShapedJammer
from repro.phy.fsk import FSKConfig, FSKModulator, NoncoherentFSKDemodulator
from repro.phy.signal import db_to_linear, dbm_to_watts
from repro.phy.spectrum import estimate_frequency_profile
from repro.protocol.packets import PacketCodec
from repro.protocol.commands import CommandType

__all__ = [
    "PassiveLab",
    "PacketTrial",
    "BatchTrialResult",
    "PayloadSource",
    "RandomPayloadSource",
    "TradeoffPoint",
    "cancellation_samples",
    "fsk_profile_peaks",
]


@runtime_checkable
class PayloadSource(Protocol):
    """What fills the telemetry packets the lab jams.

    The figure sweeps only ever measured BER, so random bytes sufficed;
    content-level experiments (the physiological-leakage grids) plug in
    a source that serves actual encoded payloads.  A source declares a
    fixed ``payload_size`` -- every packet in a batch must share one
    frame layout so trial blocks stack into rectangular bit matrices --
    and hands out one payload row per packet, a block at a time, in
    transmission order.
    """

    @property
    def payload_size(self) -> int:
        """Payload bytes per packet (fixed for the source's lifetime)."""
        ...

    def next_payload_batch(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """The next ``count`` packets' payloads as array rows; a packet
        carries its row's raw bytes.  ``rng`` is the lab's RNG stream."""
        ...


@dataclass
class RandomPayloadSource:
    """The default source: uniformly random payload bytes.

    Draws exactly the bytes the lab drew before payloads were pluggable
    (one ``rng.integers(0, 256, size)`` call per packet), so every
    seeded figure reproduces bit for bit -- the regression tests pin
    this.
    """

    size: int = 24

    def __post_init__(self) -> None:
        if not 0 <= self.size <= 255:
            raise ValueError(
                f"payload size must fit the one-byte length field, "
                f"got {self.size}"
            )

    @property
    def payload_size(self) -> int:
        return self.size

    def next_payload(self, rng: np.random.Generator) -> bytes:
        return bytes(rng.integers(0, 256, size=self.size))

    def next_payload_batch(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """``count`` payloads pre-drawn in one RNG call.

        The generator fills a ``(count, size)`` draw element for element
        in the same stream order as ``count`` per-packet calls, so row
        ``i`` equals the ``i``-th :meth:`next_payload` -- batch and loop
        are bit-identical, without ``count`` round trips into the RNG.
        """
        return rng.integers(0, 256, size=(count, self.size))


def _dbm_to_linear_mw(power_dbm: float) -> float:
    """dBm to linear milliwatts (the lab's waveform power unit)."""
    return dbm_to_watts(power_dbm) * 1e3


def _rows_scaled_to_power(rows: np.ndarray, power: float) -> np.ndarray:
    """Scale each row of a sample matrix to a target mean power."""
    if power < 0:
        raise ValueError("power must be non-negative")
    current = np.mean(np.abs(rows) ** 2, axis=1)
    if np.any(current <= 0):
        raise ValueError("cannot scale a zero-power row to a target power")
    return rows * np.sqrt(power / current)[:, None]


@dataclass(frozen=True)
class PacketTrial:
    """Outcome of one jammed IMD packet."""

    eavesdropper_ber: float
    shield_bit_errors: int
    shield_packet_lost: bool


@dataclass(frozen=True)
class BatchTrialResult:
    """Per-packet outcomes of one batched block of jammed IMD packets.

    Receivers the caller chose not to score (``score_shield=False`` /
    ``score_eavesdropper=False`` on :meth:`PassiveLab.run_batch`) carry
    ``None`` fields -- a sweep that only reads one side should not pay
    for the other.  ``eavesdropper_bits`` is populated only on request
    (``return_eavesdropper_bits=True``): BER sweeps never materialise
    the decoded matrix, content-inference experiments read it directly.
    """

    eavesdropper_ber: np.ndarray | None
    shield_bit_errors: np.ndarray | None
    shield_packet_lost: np.ndarray | None
    eavesdropper_bits: np.ndarray | None = None

    @property
    def n_packets(self) -> int:
        for field in (self.eavesdropper_ber, self.shield_bit_errors):
            if field is not None:
                return len(field)
        raise ValueError("batch scored neither receiver")

    def mean_eavesdropper_ber(self) -> float:
        if self.eavesdropper_ber is None:
            raise ValueError("batch did not score the eavesdropper")
        return float(np.mean(self.eavesdropper_ber))

    def shield_loss_rate(self) -> float:
        if self.shield_packet_lost is None:
            raise ValueError("batch did not score the shield")
        return float(np.mean(self.shield_packet_lost))

    def trials(self) -> list[PacketTrial]:
        """The batch unpacked into per-packet :class:`PacketTrial` rows."""
        if self.eavesdropper_ber is None or self.shield_bit_errors is None:
            raise ValueError("trials() needs both receivers scored")
        return [
            PacketTrial(
                eavesdropper_ber=float(self.eavesdropper_ber[i]),
                shield_bit_errors=int(self.shield_bit_errors[i]),
                shield_packet_lost=bool(self.shield_packet_lost[i]),
            )
            for i in range(self.n_packets)
        ]


@dataclass(frozen=True)
class TradeoffPoint:
    """One x-position of Fig. 8: a relative jamming power."""

    jam_margin_db: float
    eavesdropper_ber: float
    shield_packet_loss: float


class PassiveLab:
    """Shared rig for the passive-protection experiments.

    One IMD packet per trial: the shield receives it through its own
    jamming (antidote + digital residual cancellation), the eavesdropper
    receives the linear mix at its location and runs the optimal
    noncoherent FSK detector.
    """

    def __init__(
        self,
        budget: LinkBudget | None = None,
        shield_config: ShieldConfig | None = None,
        fsk: FSKConfig | None = None,
        seed: int | np.random.SeedSequence = 0,
        payload_source: PayloadSource | None = None,
    ):
        self.budget = budget or LinkBudget()
        self.config = shield_config or ShieldConfig(
            passive_jam_tx_dbm=(budget or LinkBudget()).passive_jam_tx_dbm()
        )
        self.fsk = fsk or FSKConfig()
        self.rng = np.random.default_rng(seed)
        self.codec = PacketCodec()
        self.payload_source = payload_source or RandomPayloadSource()
        self.modulator = FSKModulator(self.fsk)
        self.demodulator = NoncoherentFSKDemodulator(self.fsk)
        self.jammer = ShapedJammer.matched_to_fsk(
            self.fsk.deviation_hz,
            self.fsk.bit_rate,
            self.fsk.sample_rate,
            rng=self.rng,
        )
        self._serial = bytes(range(10))
        self._sequence = 0

    # ------------------------------------------------------------------
    # Signal construction
    # ------------------------------------------------------------------

    def telemetry_packet_bits(self) -> np.ndarray:
        """Bits of a fresh IMD telemetry packet (the jammed payload).

        The payload comes from the lab's :class:`PayloadSource` -- random
        bytes by default, encoded physiological windows when a content
        experiment plugged its own source in.
        """
        return self.telemetry_packet_bits_batch(1)[0]

    def telemetry_packet_bits_batch(self, n_packets: int) -> np.ndarray:
        """``(n_packets, n_bits)`` bit matrix of fresh telemetry packets.

        Every packet has the same frame layout (fixed header, one
        source-determined payload size), so a trial block stacks into a
        rectangular matrix the batched modulator consumes in one pass.
        """
        if n_packets <= 0:
            raise ValueError("need at least one packet in a batch")
        # One payload draw for the block: a source's block consumes the
        # lab's RNG stream exactly as that many one-packet draws would.
        payloads = np.ascontiguousarray(
            self.payload_source.next_payload_batch(self.rng, n_packets)
        )
        sequences = (self._sequence + np.arange(1, n_packets + 1)) % 256
        self._sequence = int(sequences[-1])
        # A packet carries its row's raw bytes, ``bytes(row)``: the
        # random source's int64 rows go out eight bytes per value.
        return self.codec.encode_batch(
            self._serial, CommandType.TELEMETRY, sequences,
            payloads.view(np.uint8).reshape(n_packets, -1),
        )

    def _random_phases(self, count: int) -> np.ndarray:
        """``count`` unit-magnitude random phases, one per packet."""
        phi = self.rng.uniform(0, 2 * np.pi, size=count)
        return np.exp(1j * phi)

    # ------------------------------------------------------------------
    # Jammed packets (batched core)
    # ------------------------------------------------------------------

    def run_trial(
        self,
        jam_margin_db: float,
        location_index: int = 1,
        strategy: DecodingStrategy | None = None,
        jammer: ShapedJammer | None = None,
        use_digital: bool = True,
    ) -> PacketTrial:
        """Transmit one IMD packet under jamming; score both receivers."""
        batch = self.run_batch(
            jam_margin_db,
            n_packets=1,
            location_index=location_index,
            strategy=strategy,
            jammer=jammer,
            use_digital=use_digital,
        )
        return batch.trials()[0]

    def run_batch(
        self,
        jam_margin_db: float,
        n_packets: int | None = None,
        location_index: int = 1,
        strategy: DecodingStrategy | None = None,
        jammer: ShapedJammer | None = None,
        use_digital: bool = True,
        score_shield: bool = True,
        score_eavesdropper: bool = True,
        bits: np.ndarray | None = None,
        return_eavesdropper_bits: bool = False,
    ) -> BatchTrialResult:
        """Transmit ``n_packets`` jammed IMD packets as one vectorized pass.

        The whole block runs as ``(n_packets, ...)`` matrices rather than
        a per-packet Python loop.  Two engines sit underneath:

        * For the default treat-as-noise eavesdropper on an
          orthogonal-tone FSK config, both receivers' noncoherent
          detectors consume only the per-bit tone correlations -- a
          sufficient statistic -- so the batch is evaluated directly in
          correlation domain (:meth:`ShapedJammer.tone_correlation_batch`
          plus closed-form signal correlations), never synthesising the
          long sample matrices at all.
        * Any other strategy/config falls back to the general sample-level
          batch: one batched modulation, one batched IFFT for the jam,
          one reshape + matmul per receiver.

        ``score_shield`` / ``score_eavesdropper`` select which receivers
        to evaluate; a sweep that only reads one side skips the other's
        randomness and demodulation entirely.  Statistically each scored
        row is an independent trial exactly like :meth:`run_trial`
        produces.

        ``bits`` overrides packet generation with a precomputed
        ``(n_packets, n_bits)`` matrix -- content experiments transmit
        *the same* packets under several jamming conditions this way.
        ``return_eavesdropper_bits`` additionally materialises the
        decoded bit matrix on the result.
        """
        if not (score_shield or score_eavesdropper):
            raise ValueError("must score at least one receiver")
        if return_eavesdropper_bits and not score_eavesdropper:
            raise ValueError(
                "return_eavesdropper_bits needs score_eavesdropper=True"
            )
        if bits is None:
            if n_packets is None:
                raise ValueError("pass n_packets or a precomputed bits matrix")
            bits = self.telemetry_packet_bits_batch(n_packets)
        else:
            bits = np.asarray(bits, dtype=np.int64)
            if bits.ndim != 2:
                raise ValueError(
                    f"bits must be (n_packets, n_bits), got shape {bits.shape}"
                )
            if n_packets is not None and n_packets != bits.shape[0]:
                raise ValueError(
                    f"n_packets={n_packets} disagrees with bits matrix of "
                    f"{bits.shape[0]} packets"
                )
        strategy = strategy or TreatJammingAsNoise()
        jammer = jammer or self.jammer
        powers = self._link_powers(jam_margin_db, location_index)
        if self._correlation_path_ok(strategy, jammer):
            return self._run_batch_correlations(
                bits, powers, jammer, use_digital, score_shield,
                score_eavesdropper, return_eavesdropper_bits,
            )
        return self._run_batch_samples(
            bits, powers, strategy, jammer, use_digital, score_shield,
            score_eavesdropper, return_eavesdropper_bits,
        )

    def _link_powers(
        self, jam_margin_db: float, location_index: int
    ) -> dict[str, float]:
        """All linear-mW link powers of one (margin, location) operating
        point."""
        location = self.budget.geometry.location(location_index)
        imd_at_shield_dbm = self.budget.imd_rx_at_shield_dbm()
        jam_at_shield_dbm = imd_at_shield_dbm + jam_margin_db
        # The jam leaves the shield at its antenna power and rides the
        # same air path as the IMD's signal to the adversary (eq. 7).
        jam_at_adv_dbm = jam_at_shield_dbm - self.budget.geometry.air_loss_to_shield_db(
            location
        )
        return {
            "p_imd_shield": _dbm_to_linear_mw(imd_at_shield_dbm),
            "p_imd_adv": _dbm_to_linear_mw(
                self.budget.imd_rx_at_location_dbm(location)
            ),
            "p_jam_adv": _dbm_to_linear_mw(jam_at_adv_dbm),
            "p_jam_tx": _dbm_to_linear_mw(jam_at_shield_dbm)
            / db_to_linear(self.config.jam_to_self_ratio_db),
            "noise": _dbm_to_linear_mw(self.budget.receiver_noise_dbm),
        }

    def _correlation_path_ok(
        self, strategy: DecodingStrategy, jammer: ShapedJammer
    ) -> bool:
        """Whether the correlation-domain fast path is exact here.

        It needs (a) the plain treat-as-noise strategy (no sample-level
        preprocessing), and (b) orthogonal tones whose per-bit phase
        accumulation is closed-form: an integer modulation index that the
        per-bit sample count does not divide.
        """
        if type(strategy) is not TreatJammingAsNoise:
            return False
        if jammer.sample_rate != self.fsk.sample_rate:
            return False
        h = self.fsk.modulation_index
        if abs(h - round(h)) > 1e-9:
            return False
        h_int = int(round(h))
        return h_int != 0 and h_int % self.fsk.samples_per_bit != 0

    def _run_batch_correlations(
        self,
        bits: np.ndarray,
        powers: dict[str, float],
        jammer: ShapedJammer,
        use_digital: bool,
        score_shield: bool,
        score_eavesdropper: bool,
        return_eavesdropper_bits: bool = False,
    ) -> BatchTrialResult:
        """Correlation-domain batch: exact sufficient statistics only."""
        n_packets, n_bits = bits.shape
        spb = self.fsk.samples_per_bit
        h = int(round(self.fsk.modulation_index))

        # The clean packet's correlation against (f0, f1) is closed-form:
        # the matched tone integrates to spb, the other tone to zero, and
        # the accumulated phase at bit b is b*pi*h (mod 2*pi).
        matched = spb * np.exp(1j * np.pi * h * np.arange(n_bits))
        bits_are_one = bits.astype(bool)
        noise_var = powers["noise"] * spb

        # One jam realisation per packet, shared by both receivers.  An
        # eavesdropper-only batch with exactly zero jam power (the
        # shield-absent condition of the physio experiments) skips the
        # synthesis -- and its RNG draws -- entirely; shield-scored
        # batches always draw, so every pre-existing seeded figure keeps
        # its exact stream.
        jam_corr = (
            jammer.tone_correlation_batch(n_packets, self.fsk, n_bits, power=1.0)
            if score_shield or powers["p_jam_adv"] > 0
            else None
        )

        def received_corr(
            jam_gains: np.ndarray | None, signal_gains: np.ndarray
        ):
            """One receiver's per-bit correlations, accumulated in place."""
            if jam_gains is None or jam_corr is None:
                corr = np.zeros((n_packets, n_bits, 2), dtype=np.complex128)
            else:
                corr = jam_corr * jam_gains[:, None, None]
            signal = signal_gains[:, None] * matched
            corr[:, :, 0] += np.where(bits_are_one, 0.0, signal)
            corr[:, :, 1] += np.where(bits_are_one, signal, 0.0)
            corr += self._correlation_noise(n_packets, n_bits, noise_var)
            return corr

        def decide(corr: np.ndarray) -> np.ndarray:
            # |corr1| > |corr0| without the square roots.
            mag = corr.real**2 + corr.imag**2
            return mag[:, :, 1] > mag[:, :, 0]

        shield_errors = shield_lost = eve_ber = eve_bits = None
        if score_shield:
            effective = batch_effective_jam_gains(
                self.config, self.rng, n_packets, use_digital=use_digital
            )
            corr = received_corr(
                np.sqrt(powers["p_jam_tx"]) * effective,
                np.sqrt(powers["p_imd_shield"]) * self._random_phases(n_packets),
            )
            shield_errors = np.sum(decide(corr) != bits_are_one, axis=1)
            shield_lost = shield_errors > 0
        if score_eavesdropper:
            jam_gains = (
                np.sqrt(powers["p_jam_adv"]) * self._random_phases(n_packets)
                if jam_corr is not None
                else None
            )
            corr = received_corr(
                jam_gains,
                np.sqrt(powers["p_imd_adv"]) * self._random_phases(n_packets),
            )
            decisions = decide(corr)
            eve_ber = np.mean(decisions != bits_are_one, axis=1)
            if return_eavesdropper_bits:
                eve_bits = decisions.astype(np.int64)

        return BatchTrialResult(
            eavesdropper_ber=eve_ber,
            shield_bit_errors=shield_errors,
            shield_packet_lost=shield_lost,
            eavesdropper_bits=eve_bits,
        )

    def _correlation_noise(
        self, n_packets: int, n_bits: int, variance: float
    ) -> np.ndarray:
        """Receiver AWGN as seen by the per-bit correlators.

        White noise of linear power ``p`` correlated against a
        unit-amplitude length-``spb`` template is complex Gaussian with
        total variance ``p * spb``, independent across bits and (for
        orthogonal tones) across the two correlators.
        """
        return self._complex_noise((n_packets, n_bits, 2), variance)

    def _run_batch_samples(
        self,
        bits: np.ndarray,
        powers: dict[str, float],
        strategy: DecodingStrategy,
        jammer: ShapedJammer,
        use_digital: bool,
        score_shield: bool = True,
        score_eavesdropper: bool = True,
        return_eavesdropper_bits: bool = False,
    ) -> BatchTrialResult:
        """General sample-level batch (any strategy, any FSK config)."""
        n_packets = bits.shape[0]
        clean = self.modulator.modulate_batch(bits)
        n = clean.shape[1]
        # As in the correlation path: an eavesdropper-only batch with
        # exactly zero jam power never synthesises the jam block.
        jam = (
            jammer.generate_batch(n_packets, n, power=1.0)
            if score_shield or powers["p_jam_adv"] > 0
            else None
        )

        shield_errors = shield_lost = eve_ber = eve_bits = None
        if score_shield:
            # One fresh front end per packet: random channels,
            # probe-quality estimates, antidote engaged -- drawn for the
            # whole block at once.
            effective = batch_effective_jam_gains(
                self.config, self.rng, n_packets, use_digital=use_digital
            )
            jam_tx = _rows_scaled_to_power(jam, powers["p_jam_tx"])
            external = _rows_scaled_to_power(
                clean * self._random_phases(n_packets)[:, None],
                powers["p_imd_shield"],
            )
            shield_rx = jam_tx * effective[:, None] + external
            shield_rx = shield_rx + self._complex_noise(
                shield_rx.shape, powers["noise"]
            )
            shield_bits = self.demodulator.demodulate_batch(
                shield_rx, n_bits=bits.shape[1]
            )
            shield_errors = np.sum(shield_bits != bits, axis=1)
            shield_lost = shield_errors > 0

        if score_eavesdropper:
            mixed = _rows_scaled_to_power(
                clean * self._random_phases(n_packets)[:, None],
                powers["p_imd_adv"],
            )
            if jam is not None:
                mixed = mixed + _rows_scaled_to_power(
                    jam * self._random_phases(n_packets)[:, None],
                    powers["p_jam_adv"],
                )
            mixed = mixed + self._complex_noise(mixed.shape, powers["noise"])
            decoded = self._eavesdropper_decode_batch(
                mixed, strategy, bits.shape[1]
            )
            eve_ber = np.mean(decoded != bits, axis=1)
            if return_eavesdropper_bits:
                eve_bits = decoded

        return BatchTrialResult(
            eavesdropper_ber=eve_ber,
            shield_bit_errors=shield_errors,
            shield_packet_lost=shield_lost,
            eavesdropper_bits=eve_bits,
        )

    def _complex_noise(self, shape: tuple[int, ...], power: float) -> np.ndarray:
        """Complex AWGN matrix of the given total linear power.

        One flat real draw viewed as complex: the per-sample pair of
        normals lands in the real/imaginary parts without a second
        generator pass.
        """
        if power < 0:
            raise ValueError("noise power must be non-negative")
        if power == 0:
            return np.zeros(shape, dtype=np.complex128)
        draws = self.rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
        draws *= np.sqrt(power / 2.0)
        return draws

    def _eavesdropper_decode_batch(
        self, mixed: np.ndarray, strategy: DecodingStrategy, n_bits: int
    ) -> np.ndarray:
        """Decode a whole block at the eavesdropper.

        Delegates to :meth:`Eavesdropper.decode_batch` -- the one batch
        decode path the adversary package owns -- so the lab and any
        standalone attack pipeline can never drift apart.
        """
        return Eavesdropper(self.fsk, strategy).decode_batch(
            mixed, n_bits=n_bits
        )

    # ------------------------------------------------------------------
    # Experiment sweeps
    # ------------------------------------------------------------------

    def tradeoff_sweep(
        self,
        margins_db: list[float] | np.ndarray,
        n_packets: int = 100,
        location_index: int = 1,
    ) -> list[TradeoffPoint]:
        """Fig. 8: eavesdropper BER and shield PER vs. jamming power.

        One vectorized batch per margin replaces the former per-packet
        loop.
        """
        points = []
        for margin in margins_db:
            batch = self.run_batch(margin, n_packets, location_index)
            points.append(
                TradeoffPoint(
                    jam_margin_db=float(margin),
                    eavesdropper_ber=batch.mean_eavesdropper_ber(),
                    shield_packet_loss=batch.shield_loss_rate(),
                )
            )
        return points

    def ber_by_location(
        self,
        jam_margin_db: float = 20.0,
        n_packets: int = 60,
        location_indices: tuple[int, ...] | None = None,
    ) -> dict[int, float]:
        """Fig. 9: eavesdropper BER at every testbed location.

        Each location is one vectorized pass over its whole trial block.
        """
        if location_indices is None:
            location_indices = tuple(
                loc.index for loc in self.budget.geometry.locations
            )
        out = {}
        for index in location_indices:
            batch = self.run_batch(
                jam_margin_db, n_packets, index, score_shield=False
            )
            out[index] = batch.mean_eavesdropper_ber()
        return out

    def shield_loss_runs(
        self,
        jam_margin_db: float = 20.0,
        n_runs: int = 20,
        packets_per_run: int = 120,
    ) -> list[float]:
        """Fig. 10: per-run packet loss rates at the decoding shield."""
        return [
            self.run_batch(
                jam_margin_db, packets_per_run, score_eavesdropper=False
            ).shield_loss_rate()
            for _ in range(n_runs)
        ]


def cancellation_samples(
    n_runs: int = 200,
    config: ShieldConfig | None = None,
    seed: int = 7,
    jam_samples: int = 4096,
) -> np.ndarray:
    """Fig. 7: the antidote's cancellation, measured per run.

    Each run draws fresh front-end channels and fresh probe-quality
    channel estimates, then measures received jam power with and without
    the antidote -- the paper's exact methodology (100 kb on, 100 kb
    off).
    """
    config = config or ShieldConfig()
    rng = np.random.default_rng(seed)
    jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
    samples = []
    for _ in range(n_runs):
        front_end = JammerCumReceiver(config, rng=rng)
        front_end.set_estimation_error()
        jam = jammer.generate(jam_samples)
        samples.append(front_end.cancellation_db(jam))
    return np.asarray(samples)


def fsk_profile_peaks(
    n_bits: int = 4096, fsk: FSKConfig | None = None, seed: int = 3
) -> tuple[np.ndarray, float]:
    """Fig. 4: where the IMD's FSK energy sits.

    Returns the two spectral peaks (expected near +/-50 kHz) and the
    fraction of power within 25 kHz of the two tones.
    """
    fsk = fsk or FSKConfig()
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n_bits)
    waveform = FSKModulator(fsk).modulate(bits)
    profile = estimate_frequency_profile(waveform, n_bins=128)
    peaks = profile.peak_frequencies(2)
    near_tones = profile.power_in_band(
        -fsk.deviation_hz - 25e3, -fsk.deviation_hz + 25e3
    ) + profile.power_in_band(fsk.deviation_hz - 25e3, fsk.deviation_hz + 25e3)
    return peaks, near_tones
