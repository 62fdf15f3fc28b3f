"""Physiological-leakage laboratory: what the eavesdropper actually learns.

Every figure below :class:`~repro.experiments.waveform_lab.PassiveLab`
stops at bit error rate; this rig carries the experiment through to the
*medical content*.  One batch:

1. synthesise a block of cardiac records
   (:class:`~repro.physio.ecg.ECGGenerator`, optionally a mix of rhythm
   classes);
2. encode them into wire-format telemetry payloads
   (:class:`~repro.physio.codec.WaveformCodec` +
   :class:`~repro.physio.codec.PhysioPayloadSource`) and transmit the
   *same* packets through the waveform lab under up to three
   conditions: the scenario's jamming, a clear (shield-off) reference,
   and a coin-flip chance baseline;
3. run the attacker's inference pipeline
   (:class:`~repro.physio.inference.AttackerInference`) on each
   condition's decoded bits and score the leakage -- heart-rate
   absolute error (attacker / clear / versus-chance), beat-detection
   F1, rhythm classification accuracy, waveform NRMSE.

The headline numbers: with the shield jamming at +20 dB the attacker's
heart-rate error is statistically indistinguishable from the chance
baseline, while without the shield the near locations leak heart rate
to well under 2 BPM.

Determinism mirrors the campaign contract: a :class:`PhysioLab` seeded
with one ``SeedSequence`` replays identical records, packets, noise,
and chance draws, so cached work units resume bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.adversary.strategies import DecodingStrategy
from repro.channel.link_budget import LinkBudget
from repro.core.config import ShieldConfig
from repro.experiments.waveform_lab import PassiveLab
from repro.phy.fsk import FSKConfig
from repro.physio.codec import PhysioPayloadSource, WaveformCodec
from repro.physio.ecg import (
    ECGConfig,
    ECGGenerator,
    MIXED_RHYTHM,
    RHYTHM_CHOICES,
    RHYTHM_CLASSES,
)
from repro.physio.inference import (
    AttackerInference,
    InferenceConfig,
    beat_f1,
    waveform_nrmse,
)

__all__ = ["NO_JAMMING_MARGIN_DB", "PhysioBatchResult", "PhysioLab"]

#: A jam margin that zeroes the jamming power at every receiver: the
#: shield-absent condition, expressed in the lab's own units.
NO_JAMMING_MARGIN_DB = float("-inf")


@dataclass
class PhysioBatchResult:
    """Per-record leakage outcomes of one physiological telemetry batch."""

    rhythms_true: tuple[str, ...]
    heart_rate_true: np.ndarray
    heart_rate_attacker: np.ndarray
    heart_rate_clear: np.ndarray
    #: Mean absolute HR error of the chance baseline (coin-flip bits
    #: through the same pipeline), per record.
    chance_hr_error: np.ndarray
    rhythms_attacker: tuple[str, ...]
    beat_f1: np.ndarray
    waveform_nrmse: np.ndarray
    ber_attacker: np.ndarray
    ber_clear: np.ndarray

    @property
    def n_records(self) -> int:
        return len(self.heart_rate_true)

    @property
    def hr_abs_error(self) -> np.ndarray:
        """Attacker HR absolute error (BPM), per record."""
        return np.abs(self.heart_rate_attacker - self.heart_rate_true)

    @property
    def hr_abs_error_clear(self) -> np.ndarray:
        """Shield-off reference HR absolute error (BPM), per record."""
        return np.abs(self.heart_rate_clear - self.heart_rate_true)

    @property
    def hr_error_vs_chance(self) -> np.ndarray:
        """Attacker error minus the chance baseline's, per record.

        Zero-mean means the jamming drove HR inference to chance: the
        attacker's estimate carries no more information than decoding
        coin flips.
        """
        return self.hr_abs_error - self.chance_hr_error

    @property
    def rhythm_correct(self) -> int:
        return sum(
            est == true
            for est, true in zip(self.rhythms_attacker, self.rhythms_true)
        )

    def moments(self) -> dict:
        """Mergeable sufficient statistics (the campaign unit result).

        Sums and sums of squares per metric, so cached chunks rebuild
        exact means and confidence intervals in any order.
        """
        def pair(values: np.ndarray) -> tuple[float, float]:
            return float(np.sum(values)), float(np.sum(np.square(values)))

        err, err_sq = pair(self.hr_abs_error)
        gap, gap_sq = pair(self.hr_error_vs_chance)
        clear, clear_sq = pair(self.hr_abs_error_clear)
        f1, f1_sq = pair(self.beat_f1)
        nrmse, nrmse_sq = pair(self.waveform_nrmse)
        return {
            "n_records": self.n_records,
            "hr_err_sum": err,
            "hr_err_sqsum": err_sq,
            "hr_gap_sum": gap,
            "hr_gap_sqsum": gap_sq,
            "hr_err_clear_sum": clear,
            "hr_err_clear_sqsum": clear_sq,
            "beat_f1_sum": f1,
            "beat_f1_sqsum": f1_sq,
            "nrmse_sum": nrmse,
            "nrmse_sqsum": nrmse_sq,
            "rhythm_correct": int(self.rhythm_correct),
            "ber_sum": float(np.sum(self.ber_attacker)),
            "ber_clear_sum": float(np.sum(self.ber_clear)),
        }


class PhysioLab:
    """Content-leakage rig over the waveform-level jamming lab.

    Parameters
    ----------
    ecg_config / codec / inference_config:
        The cardiac source, telemetry codec, and attacker estimator;
        the record duration is derived from ``packets_per_record`` and
        the codec window, so a record always fills a whole number of
        packets.
    budget / shield_config / fsk:
        Forwarded to the underlying :class:`PassiveLab`.
    seed:
        Root of every random stream (records, packet noise, chance
        baseline); accepts an ``int`` or a ``SeedSequence`` work-unit
        stream.
    packets_per_record:
        Telemetry packets one record spans (16 x 48 samples at 120 Hz
        = 6.4 s of waveform by default).
    chance_repeats:
        Coin-flip decodes averaged into each record's chance baseline
        (more repeats tighten the versus-chance comparison).
    """

    def __init__(
        self,
        ecg_config: ECGConfig | None = None,
        codec: WaveformCodec | None = None,
        inference_config: InferenceConfig | None = None,
        budget: LinkBudget | None = None,
        shield_config: ShieldConfig | None = None,
        fsk: FSKConfig | None = None,
        seed: int | np.random.SeedSequence = 0,
        packets_per_record: int = 16,
        chance_repeats: int = 3,
    ):
        if packets_per_record < 1:
            raise ValueError("packets_per_record must be positive")
        if chance_repeats < 1:
            raise ValueError("chance_repeats must be positive")
        self.codec = codec or WaveformCodec()
        base = ecg_config or ECGConfig()
        duration = (
            packets_per_record
            * self.codec.window_samples
            / base.sample_rate_hz
        )
        self.ecg_config = replace(base, duration_s=duration)
        self.generator = ECGGenerator(self.ecg_config)
        self.inference_config = inference_config or InferenceConfig()
        self.budget = budget
        self.shield_config = shield_config
        self.fsk = fsk
        self.packets_per_record = packets_per_record
        self.chance_repeats = chance_repeats
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        # One child stream per randomness role; each run_records call
        # spawns fresh grandchildren, so repeated calls draw fresh,
        # reproducible blocks.
        self._ecg_root, self._mix_root, self._lab_root, self._chance_root = (
            root.spawn(4)
        )

    # ------------------------------------------------------------------

    def _draw_rhythms(
        self, n_records: int, rhythm: str
    ) -> tuple[str, ...]:
        if rhythm == MIXED_RHYTHM:
            rng = np.random.default_rng(self._mix_root.spawn(1)[0])
            return tuple(rng.choice(RHYTHM_CLASSES, size=n_records))
        if rhythm not in RHYTHM_CLASSES:
            raise ValueError(
                f"unknown rhythm {rhythm!r}; expected one of {RHYTHM_CHOICES}"
            )
        return (rhythm,) * n_records

    def run_records(
        self,
        n_records: int,
        jam_margin_db: float = 20.0,
        location_index: int = 1,
        shield_present: bool = True,
        rhythm: str = "normal",
        strategy: DecodingStrategy | None = None,
    ) -> PhysioBatchResult:
        """Transmit ``n_records`` of cardiac telemetry and score the leak.

        The same encoded packets are eavesdropped under the scenario
        condition (shield jamming at ``jam_margin_db``, or no jamming
        when ``shield_present=False``) and under the clear reference;
        ``chance_repeats`` coin-flip decodes per record calibrate the
        chance baseline.
        """
        if n_records < 1:
            raise ValueError("need at least one record")
        rhythms = self._draw_rhythms(n_records, rhythm)
        ecg = self.generator.sample_batch(
            n_records, seed=self._ecg_root.spawn(1)[0], rhythms=rhythms
        )
        window = self.codec.window_samples
        n_packets = n_records * self.packets_per_record
        payloads = self.codec.encode_batch(
            ecg.samples.reshape(n_packets, window),
            ecg.beat_mask.reshape(n_packets, window),
        )
        lab = PassiveLab(
            budget=self.budget,
            shield_config=self.shield_config,
            fsk=self.fsk,
            seed=self._lab_root.spawn(1)[0],
            payload_source=PhysioPayloadSource(payloads),
        )
        bits = lab.telemetry_packet_bits_batch(n_packets)
        margin = jam_margin_db if shield_present else NO_JAMMING_MARGIN_DB
        attacked = lab.run_batch(
            margin,
            location_index=location_index,
            strategy=strategy,
            score_shield=False,
            bits=bits,
            return_eavesdropper_bits=True,
        )
        if shield_present:
            clear = lab.run_batch(
                NO_JAMMING_MARGIN_DB,
                location_index=location_index,
                strategy=strategy,
                score_shield=False,
                bits=bits,
                return_eavesdropper_bits=True,
            )
        else:
            clear = attacked

        inference = AttackerInference(
            codec=self.codec,
            sample_rate_hz=self.ecg_config.sample_rate_hz,
            packet_codec=lab.codec,
            config=self.inference_config,
        )
        shape = (n_records, self.packets_per_record, bits.shape[1])
        # Chance baseline: the same pipeline fed coin flips, so any
        # estimator bias (autocorrelation floor, classifier priors)
        # cancels out of the versus-chance comparison.  One draw fills
        # every repeat, in the stream order of per-repeat draws.
        chance_rng = np.random.default_rng(self._chance_root.spawn(1)[0])
        coins = chance_rng.integers(
            0, 2, size=(self.chance_repeats,) + shape, dtype=np.int64
        )
        # Every condition's records go through one inference pass:
        # attacked, clear (shield present only), then the coin blocks.
        conditions = [attacked] if clear is attacked else [attacked, clear]
        blocks = [c.eavesdropper_bits.reshape(shape) for c in conditions]
        blocks.append(coins.reshape((-1,) + shape[1:]))
        inferred_all = inference.infer_batch(np.concatenate(blocks))
        n_inferred = len(conditions) * n_records
        inferred = inferred_all[:n_records]
        inferred_clear = inferred_all[n_inferred - n_records: n_inferred]
        chance_hr = np.array(
            [r.heart_rate_bpm for r in inferred_all[n_inferred:]]
        ).reshape(self.chance_repeats, n_records)
        chance_err = np.zeros(n_records)
        for repeat_hr in chance_hr:
            chance_err += np.abs(repeat_hr - ecg.heart_rate_bpm)
        chance_err /= self.chance_repeats

        f1 = np.array([
            beat_f1(
                ecg.beat_times(i),
                inferred[i].beat_times,
                self.inference_config.beat_match_tol_s,
            )
            for i in range(n_records)
        ])
        nrmse = np.array([
            waveform_nrmse(
                ecg.samples[i].reshape(-1), inferred[i].samples
            )
            for i in range(n_records)
        ])
        per_record_ber = attacked.eavesdropper_ber.reshape(
            n_records, self.packets_per_record
        ).mean(axis=1)
        per_record_ber_clear = clear.eavesdropper_ber.reshape(
            n_records, self.packets_per_record
        ).mean(axis=1)

        return PhysioBatchResult(
            rhythms_true=rhythms,
            heart_rate_true=ecg.heart_rate_bpm.copy(),
            heart_rate_attacker=np.array(
                [r.heart_rate_bpm for r in inferred]
            ),
            heart_rate_clear=np.array(
                [r.heart_rate_bpm for r in inferred_clear]
            ),
            chance_hr_error=chance_err,
            rhythms_attacker=tuple(r.rhythm for r in inferred),
            beat_f1=f1,
            waveform_nrmse=nrmse,
            ber_attacker=per_record_ber,
            ber_clear=per_record_ber_clear,
        )
