"""Attacker-side physiological inference: eavesdropped bits -> vitals.

The pipeline an eavesdropper runs on demodulated telemetry bits, CRC
valid or not:

1. cut the payload field out of each frame
   (:meth:`~repro.protocol.packets.PacketCodec.payload_slice` -- the
   layout is public) and de-quantize it back to a waveform
   (:class:`~repro.physio.codec.WaveformCodec`);
2. median-filter the reconstruction (single-sample impulses from bit
   flips die here; QRS complexes, several samples wide, survive);
3. estimate heart rate from the unbiased autocorrelation of the
   reconstruction (with subharmonic correction and parabolic peak
   interpolation -- robust to exactly the impulsive corruption partial
   jamming causes);
4. detect beats by thresholded peak picking with a refractory window,
   and classify the rhythm from rate + RR irregularity (AF-style
   rhythms are flagged by RR coefficient of variation, the standard
   training-free discriminator).

The leakage metrics -- heart-rate absolute error, beat-detection F1,
rhythm accuracy, waveform NRMSE -- quantify what a given bit error rate
actually reveals: at BER ~0.5 (the shield's one-time-pad regime) every
estimate collapses to chance, while modest BER still leaks heart rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel import get_kernel
from repro.physio.codec import WaveformCodec
from repro.physio.ecg import rate_from_beat_times
from repro.protocol.packets import PacketCodec

__all__ = [
    "AttackerInference",
    "InferenceConfig",
    "RecordInference",
    "beat_f1",
    "classify_rhythm",
    "detect_beats",
    "estimate_heart_rate",
    "refine_heart_rate",
    "waveform_nrmse",
]


@dataclass(frozen=True)
class InferenceConfig:
    """Tunables of the attacker's estimator."""

    hr_min_bpm: float = 40.0
    hr_max_bpm: float = 200.0
    #: A detected beat within this window of a true R peak counts as a hit.
    beat_match_tol_s: float = 0.08
    #: Minimum spacing between detected beats (suppresses T waves).
    refractory_s: float = 0.25
    #: Peak threshold as a fraction of the filtered signal's excursion.
    peak_threshold: float = 0.45
    #: Rate boundaries of the rhythm classifier.
    brady_below_bpm: float = 55.0
    tachy_above_bpm: float = 110.0
    #: RR coefficient of variation above which a record reads as AF.
    afib_rr_cv: float = 0.12
    #: A subharmonic autocorrelation peak at least this fraction of the
    #: best peak wins (the true RR is the smallest strong period).
    harmonic_ratio: float = 0.6

    def __post_init__(self) -> None:
        if not 0 < self.hr_min_bpm < self.hr_max_bpm:
            raise ValueError("need 0 < hr_min_bpm < hr_max_bpm")
        if self.beat_match_tol_s <= 0 or self.refractory_s <= 0:
            raise ValueError("time windows must be positive")
        if not 0.0 < self.peak_threshold < 1.0:
            raise ValueError("peak_threshold must lie strictly in (0, 1)")
        if not 0.0 < self.harmonic_ratio < 1.0:
            raise ValueError("harmonic_ratio must lie strictly in (0, 1)")


@dataclass(frozen=True)
class RecordInference:
    """Everything the attacker inferred from one record's bits."""

    samples: np.ndarray
    beat_times: np.ndarray
    heart_rate_bpm: float
    rhythm: str


def _median3(x: np.ndarray) -> np.ndarray:
    """3-point median filter (edge-padded).

    The attacker's impulse killer: a single corrupted sample between two
    clean ones is replaced by a neighbour, while real QRS peaks -- wider
    than one sample at the codec's rate -- keep most of their height.
    """
    padded = np.concatenate([x[:1], x, x[-1:]])
    left, right = padded[:-2], padded[2:]
    # The exact median of three by min/max (NaN propagates, as it does
    # through np.median), without a partition per call.
    return np.maximum(
        np.minimum(left, x), np.minimum(np.maximum(left, x), right)
    )


def estimate_heart_rate(
    samples: np.ndarray,
    sample_rate_hz: float,
    config: InferenceConfig | None = None,
) -> float:
    """Heart rate (BPM) from the autocorrelation of a reconstruction.

    Unbiased autocorrelation over the physiological lag range, a
    subharmonic check (a 2x/3x/4x RR peak must not shadow the true
    period), and parabolic interpolation for sub-sample lag precision.
    """
    config = config or InferenceConfig()
    filtered = _median3(np.asarray(samples, dtype=np.float64))
    return _heart_rate_filtered(filtered, sample_rate_hz, config)


def _heart_rate_filtered(
    x: np.ndarray, sample_rate_hz: float, config: InferenceConfig
) -> float:
    """:func:`estimate_heart_rate` on an already median-filtered record."""
    x = x - np.mean(x)
    n = len(x)
    lag_min = max(2, int(np.floor(sample_rate_hz * 60.0 / config.hr_max_bpm)))
    lag_max = min(n - 2, int(np.ceil(sample_rate_hz * 60.0 / config.hr_min_bpm)))
    if lag_max <= lag_min:
        raise ValueError(
            f"record too short for the HR search range: {n} samples at "
            f"{sample_rate_hz:g} Hz"
        )
    # Unbiased autocorrelation through the accel registry; the search
    # below never reads past lag_max + 1 (the parabolic neighbour), so
    # the kernel only computes that prefix.
    ac = get_kernel("hr_unbiased_autocorr")(x, lag_max + 1)

    window = ac[lag_min: lag_max + 1]
    best = lag_min + int(np.argmax(window))

    def local_peak(center: int) -> int:
        lo = max(lag_min, center - 2)
        hi = min(lag_max, center + 2)
        return lo + int(np.argmax(ac[lo: hi + 1]))

    # Prefer the smallest strong period: if the winner sits at an RR
    # multiple, the subharmonic peak is nearly as tall.
    for divisor in (4, 3, 2):
        candidate = int(round(best / divisor))
        if candidate < lag_min:
            continue
        candidate = local_peak(candidate)
        if ac[candidate] >= config.harmonic_ratio * ac[best]:
            best = candidate
            break

    lag = float(best)
    if 1 <= best <= n - 2:
        left, mid, right = ac[best - 1], ac[best], ac[best + 1]
        denom = left - 2.0 * mid + right
        if denom < 0:
            delta = 0.5 * (left - right) / denom
            lag = best + float(np.clip(delta, -0.5, 0.5))
    hr = 60.0 * sample_rate_hz / lag
    return float(np.clip(hr, config.hr_min_bpm, config.hr_max_bpm))


def detect_beats(
    samples: np.ndarray,
    sample_rate_hz: float,
    config: InferenceConfig | None = None,
) -> np.ndarray:
    """R-peak times (seconds): thresholded maxima + refractory suppression."""
    config = config or InferenceConfig()
    filtered = _median3(np.asarray(samples, dtype=np.float64))
    return _beats_filtered(filtered, sample_rate_hz, config)


def _beats_filtered(
    x: np.ndarray, sample_rate_hz: float, config: InferenceConfig
) -> np.ndarray:
    """:func:`detect_beats` on an already median-filtered record."""
    baseline = float(np.median(x))
    excursion = float(np.max(x)) - baseline
    if excursion <= 0:
        return np.empty(0)
    threshold = baseline + config.peak_threshold * excursion
    interior = x[1:-1]
    candidates = 1 + np.flatnonzero(
        (interior > x[:-2]) & (interior >= x[2:]) & (interior > threshold)
    )
    if candidates.size == 0:
        return np.empty(0)
    refractory = config.refractory_s * sample_rate_hz
    # Strongest first; a weaker peak inside a kept peak's refractory
    # window (e.g. a T wave) is suppressed.  The ordering is computed
    # here (numpy argsort, identical under every backend) so the
    # suppression kernel reduces to exact integer/float comparisons.
    order = np.argsort(x[candidates])[::-1]
    kept = get_kernel("beat_refractory_suppress")(
        candidates[order].astype(np.int64), float(refractory)
    )
    return np.sort(kept) / sample_rate_hz


def refine_heart_rate(
    autocorr_hr_bpm: float,
    beat_times: np.ndarray,
    tolerance: float = 0.18,
) -> float:
    """Anchor an autocorrelation HR estimate to detected beat endpoints.

    ``60 * (n_beats - 1) / span`` is far more precise than the
    autocorrelation lag when detection is clean, and missed *interior*
    beats can be repaired by snapping the beat count to the
    autocorrelation period.  Either refinement is only accepted while it
    agrees with the autocorrelation estimate within ``tolerance`` -- at
    coin-flip BER both are garbage and the gate keeps the chance
    distribution honest.
    """
    beat_times = np.asarray(beat_times, dtype=np.float64)
    if len(beat_times) < 3:
        return autocorr_hr_bpm
    beat_hr = rate_from_beat_times(beat_times)
    if beat_hr is None:
        return autocorr_hr_bpm
    if abs(beat_hr - autocorr_hr_bpm) <= tolerance * autocorr_hr_bpm:
        return beat_hr
    span = float(beat_times[-1] - beat_times[0])
    n_periods = round(span * autocorr_hr_bpm / 60.0)
    if n_periods >= 2:
        snapped = 60.0 * n_periods / span
        if abs(snapped - autocorr_hr_bpm) <= tolerance * autocorr_hr_bpm:
            return snapped
    return autocorr_hr_bpm


def _robust_rr_cv(rr: np.ndarray) -> float | None:
    """RR coefficient of variation with gross outliers removed.

    A missed beat doubles one RR and a false detection halves one; both
    would spoof AF-style irregularity, so intervals outside
    [0.6, 1.6] x median are dropped before the CV -- AF's lognormal
    spread survives the filter, detection glitches do not.
    """
    rr = rr[np.isfinite(rr)]
    if len(rr) < 4:
        return None
    median = float(np.median(rr))
    if median <= 0:
        return None
    kept = rr[(rr > 0.6 * median) & (rr < 1.6 * median)]
    if len(kept) < 4:
        # Nothing coherent survives: maximal irregularity.
        return float("inf")
    mean = float(np.mean(kept))
    return float(np.std(kept)) / mean if mean > 0 else None


def classify_rhythm(
    heart_rate_bpm: float,
    beat_times: np.ndarray,
    config: InferenceConfig | None = None,
) -> str:
    """Training-free rhythm classifier: RR irregularity, then rate."""
    config = config or InferenceConfig()
    rr = np.diff(np.asarray(beat_times, dtype=np.float64))
    cv = _robust_rr_cv(rr)
    if cv is not None and cv > config.afib_rr_cv:
        return "afib"
    if heart_rate_bpm < config.brady_below_bpm:
        return "bradycardia"
    if heart_rate_bpm > config.tachy_above_bpm:
        return "tachycardia"
    return "normal"


def beat_f1(
    true_times: np.ndarray,
    detected_times: np.ndarray,
    tolerance_s: float = 0.08,
) -> float:
    """F1 of detected beats against ground truth (one-to-one matching)."""
    true_times = np.asarray(true_times, dtype=np.float64)
    detected_times = np.asarray(detected_times, dtype=np.float64)
    if true_times.size == 0 and detected_times.size == 0:
        return 1.0
    if true_times.size == 0 or detected_times.size == 0:
        return 0.0
    matched = np.zeros(true_times.size, dtype=bool)
    hits = 0
    for t in detected_times:
        gaps = np.abs(true_times - t)
        gaps[matched] = np.inf
        nearest = int(np.argmin(gaps))
        if gaps[nearest] <= tolerance_s:
            matched[nearest] = True
            hits += 1
    precision = hits / detected_times.size
    recall = hits / true_times.size
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def waveform_nrmse(true: np.ndarray, reconstructed: np.ndarray) -> float:
    """RMS reconstruction error normalized by the true signal's span."""
    true = np.asarray(true, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if true.shape != reconstructed.shape:
        raise ValueError(
            f"shape mismatch: {true.shape} vs {reconstructed.shape}"
        )
    span = float(np.max(true) - np.min(true))
    if span <= 0:
        raise ValueError("true waveform has no amplitude span")
    return float(np.sqrt(np.mean((reconstructed - true) ** 2)) / span)


class AttackerInference:
    """Bits-to-vitals pipeline over whole records of eavesdropped packets."""

    def __init__(
        self,
        codec: WaveformCodec | None = None,
        sample_rate_hz: float = 120.0,
        packet_codec: PacketCodec | None = None,
        config: InferenceConfig | None = None,
    ):
        self.codec = codec or WaveformCodec()
        self.sample_rate_hz = sample_rate_hz
        self.packet_codec = packet_codec or PacketCodec()
        self.config = config or InferenceConfig()
        self._payload_slice = self.packet_codec.payload_slice(
            self.codec.payload_size
        )

    def payloads_from_bits(self, packet_bits: np.ndarray) -> np.ndarray:
        """``(n_packets, payload_size)`` uint8 payloads cut from frame bits.

        ``packet_bits`` is the eavesdropper's hard-decision bit matrix,
        one whole frame per row; corruption passes straight through (the
        attacker has no use for the CRC verdict).
        """
        packet_bits = np.asarray(packet_bits)
        if packet_bits.ndim != 2:
            raise ValueError("packet_bits must be (n_packets, n_bits)")
        payload_bits = packet_bits[:, self._payload_slice].astype(np.uint8)
        expected = 8 * self.codec.payload_size
        if payload_bits.shape[1] != expected:
            raise ValueError(
                f"frames carry {payload_bits.shape[1]} payload bits, "
                f"expected {expected}"
            )
        return np.packbits(payload_bits, axis=1)

    def reconstruct_record(
        self, packet_bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One record's waveform + annotation mask from its packets' bits."""
        samples, mask = self.codec.decode_batch(
            self.payloads_from_bits(packet_bits)
        )
        return samples.reshape(-1), mask.reshape(-1)

    def infer_record(self, packet_bits: np.ndarray) -> RecordInference:
        """Full pipeline on one record: waveform, beats, HR, rhythm."""
        samples, mask = self.reconstruct_record(packet_bits)
        return self._infer_samples(samples, mask)

    def _validated_annotation_beats(
        self, mask: np.ndarray, waveform_beats: np.ndarray
    ) -> np.ndarray | None:
        """The annotation channel's beats, if they survive cross-checks.

        The telemetry carries the IMD's own R-peak annotations -- the
        highest-fidelity channel an eavesdropper could ask for -- but
        under jamming its bits flip into spurious beats.  The attacker
        only trusts the channel when (a) the implied rate is
        physiological and (b) most annotated beats coincide with peaks
        actually found in the waveform; corrupted masks fail both and
        the pipeline falls back to waveform-only detection.
        """
        config = self.config
        times = np.flatnonzero(mask) / self.sample_rate_hz
        if len(times) < 3:
            return None
        implied_hr = rate_from_beat_times(times)
        if implied_hr is None:
            return None
        if not config.hr_min_bpm <= implied_hr <= config.hr_max_bpm:
            return None
        if len(waveform_beats) == 0:
            return None
        gaps = np.abs(times[:, None] - waveform_beats[None, :]).min(axis=1)
        agreement = float(np.mean(gaps <= config.beat_match_tol_s))
        return times if agreement >= 0.7 else None

    def _infer_samples(
        self, samples: np.ndarray, mask: np.ndarray
    ) -> RecordInference:
        # Beat detection and the HR estimate read the same filtered
        # record, so it is filtered once here.
        filtered = _median3(np.asarray(samples, dtype=np.float64))
        waveform_beats = _beats_filtered(
            filtered, self.sample_rate_hz, self.config
        )
        annotated = self._validated_annotation_beats(mask, waveform_beats)
        if annotated is not None:
            # Two independent channels agree: the beat train is trusted
            # outright, irregular rhythms included.
            beats = annotated
            hr = float(
                np.clip(
                    rate_from_beat_times(beats),
                    self.config.hr_min_bpm,
                    self.config.hr_max_bpm,
                )
            )
        else:
            beats = waveform_beats
            hr = _heart_rate_filtered(
                filtered, self.sample_rate_hz, self.config
            )
            hr = refine_heart_rate(hr, beats)
        rhythm = classify_rhythm(hr, beats, self.config)
        return RecordInference(
            samples=samples,
            beat_times=beats,
            heart_rate_bpm=hr,
            rhythm=rhythm,
        )

    def infer_batch(self, record_bits: np.ndarray) -> list[RecordInference]:
        """Infer every record of a ``(n_records, packets, n_bits)`` block.

        Payload extraction and de-quantization run as one flat numpy
        pass over all packets; the per-record estimators then consume
        the reshaped reconstructions.
        """
        record_bits = np.asarray(record_bits)
        if record_bits.ndim != 3:
            raise ValueError(
                "record_bits must be (n_records, packets_per_record, n_bits)"
            )
        n_records, packets, n_bits = record_bits.shape
        flat_samples, flat_mask = self.codec.decode_batch(
            self.payloads_from_bits(record_bits.reshape(-1, n_bits))
        )
        window = self.codec.window_samples
        records = flat_samples.reshape(n_records, packets * window)
        masks = flat_mask.reshape(n_records, packets * window)
        return [
            self._infer_samples(row, mask_row)
            for row, mask_row in zip(records, masks)
        ]
