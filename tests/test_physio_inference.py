"""Tests for the attacker-side inference pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.physio.codec import WaveformCodec
from repro.physio.ecg import (
    ECGConfig,
    ECGGenerator,
    RHYTHM_CLASSES,
    rate_from_beat_times,
)
from repro.physio.inference import (
    AttackerInference,
    InferenceConfig,
    _beat_refractory_suppress,
    _hr_unbiased_autocorr,
    _median3,
    _robust_rr_cv,
    beat_f1,
    classify_rhythm,
    detect_beats,
    estimate_heart_rate,
    refine_heart_rate,
    waveform_nrmse,
)
from repro.protocol.commands import CommandType
from repro.protocol.packets import Packet, PacketCodec


def _clean_record(rhythm="normal", seed=0, duration=6.4):
    config = ECGConfig(duration_s=duration)
    batch = ECGGenerator(config).sample_batch(1, seed=seed, rhythms=(rhythm,))
    return batch, config


def _record_bits(batch, codec=None, packet_codec=None):
    """Transmitted frame bits of one record, one row per packet."""
    codec = codec or WaveformCodec()
    packet_codec = packet_codec or PacketCodec()
    payloads = codec.encode_record(batch.samples[0], batch.beat_mask[0])
    return np.stack([
        packet_codec.encode(
            Packet(bytes(range(10)), CommandType.TELEMETRY, i % 256,
                   payloads[i].tobytes())
        )
        for i in range(payloads.shape[0])
    ])


class TestConfigValidation:
    def test_rejects_inverted_hr_range(self):
        with pytest.raises(ValueError):
            InferenceConfig(hr_min_bpm=200.0, hr_max_bpm=40.0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            InferenceConfig(peak_threshold=1.5)


class TestEstimators:
    def test_heart_rate_on_clean_sinus(self):
        batch, config = _clean_record(seed=3)
        hr = estimate_heart_rate(
            batch.samples[0], config.sample_rate_hz
        )
        assert hr == pytest.approx(batch.heart_rate_bpm[0], abs=3.0)

    def test_heart_rate_on_tachycardia_avoids_subharmonic(self):
        """At 150 BPM the 2x-RR autocorrelation peak must not win."""
        batch, config = _clean_record(rhythm="tachycardia", seed=5)
        hr = estimate_heart_rate(batch.samples[0], config.sample_rate_hz)
        assert hr == pytest.approx(batch.heart_rate_bpm[0], rel=0.06)

    def test_heart_rate_rejects_too_short_record(self):
        with pytest.raises(ValueError, match="too short"):
            estimate_heart_rate(np.zeros(16), 120.0)

    def test_detect_beats_finds_every_r_peak(self):
        batch, config = _clean_record(seed=7)
        beats = detect_beats(batch.samples[0], config.sample_rate_hz)
        assert beat_f1(batch.beat_times(0), beats) == 1.0

    def test_detect_beats_empty_on_flat_signal(self):
        assert detect_beats(np.zeros(768), 120.0).size == 0

    def test_refine_accepts_consistent_beats(self):
        beats = np.arange(8) * 0.8  # 75 BPM train
        assert refine_heart_rate(76.0, beats) == pytest.approx(75.0)

    def test_refine_snaps_to_a_whole_number_of_periods(self):
        """Disagreeing beat counts are repaired via the autocorr period."""
        beats = np.arange(8) * 0.8  # endpoints span 5.6 s
        snapped = refine_heart_rate(140.0, beats)
        assert snapped == pytest.approx(60.0 * 13 / 5.6)

    def test_refine_keeps_autocorr_when_nothing_agrees(self):
        beats = np.array([0.0, 0.8, 1.6])  # 75 BPM over a 1.6 s span
        assert refine_heart_rate(50.0, beats) == 50.0

    def test_refine_needs_three_beats(self):
        assert refine_heart_rate(70.0, np.array([0.0, 0.8])) == 70.0


class TestRhythmClassifier:
    def test_rate_boundaries(self):
        regular = np.arange(10) * 0.8
        assert classify_rhythm(45.0, regular * (72 / 45)) == "bradycardia"
        assert classify_rhythm(150.0, regular * (72 / 150)) == "tachycardia"
        assert classify_rhythm(72.0, regular) == "normal"

    def test_irregular_rr_reads_as_afib(self, rng):
        rr = 0.65 * np.exp(0.3 * rng.standard_normal(12))
        beats = np.concatenate([[0.0], np.cumsum(rr)])
        assert classify_rhythm(92.0, beats) == "afib"

    def test_single_detection_glitch_does_not_spoof_afib(self):
        """One missed beat (a doubled RR) must not flip normal -> afib."""
        beats = list(np.arange(9) * 0.8)
        del beats[4]  # one missed detection
        assert classify_rhythm(75.0, np.asarray(beats)) == "normal"

    def test_few_beats_fall_back_to_rate(self):
        assert classify_rhythm(72.0, np.array([0.0, 0.8])) == "normal"


class TestMetrics:
    def test_beat_f1_perfect_and_empty(self):
        times = np.array([0.5, 1.3, 2.1])
        assert beat_f1(times, times) == 1.0
        assert beat_f1(times, np.empty(0)) == 0.0
        assert beat_f1(np.empty(0), np.empty(0)) == 1.0

    def test_beat_f1_counts_tolerance(self):
        true = np.array([1.0, 2.0])
        detected = np.array([1.05, 2.5])
        # One hit (within 80 ms), one miss.
        assert beat_f1(true, detected) == pytest.approx(0.5)

    def test_beat_f1_matching_is_one_to_one(self):
        true = np.array([1.0])
        detected = np.array([0.98, 1.02])
        assert beat_f1(true, detected) == pytest.approx(2 / 3)

    def test_nrmse_zero_for_identical(self, rng):
        x = rng.standard_normal(100)
        assert waveform_nrmse(x, x) == 0.0

    def test_nrmse_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            waveform_nrmse(np.zeros(4), np.zeros(5))


class TestAttackerInference:
    def test_clean_bits_recover_vitals(self):
        batch, config = _clean_record(rhythm="afib", seed=11)
        inference = AttackerInference()
        result = inference.infer_record(_record_bits(batch))
        assert result.heart_rate_bpm == pytest.approx(
            batch.heart_rate_bpm[0], abs=1.0
        )
        assert result.rhythm == "afib"
        assert beat_f1(batch.beat_times(0), result.beat_times) == 1.0
        assert waveform_nrmse(
            batch.samples[0], result.samples
        ) < 0.02

    def test_coin_flip_bits_give_chance(self, rng):
        batch, config = _clean_record(seed=13)
        bits = _record_bits(batch)
        coin = rng.integers(0, 2, size=bits.shape)
        result = AttackerInference().infer_record(coin)
        # The one thing chance cannot do is recover the waveform.
        assert waveform_nrmse(batch.samples[0], result.samples) > 0.3

    def test_corrupted_annotations_are_rejected(self, rng):
        """A flipped beat mask must not be trusted as ground truth."""
        batch, config = _clean_record(seed=17)
        codec = WaveformCodec()
        bits = _record_bits(batch, codec)
        inference = AttackerInference(codec)
        # Flip 10% of only the annotation bytes of every packet.
        payload_slice = PacketCodec().payload_slice(codec.payload_size)
        mask_bits_start = payload_slice.start + 8 * codec.window_samples
        corrupted = bits.copy()
        region = corrupted[:, mask_bits_start: payload_slice.stop]
        region ^= rng.random(region.shape) < 0.1
        result = inference.infer_record(corrupted)
        # Waveform-only fallback still nails the heart rate.
        assert result.heart_rate_bpm == pytest.approx(
            batch.heart_rate_bpm[0], abs=2.0
        )

    def test_infer_batch_matches_infer_record(self):
        batch, config = _clean_record(seed=19)
        bits = _record_bits(batch)
        inference = AttackerInference()
        single = inference.infer_record(bits)
        batched = inference.infer_batch(bits[None, :, :])
        assert len(batched) == 1
        assert batched[0].heart_rate_bpm == single.heart_rate_bpm
        assert batched[0].rhythm == single.rhythm
        np.testing.assert_array_equal(
            batched[0].beat_times, single.beat_times
        )

    def test_payloads_from_bits_rejects_vector(self):
        with pytest.raises(ValueError):
            AttackerInference().payloads_from_bits(np.zeros(100, dtype=np.int64))

    def test_modest_ber_still_leaks_heart_rate(self, rng):
        """The headline asymmetry: ~10% BER leaves HR recoverable."""
        errs = []
        for seed in range(12):
            batch, config = _clean_record(seed=100 + seed)
            bits = _record_bits(batch)
            noisy = bits ^ (rng.random(bits.shape) < 0.10)
            result = AttackerInference().infer_record(noisy)
            errs.append(abs(result.heart_rate_bpm - batch.heart_rate_bpm[0]))
        assert float(np.median(errs)) < 5.0


_TIED_RECORDS = st.builds(
    lambda seed, n, levels: np.random.default_rng(seed).integers(
        -levels, levels + 1, size=n
    ) / 4.0,
    st.integers(0, 2**32 - 1),
    st.integers(1, 2000),
    st.integers(0, 20),
)
_FLOAT_RECORDS = hnp.arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.one_of(_TIED_RECORDS, _FLOAT_RECORDS))
@settings(max_examples=150, deadline=None)
def test_median3_matches_np_median(x):
    """The min/max median filter equals the stacked np.median it replaced."""
    padded = np.concatenate([x[:1], x, x[-1:]])
    expected = np.median(
        np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0
    )
    out = _median3(x)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, expected)


@pytest.mark.statistical
@given(st.integers(0, 2**32 - 1), st.integers(8, 256))
@settings(max_examples=40, deadline=None)
def test_hr_unbiased_autocorr_matches_inline_formula(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    lag_hi = n - 1
    out = _hr_unbiased_autocorr(x, lag_hi)
    full = np.correlate(x, x, mode="full")[n - 1 :]
    inline = (full / (n - np.arange(n)))[: lag_hi + 1]
    np.testing.assert_array_equal(out, inline)


@pytest.mark.statistical
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
    st.integers(1, 2000),
    st.one_of(st.sampled_from([29.5, 30.0, 30.0001]), st.floats(0.0, 60.0)),
)
@settings(max_examples=80, deadline=None)
def test_beat_refractory_suppress_matches_all_pairs(
    seed, n_cands, span, refractory
):
    # The kernel is a sorted-neighbour search; the all-pairs definition
    # below is the original inline formula.  A narrow ``span`` forces
    # duplicate candidate indices.
    rng = np.random.default_rng(seed)
    cands = rng.integers(0, span, size=n_cands).astype(np.int64)
    out = _beat_refractory_suppress(cands, refractory)
    kept: list[int] = []
    for idx in cands:
        if all(abs(idx - k) >= refractory for k in kept):
            kept.append(int(idx))
    assert out.dtype == np.int64
    assert out.tolist() == kept


@pytest.mark.statistical
@given(st.integers(0, 2**32 - 1), st.integers(1, 800), st.data())
@settings(max_examples=80, deadline=None)
def test_hr_unbiased_autocorr_prefix_matches_full(seed, n, data):
    """Any prefix of lags -- served by "same" or "full" mode -- equals
    the same prefix of the full-mode formula, bit for bit."""
    lag_hi = data.draw(st.integers(0, n - 1))
    x = np.random.default_rng(seed).standard_normal(n)
    full = np.correlate(x, x, mode="full")[n - 1 :]
    expected = (full / (n - np.arange(n)))[: lag_hi + 1]
    np.testing.assert_array_equal(_hr_unbiased_autocorr(x, lag_hi), expected)


# -- the block path against the per-record formulas it replaced ----------
#
# The oracles below are the per-record implementation the block path
# replaced, kept verbatim: np.median / np.max / np.mean / np.std /
# np.clip on one record at a time.  The block path must reproduce them
# bit for bit, and every record of a block must infer exactly as it
# does alone.


def _oracle_robust_rr_cv(rr):
    rr = rr[np.isfinite(rr)]
    if len(rr) < 4:
        return None
    median = float(np.median(rr))
    if median <= 0:
        return None
    kept = rr[(rr > 0.6 * median) & (rr < 1.6 * median)]
    if len(kept) < 4:
        return float("inf")
    mean = float(np.mean(kept))
    return float(np.std(kept)) / mean if mean > 0 else None


def _oracle_beats(x, rate, config):
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
    order = np.argsort(x[candidates])[::-1]
    kept = _beat_refractory_suppress(
        candidates[order].astype(np.int64),
        float(config.refractory_s * rate),
    )
    return np.sort(kept) / rate


def _oracle_heart_rate(x, rate, config):
    x = x - np.mean(x)
    n = len(x)
    lag_min = max(2, int(np.floor(rate * 60.0 / config.hr_max_bpm)))
    lag_max = min(n - 2, int(np.ceil(rate * 60.0 / config.hr_min_bpm)))
    if lag_max <= lag_min:
        raise ValueError("record too short for the HR search range")
    full = np.correlate(x, x, mode="full")[n - 1 :]
    ac = (full / (n - np.arange(n)))[: lag_max + 2]
    best = lag_min + int(np.argmax(ac[lag_min : lag_max + 1]))

    def local_peak(center):
        lo = max(lag_min, center - 2)
        hi = min(lag_max, center + 2)
        return lo + int(np.argmax(ac[lo : hi + 1]))

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
    hr = 60.0 * rate / lag
    return float(np.clip(hr, config.hr_min_bpm, config.hr_max_bpm))


def _oracle_rhythm(hr, beats, config):
    cv = _oracle_robust_rr_cv(np.diff(beats))
    if cv is not None and cv > config.afib_rr_cv:
        return "afib"
    if hr < config.brady_below_bpm:
        return "bradycardia"
    if hr > config.tachy_above_bpm:
        return "tachycardia"
    return "normal"


def _oracle_record(samples, mask, rate, config):
    """(beats, heart rate, rhythm) of one record, the per-record way."""
    filtered = _median3(samples)
    beats = _oracle_beats(filtered, rate, config)
    times = np.flatnonzero(mask) / rate
    trusted = None
    implied = rate_from_beat_times(times) if len(times) >= 3 else None
    if (
        implied is not None
        and config.hr_min_bpm <= implied <= config.hr_max_bpm
        and len(beats)
    ):
        gaps = np.abs(times[:, None] - beats[None, :]).min(axis=1)
        if float(np.mean(gaps <= config.beat_match_tol_s)) >= 0.7:
            trusted = times
    if trusted is not None:
        hr = float(
            np.clip(
                rate_from_beat_times(trusted),
                config.hr_min_bpm,
                config.hr_max_bpm,
            )
        )
        beats = trusted
    else:
        hr = refine_heart_rate(
            _oracle_heart_rate(filtered, rate, config), beats
        )
    return beats, hr, _oracle_rhythm(hr, beats, config)


_RR_ELEMENTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0.5, 0.8, 0.8, 1.0, 1.3, -0.4, math.inf, -math.inf,
         math.nan]
    ),
    st.floats(0.3, 1.5),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _same_value(a, b):
    if a is None or b is None:
        return a is b
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.statistical
@given(st.lists(_RR_ELEMENTS, min_size=0, max_size=40))
@settings(max_examples=400, deadline=None)
def test_robust_rr_cv_matches_numpy_formula(values):
    """The sorted-list median and unwrapped sums equal np.median /
    np.mean / np.std, on both sides of numpy's 8-element pairwise sum,
    with duplicates and non-finite intervals."""
    rr = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_value(_robust_rr_cv(rr), _oracle_robust_rr_cv(rr))


@pytest.mark.parametrize("n", [0, 3, 4, 5, 7, 8, 9, 15, 16, 17, 40])
def test_robust_rr_cv_matches_numpy_formula_by_length(n):
    rng = np.random.default_rng(n)
    for spread in (0.02, 0.2, 0.6):
        rr = 0.8 * np.exp(spread * rng.standard_normal(n))
        assert _same_value(_robust_rr_cv(rr), _oracle_robust_rr_cv(rr))
        rr[::3] = rr[:1]  # duplicates
        assert _same_value(_robust_rr_cv(rr), _oracle_robust_rr_cv(rr))


_ECG_ROWS = ECGGenerator(ECGConfig(duration_s=6.4)).sample_batch(
    len(RHYTHM_CLASSES), seed=11, rhythms=RHYTHM_CLASSES
)
_RECORD_KINDS = ("ecg", "noisy_ecg", "coin", "tied", "flat", "ramp")
_MASK_KINDS = ("true", "none", "all", "random")


@st.composite
def _record_blocks(draw):
    """A block of equal-length records of mixed kinds and annotations:
    clean and corrupted ECG of every rhythm, coin-flip reconstructions,
    heavily tied levels, flat records (no excursion) and ramps (an
    excursion but no candidate peak)."""
    n = draw(st.sampled_from([384, 768, 41, 97, 385, 767]))
    rows = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codec = WaveformCodec()
    lo, _ = codec.amplitude_range
    samples = np.empty((rows, n))
    masks = np.empty((rows, n), dtype=bool)
    for i in range(rows):
        kind = draw(st.sampled_from(_RECORD_KINDS))
        source = int(rng.integers(len(RHYTHM_CLASSES)))
        start = int(rng.integers(0, 768 - n + 1))
        ecg = _ECG_ROWS.samples[source, start : start + n]
        if kind == "ecg":
            row = ecg
        elif kind == "noisy_ecg":
            row = ecg + (rng.random(n) < 0.1) * rng.standard_normal(n)
        elif kind == "coin":
            row = lo + rng.integers(0, 256, n) * codec.quantization_step
        elif kind == "tied":
            row = rng.integers(-2, 3, n) / 4.0
        elif kind == "flat":
            row = np.full(n, rng.standard_normal())
        else:
            row = np.linspace(-1.0, 1.0, n)
        samples[i] = row
        mask_kind = draw(st.sampled_from(_MASK_KINDS))
        if mask_kind == "true":
            masks[i] = _ECG_ROWS.beat_mask[source, start : start + n]
        elif mask_kind == "random":
            masks[i] = rng.random(n) < 0.05
        else:
            masks[i] = mask_kind == "all"
    return samples, masks


@pytest.mark.statistical
@given(_record_blocks())
@settings(max_examples=120, deadline=None)
def test_block_inference_matches_one_row_and_per_record_formulas(block):
    samples, masks = block
    inference = AttackerInference()
    config, rate = inference.config, inference.sample_rate_hz
    stacked = inference._infer_block(samples, masks)
    assert len(stacked) == len(samples)
    for i, result in enumerate(stacked):
        alone = inference._infer_block(samples[i : i + 1], masks[i : i + 1])[0]
        for other in (result, alone):
            np.testing.assert_array_equal(other.samples, samples[i])
        assert result.heart_rate_bpm == alone.heart_rate_bpm
        assert result.rhythm == alone.rhythm
        np.testing.assert_array_equal(result.beat_times, alone.beat_times)

        beats, hr, rhythm = _oracle_record(samples[i], masks[i], rate, config)
        assert result.heart_rate_bpm == hr
        assert result.rhythm == rhythm
        np.testing.assert_array_equal(result.beat_times, beats)

        filtered = _median3(samples[i])
        np.testing.assert_array_equal(
            detect_beats(samples[i], rate),
            _oracle_beats(filtered, rate, config),
        )
        assert estimate_heart_rate(samples[i], rate) == _oracle_heart_rate(
            filtered, rate, config
        )


def test_block_matches_one_row_on_jammed_bits(rng):
    """A stacked block of eavesdropped records -- clean, partly and fully
    jammed -- infers each record exactly as ``infer_record`` does."""
    records = []
    for seed, ber in ((31, 0.0), (32, 0.1), (33, 0.5)):
        batch, _ = _clean_record(seed=seed)
        bits = _record_bits(batch)
        records.append(bits ^ (rng.random(bits.shape) < ber))
    inference = AttackerInference()
    stacked = inference.infer_batch(np.stack(records))
    for bits, result in zip(records, stacked):
        single = inference.infer_record(bits)
        assert result.heart_rate_bpm == single.heart_rate_bpm
        assert result.rhythm == single.rhythm
        np.testing.assert_array_equal(result.beat_times, single.beat_times)
        np.testing.assert_array_equal(result.samples, single.samples)
