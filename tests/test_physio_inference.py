"""Tests for the attacker-side inference pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.physio.codec import WaveformCodec
from repro.physio.ecg import ECGConfig, ECGGenerator
from repro.physio.inference import (
    AttackerInference,
    InferenceConfig,
    _median3,
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
