"""Tests for the synthetic ECG generator: shapes, rhythms, batch parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physio.ecg import (
    ECGConfig,
    ECGGenerator,
    RHYTHM_CLASSES,
    RHYTHM_RATES_BPM,
    _ecg_wave_accumulate,
)


class TestConfigValidation:
    def test_rejects_unknown_rhythm(self):
        with pytest.raises(ValueError, match="unknown rhythm"):
            ECGConfig(rhythm="flutter")

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ECGConfig(duration_s=0.0)

    def test_rejects_implausible_rate(self):
        with pytest.raises(ValueError):
            ECGConfig(heart_rate_bpm=500.0)

    def test_n_samples(self):
        config = ECGConfig(sample_rate_hz=120.0, duration_s=6.4)
        assert config.n_samples == 768


class TestBatchShape:
    def test_shapes_and_types(self):
        batch = ECGGenerator().sample_batch(3, seed=1)
        n = ECGConfig().n_samples
        assert batch.samples.shape == (3, n)
        assert batch.beat_mask.shape == (3, n)
        assert batch.beat_mask.dtype == bool
        assert batch.heart_rate_bpm.shape == (3,)
        assert batch.rhythms == ("normal",) * 3

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            ECGGenerator().sample_batch(0, seed=1)

    def test_rejects_rhythm_count_mismatch(self):
        with pytest.raises(ValueError, match="rhythms"):
            ECGGenerator().sample_batch(3, seed=1, rhythms=("normal",))

    def test_rejects_unknown_rhythm_in_batch(self):
        with pytest.raises(ValueError, match="unknown rhythm"):
            ECGGenerator().sample_batch(1, seed=1, rhythms=("sinus",))

    def test_beat_times_match_mask(self):
        batch = ECGGenerator().sample_batch(2, seed=3)
        for i in range(2):
            times = batch.beat_times(i)
            assert len(times) == int(batch.beat_mask[i].sum())
            assert np.all(np.diff(times) > 0)


class TestBatchScalarParity:
    """sample_batch(n)[i] must equal sample_record on the i-th child stream."""

    @pytest.mark.parametrize("rhythm", RHYTHM_CLASSES)
    def test_batch_rows_match_scalar_reference(self, rhythm):
        root = np.random.SeedSequence(42)
        children = root.spawn(4)
        batch = ECGGenerator().sample_batch(
            4, seed=np.random.SeedSequence(42), rhythms=(rhythm,) * 4
        )
        for i, child in enumerate(children):
            scalar = ECGGenerator().sample_record(child, rhythm=rhythm)
            np.testing.assert_array_equal(scalar.samples[0], batch.samples[i])
            np.testing.assert_array_equal(
                scalar.beat_mask[0], batch.beat_mask[i]
            )
            assert scalar.heart_rate_bpm[0] == batch.heart_rate_bpm[i]

    def test_same_seed_same_batch(self):
        a = ECGGenerator().sample_batch(3, seed=9)
        b = ECGGenerator().sample_batch(3, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.beat_mask, b.beat_mask)

    def test_different_seeds_differ(self):
        a = ECGGenerator().sample_batch(3, seed=9)
        b = ECGGenerator().sample_batch(3, seed=10)
        assert not np.array_equal(a.samples, b.samples)


class TestSampleRates:
    """``sample_rates`` is ``sample_batch(...).heart_rate_bpm`` without
    the waveforms."""

    @given(
        n=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        rhythms=st.one_of(
            st.none(),
            st.lists(st.sampled_from(RHYTHM_CLASSES), min_size=24, max_size=24),
        ),
        duration_s=st.sampled_from([0.5, 2.0, 6.4]),
        heart_rate_bpm=st.sampled_from([None, 25.0, 290.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rates_equal_the_batch_rates(
        self, n, seed, rhythms, duration_s, heart_rate_bpm
    ):
        generator = ECGGenerator(
            ECGConfig(duration_s=duration_s, heart_rate_bpm=heart_rate_bpm)
        )
        rhythms = None if rhythms is None else tuple(rhythms[:n])
        rates = generator.sample_rates(n, seed=seed, rhythms=rhythms)
        batch = generator.sample_batch(n, seed=seed, rhythms=rhythms)
        assert rates.dtype == batch.heart_rate_bpm.dtype
        assert np.array_equal(rates, batch.heart_rate_bpm)

    def test_seed_sequence_root_matches_too(self):
        rhythms = tuple(RHYTHM_CLASSES[i % 4] for i in range(50))
        rates = ECGGenerator().sample_rates(
            50, seed=np.random.SeedSequence(8), rhythms=rhythms
        )
        batch = ECGGenerator().sample_batch(
            50, seed=np.random.SeedSequence(8), rhythms=rhythms
        )
        assert np.array_equal(rates, batch.heart_rate_bpm)

    @pytest.mark.parametrize(
        "n, rhythms, match",
        [
            (0, None, "at least one record"),
            (2, ("normal",), "2 records"),
            (1, ("flutter",), "unknown rhythm"),
        ],
    )
    def test_rejects_what_sample_batch_rejects(self, n, rhythms, match):
        for draw in (ECGGenerator().sample_rates, ECGGenerator().sample_batch):
            with pytest.raises(ValueError, match=match):
                draw(n, seed=0, rhythms=rhythms)


class TestRhythmProperties:
    def _rr_stats(self, rhythm, n=20, seed=5):
        config = ECGConfig(duration_s=10.0)
        batch = ECGGenerator(config).sample_batch(
            n, seed=seed, rhythms=(rhythm,) * n
        )
        cvs, rates = [], []
        for i in range(n):
            rr = np.diff(batch.beat_times(i))
            cvs.append(np.std(rr) / np.mean(rr))
            rates.append(batch.heart_rate_bpm[i])
        return float(np.mean(cvs)), float(np.mean(rates))

    @pytest.mark.parametrize("rhythm", RHYTHM_CLASSES)
    def test_mean_rate_tracks_rhythm_default(self, rhythm):
        _, rate = self._rr_stats(rhythm)
        assert rate == pytest.approx(RHYTHM_RATES_BPM[rhythm], rel=0.12)

    def test_afib_is_far_more_irregular_than_sinus(self):
        cv_afib, _ = self._rr_stats("afib")
        cv_normal, _ = self._rr_stats("normal")
        assert cv_afib > 0.15
        assert cv_normal < 0.08

    def test_afib_has_no_p_wave(self):
        """The P-wave bump before each R peak vanishes for AF records."""
        config = ECGConfig(noise_std=0.0, wander_amplitude=0.0)
        gen = ECGGenerator(config)
        fs = config.sample_rate_hz

        def p_window_level(rhythm):
            batch = gen.sample_batch(6, seed=11, rhythms=(rhythm,) * 6)
            levels = []
            for i in range(6):
                for t in batch.beat_times(i):
                    idx = int(round((t - 0.16) * fs))
                    if 2 <= idx < config.n_samples - 2:
                        levels.append(batch.samples[i][idx])
            return float(np.median(levels))

        assert p_window_level("normal") > 0.08
        assert abs(p_window_level("afib")) < 0.05

    def test_r_peaks_dominate(self):
        config = ECGConfig(noise_std=0.0, wander_amplitude=0.0)
        batch = ECGGenerator(config).sample_batch(2, seed=2)
        for i in range(2):
            peak_values = batch.samples[i][batch.beat_mask[i]]
            assert np.all(peak_values > 0.7)

    def test_custom_rate_overrides_default(self):
        config = ECGConfig(heart_rate_bpm=60.0, duration_s=10.0)
        batch = ECGGenerator(config).sample_batch(8, seed=4)
        assert float(np.mean(batch.heart_rate_bpm)) == pytest.approx(60.0, rel=0.08)


class TestWithDuration:
    def test_with_duration_resizes_records(self):
        gen = ECGGenerator(ECGConfig(duration_s=3.2))
        assert gen.config.duration_s == 3.2
        batch = gen.sample_batch(1, seed=0)
        assert batch.samples.shape[1] == int(3.2 * 120)


@pytest.mark.statistical
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 20))
@settings(max_examples=30, deadline=None)
def test_ecg_wave_accumulate_matches_inline_formula(seed, n_records, n_beats):
    n = 160
    fs, sigma, half = 100.0, 0.04, 8
    rng = np.random.default_rng(seed)
    record_index = rng.integers(0, n_records, size=n_beats).astype(np.int64)
    # Centers deliberately spill past both edges to exercise clipping.
    centers = rng.uniform(-0.3, n / 100.0 + 0.3, size=n_beats)
    amps = rng.standard_normal(n_beats)
    amps[rng.random(n_beats) < 0.2] = 0.0
    flat = np.zeros(n_records * n)
    _ecg_wave_accumulate(flat, record_index, centers, amps, sigma, fs, half, n)
    expected = np.zeros(n_records * n)
    offsets = np.arange(-half, half + 1)
    idx = np.round(centers * fs).astype(np.int64)[:, None] + offsets
    t_rel = idx / fs - centers[:, None]
    values = amps[:, None] * np.exp(-0.5 * (t_rel / sigma) ** 2)
    valid = (idx >= 0) & (idx < n)
    flat_idx = record_index[:, None] * n + np.clip(idx, 0, n - 1)
    np.add.at(expected, flat_idx[valid], values[valid])
    np.testing.assert_array_equal(flat, expected)
