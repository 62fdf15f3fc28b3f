"""Tests for shaped jamming-signal generation (S6(a), Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jamming import ShapedJammer, _jam_tone_colour
from repro.phy.spectrum import FrequencyProfile, band_power_fraction


class TestShapedJammer:
    def test_power_budget_respected(self, rng):
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        jam = jammer.generate(4096, power=0.01)
        assert jam.power() == pytest.approx(0.01)

    def test_jam_is_random_never_repeats(self, rng):
        """S6: the jam acts as a one-time pad; two generations must be
        uncorrelated."""
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        a = jammer.generate(4096)
        b = jammer.generate(4096)
        corr = np.abs(np.vdot(a.samples, b.samples)) / (
            np.linalg.norm(a.samples) * np.linalg.norm(b.samples)
        )
        assert corr < 0.1

    def test_shaped_energy_sits_on_fsk_tones(self, rng):
        """Fig. 5: the shaped jam concentrates power where the FSK
        receiver listens."""
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        jam = jammer.generate(16384)
        tone_band = band_power_fraction(jam, 20e3, 80e3) + band_power_fraction(
            jam, -80e3, -20e3
        )
        assert tone_band > 0.5

    def test_flat_jammer_spreads_energy(self, rng):
        jammer = ShapedJammer.flat(300e3, 600e3, rng=rng)
        jam = jammer.generate(16384)
        tone_band = band_power_fraction(jam, 20e3, 80e3) + band_power_fraction(
            jam, -80e3, -20e3
        )
        # Two 60 kHz windows out of 300 kHz: ~40% of a flat spectrum.
        assert tone_band < 0.55

    def test_shaped_beats_flat_in_band(self, rng):
        """The Fig. 5 comparison, quantified: shaped jamming puts more
        power into the +/-50 kHz tone neighbourhoods at equal budget."""
        shaped = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng).generate(
            16384, power=1.0
        )
        flat = ShapedJammer.flat(300e3, 600e3, rng=rng).generate(16384, power=1.0)

        def tones(w):
            return band_power_fraction(w, 30e3, 70e3) + band_power_fraction(
                w, -70e3, -30e3
            )

        assert tones(shaped) > 1.3 * tones(flat)

    def test_custom_profile_followed(self, rng):
        """The generator must follow an arbitrary measured profile."""
        freqs = np.linspace(-300e3, 300e3, 64)
        power = np.where(np.abs(freqs + 100e3) < 30e3, 1.0, 1e-6)
        profile = FrequencyProfile(freqs, power)
        jam = ShapedJammer(profile, 600e3, rng=rng).generate(8192)
        assert band_power_fraction(jam, -140e3, -60e3) > 0.8

    def test_validation(self, rng):
        jammer = ShapedJammer.flat(300e3, 600e3, rng=rng)
        with pytest.raises(ValueError):
            jammer.generate(1)
        with pytest.raises(ValueError):
            jammer.generate(100, power=0.0)
        with pytest.raises(ValueError):
            ShapedJammer(FrequencyProfile.flat(8, 300e3), sample_rate=0.0)

    def test_profile_outside_sample_rate_rejected(self, rng):
        """A profile with no support inside the jammer's Nyquist band is
        a configuration error, not silent silence."""
        freqs = np.linspace(5e6, 6e6, 16)
        profile = FrequencyProfile(freqs, np.ones(16))
        jammer = ShapedJammer(profile, 600e3, rng=rng)
        with pytest.raises(ValueError):
            jammer.generate(1024)


class TestBatchedJamming:
    def test_batch_rows_hit_power_budget(self, rng):
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        batch = jammer.generate_batch(5, 4096, power=2.5)
        assert batch.shape == (5, 4096)
        row_power = np.mean(np.abs(batch) ** 2, axis=1)
        assert np.allclose(row_power, 2.5)

    def test_batch_rows_are_independent(self, rng):
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        batch = jammer.generate_batch(2, 2048)
        assert not np.allclose(batch[0], batch[1])

    def test_batch_validation(self, rng):
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        with pytest.raises(ValueError):
            jammer.generate_batch(0, 128)
        with pytest.raises(ValueError):
            jammer.generate_batch(1, 128, power=0.0)

    def test_spectral_scale_cached_per_length(self, rng):
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        jammer.generate(512)
        jammer.generate(512)
        assert set(jammer._scale_cache) == {512}


class TestToneCorrelationBatch:
    """The correlation-domain fast path must match the statistics of
    correlating really generated jams."""

    def test_moments_match_empirical(self):
        from repro.phy.fsk import FSKConfig, NoncoherentFSKDemodulator

        fsk = FSKConfig()
        rng = np.random.default_rng(99)
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        n_bits, count = 32, 1500
        spb = fsk.samples_per_bit
        demod = NoncoherentFSKDemodulator(fsk)
        templates = np.conj(np.stack([demod._template0, demod._template1], axis=1))
        jams = jammer.generate_batch(count, n_bits * spb, power=1.0)
        empirical = (jams.reshape(count * n_bits, spb) @ templates).reshape(
            count, n_bits, 2
        )
        synthetic = jammer.tone_correlation_batch(count, fsk, n_bits, power=1.0)
        assert synthetic.shape == (count, n_bits, 2)
        # Per-tone variance, cross-tone covariance, lag-1 autocovariance.
        for tone in (0, 1):
            assert np.var(synthetic[:, :, tone]) == pytest.approx(
                np.var(empirical[:, :, tone]), rel=0.1
            )
        emp_cross = np.mean(empirical[:, :, 0] * np.conj(empirical[:, :, 1]))
        syn_cross = np.mean(synthetic[:, :, 0] * np.conj(synthetic[:, :, 1]))
        assert abs(emp_cross - syn_cross) < 0.15 * np.var(empirical[:, :, 0])
        emp_lag = np.mean(empirical[:, 1:, 0] * np.conj(empirical[:, :-1, 0]))
        syn_lag = np.mean(synthetic[:, 1:, 0] * np.conj(synthetic[:, :-1, 0]))
        assert abs(emp_lag - syn_lag) < 0.15 * np.var(empirical[:, :, 0])

    def test_power_scaling(self):
        from repro.phy.fsk import FSKConfig

        fsk = FSKConfig()
        rng = np.random.default_rng(5)
        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng)
        base = jammer.tone_correlation_batch(400, fsk, 16, power=1.0)
        strong = jammer.tone_correlation_batch(400, fsk, 16, power=4.0)
        assert np.var(strong) == pytest.approx(4.0 * np.var(base), rel=0.15)

    def test_rejects_mismatched_sample_rate(self):
        from repro.phy.fsk import FSKConfig

        jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3)
        with pytest.raises(ValueError):
            jammer.tone_correlation_batch(1, FSKConfig(sample_rate=1.2e6), 8)

    def test_factors_shared_across_equal_jammers(self):
        from repro.phy.fsk import FSKConfig

        fsk = FSKConfig()
        first = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3)
        second = ShapedJammer.matched_to_fsk(
            50e3, 100e3, 600e3, rng=np.random.default_rng(9)
        )
        factor = first._correlation_factors(fsk, 16)
        assert second._correlation_factors(fsk, 16) is factor
        assert not factor.flags.writeable

    def test_two_tone_profile_shared_and_read_only(self):
        from repro.experiments.waveform_lab import PassiveLab

        first = PassiveLab(seed=1).jammer.profile
        second = PassiveLab(seed=2).jammer.profile
        assert second is first
        for values in (first.frequencies_hz, first.relative_power):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        fresh = FrequencyProfile.two_tone_fsk(50e3, 100e3, 256, 600e3)
        np.testing.assert_array_equal(
            first.relative_power, fresh.relative_power
        )
        other = ShapedJammer.matched_to_fsk(40e3, 100e3, 600e3).profile
        assert other is not first

    def test_factors_keyed_on_length_and_profile(self):
        from repro.phy.fsk import FSKConfig

        fsk = FSKConfig()
        shaped = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3)
        flat = ShapedJammer.flat(300e3, 600e3)
        factor = shaped._correlation_factors(fsk, 16)
        longer = shaped._correlation_factors(fsk, 32)
        other = flat._correlation_factors(fsk, 16)
        assert longer.shape == (32, 2, 2)
        assert other is not factor
        assert not np.array_equal(other, factor)


@pytest.mark.statistical
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 64))
@settings(max_examples=40, deadline=None)
def test_jam_tone_colour_matches_inline_formula(seed, n_jams, n_bits):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n_bits, 2, 2)) + 1j * rng.standard_normal(
        (n_bits, 2, 2)
    )
    draws = rng.standard_normal((n_jams, n_bits, 2)) + 1j * rng.standard_normal(
        (n_jams, n_bits, 2)
    )
    out = _jam_tone_colour(factor, draws)
    inline = (factor[None] @ draws[..., None])[..., 0]
    assert out.dtype == inline.dtype
    np.testing.assert_array_equal(out, inline)
