"""Tests for the Waveform container and dB/power helpers."""

import math

import numpy as np
import pytest

from repro.phy.signal import Waveform, db_to_linear, dbm_to_watts, linear_to_db


class TestUnitConversions:
    def test_db_round_trip(self):
        assert linear_to_db(db_to_linear(13.7)) == pytest.approx(13.7)

    def test_db_to_linear_known_values(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(-30.0) == pytest.approx(1e-3)

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-1.0)

    def test_dbm_to_watts_closed_form(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(-16.0) == pytest.approx(10.0 ** (-46.0 / 10.0))

    def test_fcc_mics_limit_is_25_microwatts(self):
        assert dbm_to_watts(-16.0) == pytest.approx(25e-6, rel=0.01)


class TestWaveform:
    def test_power_of_unit_tone(self):
        t = np.arange(100)
        w = Waveform(np.exp(1j * 0.1 * t), sample_rate=1e6)
        assert w.power() == pytest.approx(1.0)

    def test_duration(self):
        w = Waveform(np.zeros(600), sample_rate=600e3)
        assert w.duration == pytest.approx(1e-3)

    def test_empty_waveform_power_is_zero(self):
        assert Waveform(np.zeros(0), 1e6).power() == 0.0

    def test_rejects_2d_samples(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 2)), 1e6)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), 0.0)

    def test_scaled_to_power(self, rng):
        w = Waveform(rng.standard_normal(512) + 1j * rng.standard_normal(512), 1e6)
        scaled = w.scaled_to_power(0.25)
        assert scaled.power() == pytest.approx(0.25)

    def test_scaled_to_power_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(16), 1e6).scaled_to_power(1.0)

    def test_scaled_complex_gain_rotates_and_scales(self):
        w = Waveform(np.ones(8), 1e6)
        out = w.scaled(2j)
        assert out.power() == pytest.approx(4.0)
        assert np.allclose(out.samples, 2j * np.ones(8))

    def test_padded_to(self):
        w = Waveform(np.ones(4), 1e6).padded_to(10)
        assert len(w) == 10
        assert np.all(w.samples[4:] == 0)

    def test_padded_to_rejects_shrink(self):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), 1e6).padded_to(2)

    def test_with_noise_raises_power(self, rng):
        w = Waveform(np.ones(20_000), 1e6)
        noisy = w.with_noise(0.5, rng)
        assert noisy.power() == pytest.approx(1.5, rel=0.05)

    def test_with_zero_noise_is_identity(self, rng):
        w = Waveform(np.ones(16), 1e6)
        assert np.array_equal(w.with_noise(0.0, rng).samples, w.samples)

    def test_with_noise_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            Waveform(np.ones(4), 1e6).with_noise(-1.0, rng)

    def test_snr_db(self):
        w = Waveform(np.ones(16), 1e6)
        assert w.snr_db(0.01) == pytest.approx(20.0)
