"""Tests for the band-pass filters and the OFDM extension."""

import numpy as np
import pytest

from repro.phy.filters import complex_bandpass, dual_tone_filter
from repro.phy.ofdm import OFDMConfig, OFDMModulator
from repro.phy.signal import Waveform


def _tone(freq_hz: float, n: int = 4096, fs: float = 600e3) -> Waveform:
    t = np.arange(n) / fs
    return Waveform(np.exp(2j * np.pi * freq_hz * t), fs)


class TestFilters:
    def test_bandpass_keeps_in_band_tone(self):
        out = complex_bandpass(_tone(50e3), 50e3, 25e3)
        assert out.power() == pytest.approx(1.0, rel=0.1)

    def test_bandpass_rejects_out_of_band_tone(self):
        out = complex_bandpass(_tone(-50e3), 50e3, 25e3)
        assert out.power() < 0.01

    def test_dual_tone_keeps_both_tones(self):
        for f in (-50e3, 50e3):
            out = dual_tone_filter(_tone(f), -50e3, 50e3, 25e3)
            assert out.power() > 0.8

    def test_dual_tone_rejects_middle(self):
        out = dual_tone_filter(_tone(0.0), -50e3, 50e3, 20e3)
        assert out.power() < 0.05

    def test_bandpass_validation(self):
        with pytest.raises(ValueError):
            complex_bandpass(_tone(0), 0, 400e3)


class TestOFDM:
    def test_round_trip(self, rng):
        """Each symbol is its cyclic prefix plus the scaled IFFT of its
        subcarrier row: strip the prefix, FFT, and the grid comes back."""
        cfg = OFDMConfig()
        grid = OFDMModulator.random_qpsk(4, cfg.n_subcarriers, rng)
        w = OFDMModulator(cfg).modulate(grid)
        symbols = w.samples.reshape(4, cfg.n_subcarriers + cfg.cyclic_prefix)
        cp = cfg.cyclic_prefix
        assert np.array_equal(symbols[:, :cp], symbols[:, -cp:])
        out = np.fft.fft(symbols[:, cp:], axis=1) / np.sqrt(cfg.n_subcarriers)
        assert np.allclose(out, grid, atol=1e-9)

    def test_rejects_wrong_subcarrier_count(self):
        with pytest.raises(ValueError):
            OFDMModulator(OFDMConfig()).modulate(np.ones((1, 5)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OFDMConfig(n_subcarriers=1)
        with pytest.raises(ValueError):
            OFDMConfig(cyclic_prefix=64, n_subcarriers=64)
