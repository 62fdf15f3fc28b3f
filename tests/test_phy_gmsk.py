"""Tests for the GMSK modem (meteorological cross-traffic)."""

import numpy as np
import pytest

from repro.phy.gmsk import GMSKConfig, GMSKModulator
from repro.phy.spectrum import band_power_fraction


class TestConfig:
    def test_defaults(self):
        cfg = GMSKConfig()
        assert cfg.samples_per_bit == 12
        assert cfg.bt_product == 0.5

    def test_rejects_bad_bt(self):
        with pytest.raises(ValueError):
            GMSKConfig(bt_product=2.0)

    def test_rejects_non_integer_oversampling(self):
        with pytest.raises(ValueError):
            GMSKConfig(bit_rate=48e3, sample_rate=100e3)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            GMSKConfig(pulse_span_bits=0)


class TestModulator:
    def test_constant_envelope(self, rng):
        bits = rng.integers(0, 2, size=100)
        w = GMSKModulator().modulate(bits)
        assert np.allclose(np.abs(w.samples), 1.0)

    def test_length(self):
        w = GMSKModulator().modulate([0, 1, 0])
        assert len(w) == 3 * GMSKConfig().samples_per_bit

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GMSKModulator().modulate([0, 3])

    def test_spectrum_is_compact(self, rng):
        """GMSK's Gaussian filtering keeps energy near the carrier."""
        bits = rng.integers(0, 2, size=2000)
        w = GMSKModulator().modulate(bits)
        assert band_power_fraction(w, -60e3, 60e3) > 0.95

    def test_spectrally_distinct_from_imd_fsk(self, rng):
        """Cross-traffic must not look like the IMD's two-tone FSK."""
        bits = rng.integers(0, 2, size=2000)
        w = GMSKModulator().modulate(bits)
        near_fsk_tones = band_power_fraction(w, 40e3, 60e3) + band_power_fraction(
            w, -60e3, -40e3
        )
        assert near_fsk_tones < 0.2
