"""Tests for the analytic error-rate models."""

import math

import numpy as np
import pytest

from repro.phy.ber import flip_bits, noncoherent_fsk_ber, sample_bit_errors


class TestNoncoherentBER:
    def test_known_value_at_10db(self):
        # 0.5 exp(-10/2) with SNR linear = 10.
        assert noncoherent_fsk_ber(10.0) == pytest.approx(0.5 * math.exp(-5.0))

    def test_saturates_at_half(self):
        assert noncoherent_fsk_ber(-60.0) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_decreasing(self):
        values = [noncoherent_fsk_ber(s) for s in range(-10, 30, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negligible_at_high_snr(self):
        assert noncoherent_fsk_ber(25.0) < 1e-60


class TestSampling:
    def test_sample_rate_statistics(self, rng):
        mask = sample_bit_errors(0.25, 100_000, rng)
        assert mask.mean() == pytest.approx(0.25, abs=0.01)

    def test_zero_rate_is_all_false(self, rng):
        assert not sample_bit_errors(0.0, 1000, rng).any()

    def test_rejects_bad_rate(self, rng):
        with pytest.raises(ValueError):
            sample_bit_errors(-0.1, 10, rng)

    def test_flip_bits_preserves_length_and_alphabet(self, rng):
        bits = rng.integers(0, 2, size=500)
        flipped = flip_bits(bits, 0.5, rng)
        assert flipped.shape == bits.shape
        assert set(np.unique(flipped)) <= {0, 1}

    def test_flip_bits_zero_rate_identity(self, rng):
        bits = rng.integers(0, 2, size=64)
        assert np.array_equal(flip_bits(bits, 0.0, rng), bits)

    def test_flip_bits_certain_rate_inverts(self, rng):
        bits = rng.integers(0, 2, size=64)
        assert np.array_equal(flip_bits(bits, 1.0, rng), 1 - bits)
