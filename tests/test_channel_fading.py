"""Tests for fading and shadowing draws."""

import numpy as np
import pytest

from repro.channel.fading import NO_FADING, FadingModel, rayleigh_gain, rician_gain


class TestGains:
    def test_rayleigh_unit_mean_power(self, rng):
        powers = [abs(rayleigh_gain(rng)) ** 2 for _ in range(20_000)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.05)

    def test_rician_unit_mean_power(self, rng):
        powers = [abs(rician_gain(10.0, rng)) ** 2 for _ in range(20_000)]
        assert np.mean(powers) == pytest.approx(1.0, rel=0.05)

    def test_rician_less_variable_than_rayleigh(self, rng):
        ray = [abs(rayleigh_gain(rng)) ** 2 for _ in range(5000)]
        ric = [abs(rician_gain(12.0, rng)) ** 2 for _ in range(5000)]
        assert np.std(ric) < np.std(ray)

    def test_infinite_k_is_deterministic(self, rng):
        assert rician_gain(float("inf"), rng) == 1.0 + 0.0j


class TestFadingModel:
    def test_mean_gain_near_zero_db(self, rng):
        model = FadingModel(shadowing_sigma_db=2.0)
        draws = model.gain_db_batch(True, rng, 20_000)
        # Mean linear power is 1, so mean dB sits slightly below 0
        # (Jensen); it must be within a couple of dB of 0.
        assert abs(np.mean(draws)) < 3.0

    def test_nlos_spread_exceeds_los(self, rng):
        model = FadingModel(shadowing_sigma_db=1.0)
        los = model.gain_db_batch(True, rng, 5000)
        nlos = model.gain_db_batch(False, rng, 5000)
        assert np.std(nlos) > np.std(los)

    def test_disabled_model_is_identity(self, rng):
        state = rng.bit_generator.state
        assert not NO_FADING.gain_db_batch(True, rng, 3).any()
        assert not NO_FADING.gain_db_batch(False, rng, 3).any()
        assert rng.bit_generator.state == state

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            FadingModel(shadowing_sigma_db=-1.0)
