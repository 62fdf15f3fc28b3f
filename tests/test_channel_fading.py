"""Tests for fading and shadowing draws."""

import numpy as np
import pytest

from repro.channel.fading import NO_FADING, FadingModel


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
