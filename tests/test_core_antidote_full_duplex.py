"""Tests for the antidote math (eq. 1-5) and the full-duplex front end."""

import numpy as np
import pytest

from repro.core.antidote import (
    antidote_signal,
    residual_gain,
    wideband_antidote,
)
from repro.core.config import ShieldConfig
from repro.core.full_duplex import FrontEndChannels, JammerCumReceiver
from repro.core.jamming import ShapedJammer
from repro.phy.fsk import FSKModulator, NoncoherentFSKDemodulator
from repro.phy.signal import Waveform, linear_to_db


def _jam(rng, n=4096):
    return ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=rng).generate(n)


class TestAntidoteMath:
    def test_perfect_estimates_cancel_exactly(self, rng):
        """Eq. 1 + eq. 2: with true channels the sum is identically zero."""
        h_self = 0.9 * np.exp(0.3j)
        h_jr = 0.04 * np.exp(-1.1j)
        jam = _jam(rng)
        antidote = antidote_signal(jam, h_jr, h_self)
        received = jam.scaled(h_jr).samples + antidote.scaled(h_self).samples
        assert np.max(np.abs(received)) < 1e-12

    def test_residual_gain_zero_with_truth(self):
        h_self, h_jr = 1.0 + 0.2j, 0.05 - 0.01j
        assert abs(residual_gain(h_jr, h_self, h_jr, h_self)) < 1e-12

    def test_residual_matches_relative_error(self):
        """First-order: residual/|H_jr| ~ |eps_jr - eps_self|."""
        h_self, h_jr = 1.0, 0.05
        eps = 0.01
        residual = residual_gain(h_jr, h_self, h_jr * (1 + eps), h_self)
        assert abs(residual) / abs(h_jr) == pytest.approx(eps, rel=1e-6)

    def test_zero_h_self_rejected(self, rng):
        with pytest.raises(ValueError):
            antidote_signal(_jam(rng, 16), 0.1, 0.0)
        with pytest.raises(ValueError):
            residual_gain(0.1, 1.0, 0.1, 0.0)

    def test_off_antenna_cancellation_impossible(self, rng):
        """Eq. 3-5: at a remote location where both antennas attenuate
        equally, the jam survives the antidote almost untouched, because
        |H_jam->rec / H_self| << 1."""
        h_self = 1.0
        h_jr = 0.045  # -27 dB, the paper's USRP2 figure
        jam = _jam(rng)
        antidote = antidote_signal(jam, h_jr, h_self)
        # Remote location: comparable attenuation from both antennas.
        h_jam_to_l = 0.001
        h_rec_to_l = 0.001 * np.exp(0.2j)
        at_l = jam.scaled(h_jam_to_l).samples + antidote.scaled(h_rec_to_l).samples
        jam_only = jam.scaled(h_jam_to_l).samples
        # The jamming power at l is reduced by well under 1 dB.
        reduction_db = linear_to_db(
            np.mean(np.abs(jam_only) ** 2) / np.mean(np.abs(at_l) ** 2)
        )
        assert abs(reduction_db) < 1.0


class TestWidebandAntidote:
    def test_per_subcarrier_cancellation(self, rng):
        """S5's OFDM extension: cancelling each subcarrier independently
        cancels the whole wideband jam."""
        n = 64
        jam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        h_jr = 0.05 * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        h_self = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        antidote = wideband_antidote(jam, h_jr, h_self)
        received = jam * h_jr + antidote * h_self
        assert np.max(np.abs(received)) < 1e-12

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            wideband_antidote(np.ones(4), np.ones(4), np.ones(3))
        with pytest.raises(ValueError):
            wideband_antidote(np.ones(5), np.ones(4), np.ones(4))
        with pytest.raises(ValueError):
            wideband_antidote(np.ones(4), np.ones(4), np.zeros(4))


class TestJammerCumReceiver:
    def test_front_end_ratio_matches_config(self, rng):
        channels = FrontEndChannels.draw(ShieldConfig(), rng)
        assert channels.ratio_db() == pytest.approx(-27.0, abs=0.5)

    def test_cancellation_near_32db_mean(self):
        """Fig. 7: 'the antidote signal reduces the jamming signal by
        32 dB on average'."""
        rng = np.random.default_rng(42)
        values = []
        for _ in range(150):
            fe = JammerCumReceiver(ShieldConfig(), rng=rng)
            fe.set_estimation_error()
            values.append(fe.cancellation_db(_jam(rng, 2048)))
        mean = float(np.mean(values))
        assert 29.0 < mean < 35.0

    def test_cancellation_cdf_support(self):
        """Fig. 7's CDF spans roughly 20-40 dB."""
        rng = np.random.default_rng(43)
        values = []
        for _ in range(200):
            fe = JammerCumReceiver(ShieldConfig(), rng=rng)
            fe.set_estimation_error()
            values.append(fe.cancellation_db(_jam(rng, 1024)))
        assert np.percentile(values, 5) > 18.0
        assert np.percentile(values, 95) < 50.0

    def test_better_estimates_cancel_more(self, rng):
        fe = JammerCumReceiver(ShieldConfig(), rng=rng)
        jam = _jam(rng, 2048)
        fe.set_estimation_error(relative_std=0.05)
        coarse = fe.cancellation_db(jam)
        fe.set_estimation_error(relative_std=0.001)
        fine = fe.cancellation_db(jam)
        assert fine > coarse + 15.0

    def test_receive_imd_through_own_jam(self, rng):
        """The headline full-duplex property: with the antidote on, the
        shield decodes the IMD cleanly under jamming that would bury it
        otherwise."""
        cfg = ShieldConfig()
        fe = JammerCumReceiver(cfg, rng=rng)
        fe.set_estimation_error()
        bits = rng.integers(0, 2, size=200)
        imd = FSKModulator().modulate(bits).scaled_to_power(1.0)
        # Jam received 20 dB above the IMD signal (at-antenna), i.e. the
        # transmitted jam is 20 dB + 27 dB over it.
        jam = _jam(rng, len(imd)).scaled_to_power(100.0 * 10 ** 2.7)
        rx = fe.received(jam, external=imd, noise_power=1e-6, use_digital=True)
        decoded = NoncoherentFSKDemodulator().demodulate(rx, n_bits=len(bits))
        assert np.mean(decoded != bits) < 0.01

    def test_without_antidote_jam_buries_signal(self, rng):
        cfg = ShieldConfig()
        fe = JammerCumReceiver(cfg, rng=rng)
        fe.set_estimation_error()
        bits = rng.integers(0, 2, size=400)
        imd = FSKModulator().modulate(bits).scaled_to_power(1.0)
        jam = _jam(rng, len(imd)).scaled_to_power(100.0 * 10 ** 2.7)
        rx = fe.received(jam, external=imd, use_antidote=False)
        decoded = NoncoherentFSKDemodulator().demodulate(rx, n_bits=len(bits))
        assert np.mean(decoded != bits) > 0.3

    def test_digital_stage_adds_configured_gain(self, rng):
        cfg = ShieldConfig(digital_cancellation_db=8.0)
        fe = JammerCumReceiver(cfg, rng=rng)
        fe.set_estimation_error()
        jam = _jam(rng, 2048)
        analog = fe.received(jam, use_digital=False).power()
        digital = fe.received(jam, use_digital=True).power()
        assert linear_to_db(analog / digital) == pytest.approx(8.0, abs=0.2)

    def test_negative_error_std_rejected(self, rng):
        fe = JammerCumReceiver(ShieldConfig(), rng=rng)
        with pytest.raises(ValueError):
            fe.set_estimation_error(relative_std=-0.1)
