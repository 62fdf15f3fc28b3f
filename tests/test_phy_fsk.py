"""Tests for the binary FSK modem (the IMD's physical layer)."""

import numpy as np
import pytest

from repro.phy.ber import noncoherent_fsk_ber
from repro.phy.fsk import FSKConfig, FSKModulator, NoncoherentFSKDemodulator
from repro.phy.signal import Waveform


class TestFSKConfig:
    def test_defaults_match_paper(self):
        cfg = FSKConfig()
        assert cfg.deviation_hz == 50e3  # Fig. 4: tones at +/-50 kHz
        assert cfg.samples_per_bit == 6
        assert cfg.modulation_index == pytest.approx(1.0)

    def test_tone_frequencies(self):
        f0, f1 = FSKConfig().tone_frequencies()
        assert f0 == -50e3 and f1 == 50e3

    def test_rejects_non_integer_oversampling(self):
        with pytest.raises(ValueError):
            FSKConfig(bit_rate=100e3, sample_rate=250e3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FSKConfig(bit_rate=-1)

    def test_n_samples(self):
        assert FSKConfig().n_samples(10) == 60


class TestModulator:
    def test_output_length(self):
        w = FSKModulator().modulate([0, 1, 0, 1])
        assert len(w) == 4 * 6

    def test_constant_envelope(self):
        w = FSKModulator().modulate(np.tile([0, 1], 50))
        assert np.allclose(np.abs(w.samples), 1.0)

    def test_amplitude_parameter(self):
        w = FSKModulator().modulate([1, 0], amplitude=0.5)
        assert np.allclose(np.abs(w.samples), 0.5)

    def test_phase_continuity(self):
        """Continuous-phase FSK: no phase jumps at bit boundaries."""
        w = FSKModulator().modulate([0, 1, 1, 0, 1])
        steps = np.abs(np.diff(np.angle(w.samples * np.conj(np.roll(w.samples, 1)))))
        # The per-sample phase step is at most 2*pi*50e3/600e3 ~ 0.52 rad.
        increments = np.angle(w.samples[1:] * np.conj(w.samples[:-1]))
        assert np.max(np.abs(increments)) < 0.6

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            FSKModulator().modulate([0, 2])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            FSKModulator().modulate(np.zeros((2, 2), dtype=int))

    def test_zero_bit_is_negative_tone(self):
        cfg = FSKConfig()
        w = FSKModulator(cfg).modulate([0] * 32)
        spec = np.fft.fftshift(np.fft.fft(w.samples))
        freqs = np.fft.fftshift(np.fft.fftfreq(len(w), 1 / cfg.sample_rate))
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(-50e3, abs=5e3)

    def test_one_bit_is_positive_tone(self):
        cfg = FSKConfig()
        w = FSKModulator(cfg).modulate([1] * 32)
        spec = np.fft.fftshift(np.fft.fft(w.samples))
        freqs = np.fft.fftshift(np.fft.fftfreq(len(w), 1 / cfg.sample_rate))
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(50e3, abs=5e3)


class TestNoncoherentDemodulator:
    def test_clean_round_trip(self, rng):
        bits = rng.integers(0, 2, size=500)
        w = FSKModulator().modulate(bits)
        decoded = NoncoherentFSKDemodulator().demodulate(w)
        assert np.array_equal(decoded, bits)

    def test_round_trip_with_random_phase(self, rng):
        """Noncoherent detection must not care about carrier phase."""
        bits = rng.integers(0, 2, size=200)
        w = FSKModulator().modulate(bits).scaled(np.exp(1j * 1.234))
        decoded = NoncoherentFSKDemodulator().demodulate(w)
        assert np.array_equal(decoded, bits)

    def test_high_snr_no_errors(self, rng):
        bits = rng.integers(0, 2, size=400)
        w = FSKModulator().modulate(bits).with_noise(1e-4, rng)
        assert NoncoherentFSKDemodulator().bit_error_rate(w, bits) == 0.0

    def test_ber_matches_theory_at_moderate_snr(self, rng):
        """Measured BER should track 0.5 exp(-SNR/2) within sampling error."""
        snr_db = 10.0
        bits = rng.integers(0, 2, size=30_000)
        w = FSKModulator().modulate(bits)
        # Per-bit correlation SNR improves by the samples-per-bit factor;
        # scale the sample-level noise so the detector sees snr_db.
        spb = FSKConfig().samples_per_bit
        noise_power = spb / (10 ** (snr_db / 10.0))
        noisy = w.with_noise(noise_power, rng)
        measured = NoncoherentFSKDemodulator().bit_error_rate(noisy, bits)
        expected = noncoherent_fsk_ber(snr_db)
        assert measured == pytest.approx(expected, rel=0.5, abs=2e-3)

    def test_jammed_at_minus_20db_sir_is_coinflip(self, rng):
        """The paper's security claim: strong noise jamming -> BER ~ 0.5."""
        bits = rng.integers(0, 2, size=5_000)
        w = FSKModulator().modulate(bits)
        jammed = w.with_noise(100.0 * 6, rng)  # SIR ~ -20 dB per bit
        ber = NoncoherentFSKDemodulator().bit_error_rate(jammed, bits)
        assert 0.4 < ber < 0.6

    def test_tolerates_small_frequency_offset(self, rng):
        """A few kHz of carrier offset barely dents the 100 kHz tone
        spacing, so the envelope detector needs no offset correction."""
        bits = rng.integers(0, 2, size=400)
        w = FSKModulator().modulate(bits)
        t = np.arange(len(w)) / w.sample_rate
        drifted = Waveform(w.samples * np.exp(2j * np.pi * 8e3 * t), w.sample_rate)
        noisy = drifted.with_noise(1e-3, rng)
        assert NoncoherentFSKDemodulator().bit_error_rate(noisy, bits) < 0.01

    def test_envelopes_shape(self, rng):
        bits = rng.integers(0, 2, size=32)
        w = FSKModulator().modulate(bits)
        m0, m1 = NoncoherentFSKDemodulator().envelopes(w)
        assert m0.shape == (32,) and m1.shape == (32,)

    def test_demodulate_rejects_overask(self):
        w = FSKModulator().modulate([0, 1])
        with pytest.raises(ValueError):
            NoncoherentFSKDemodulator().demodulate(w, n_bits=3)

    def test_demodulate_rejects_rate_mismatch(self):
        w = Waveform(np.ones(60), sample_rate=1e6)
        with pytest.raises(ValueError):
            NoncoherentFSKDemodulator().demodulate(w)


class TestBatchedModulation:
    def test_rows_match_single_modulation(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(5, 32))
        mod = FSKModulator()
        batch = mod.modulate_batch(bits, amplitude=0.7)
        for row, row_bits in zip(batch, bits):
            single = mod.modulate(row_bits, amplitude=0.7)
            assert np.allclose(row, single.samples)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            FSKModulator().modulate_batch(np.zeros(8, dtype=int))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            FSKModulator().modulate_batch(np.full((2, 4), 2))


class TestBatchedDemodulation:
    def test_rows_match_single_demodulation(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=(4, 64))
        cfg = FSKConfig()
        mod = FSKModulator(cfg)
        demod = NoncoherentFSKDemodulator(cfg)
        noisy = mod.modulate_batch(bits) + 0.3 * (
            rng.standard_normal((4, 64 * 6)) + 1j * rng.standard_normal((4, 64 * 6))
        )
        batch = demod.demodulate_batch(noisy)
        for row, decoded in zip(noisy, batch):
            single = demod.demodulate(Waveform(row, cfg.sample_rate))
            assert np.array_equal(decoded, single)

    def test_recovers_clean_batch(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(3, 40))
        out = NoncoherentFSKDemodulator().demodulate_batch(
            FSKModulator().modulate_batch(bits)
        )
        assert np.array_equal(out, bits)

    def test_n_bits_limit_enforced(self):
        batch = FSKModulator().modulate_batch(np.zeros((2, 4), dtype=int))
        with pytest.raises(ValueError):
            NoncoherentFSKDemodulator().demodulate_batch(batch, n_bits=5)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            NoncoherentFSKDemodulator().envelopes_batch(np.zeros(12))


class TestTemplateCache:
    def test_templates_shared_across_instances(self):
        a = NoncoherentFSKDemodulator()
        b = NoncoherentFSKDemodulator()
        assert a._template0 is b._template0
        assert a._correlators is b._correlators

    def test_templates_read_only(self):
        demod = NoncoherentFSKDemodulator()
        with pytest.raises(ValueError):
            demod._template0[0] = 0.0
