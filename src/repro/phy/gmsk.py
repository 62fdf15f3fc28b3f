"""GMSK modem modelling the meteorological cross-traffic.

The coexistence experiment (S11, Table 2) transmits cross-traffic "modeled
after the transmissions of meteorological devices, in particular a Vaisala
digital radiosonde RS92-AGP that uses GMSK modulation".  This module
provides that waveform: Gaussian-filtered minimum-shift keying, plus a
simple differential-phase demodulator so the cross-traffic receiver side
is also exercisable in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.signal import Waveform

__all__ = ["GMSKConfig", "GMSKModulator", "GMSKDemodulator"]


@dataclass(frozen=True)
class GMSKConfig:
    """GMSK parameters.

    Defaults approximate a radiosonde telemetry link scaled into one
    300 kHz MICS channel: 50 kb/s, BT = 0.5, simulated at 600 kHz.
    """

    bit_rate: float = 50e3
    bt_product: float = 0.5
    sample_rate: float = 600e3
    pulse_span_bits: int = 3

    def __post_init__(self) -> None:
        if self.bit_rate <= 0 or self.sample_rate <= 0:
            raise ValueError("rates must be positive")
        if not 0.1 <= self.bt_product <= 1.0:
            raise ValueError("bt_product outside the sensible range [0.1, 1.0]")
        if self.sample_rate % self.bit_rate != 0:
            raise ValueError("sample_rate must be an integer multiple of bit_rate")
        if self.pulse_span_bits < 1:
            raise ValueError("pulse_span_bits must be at least 1")

    @property
    def samples_per_bit(self) -> int:
        return int(self.sample_rate / self.bit_rate)


def _gaussian_pulse(config: GMSKConfig) -> np.ndarray:
    """Unit-area Gaussian frequency pulse spanning ``pulse_span_bits``."""
    spb = config.samples_per_bit
    span = config.pulse_span_bits * spb
    t = (np.arange(span) - span / 2.0 + 0.5) / config.sample_rate
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * config.bt_product * config.bit_rate)
    pulse = np.exp(-(t**2) / (2.0 * sigma**2))
    return pulse / pulse.sum()


class GMSKModulator:
    """Gaussian minimum-shift-keying modulator."""

    def __init__(self, config: GMSKConfig | None = None):
        self.config = config or GMSKConfig()
        self._pulse = _gaussian_pulse(self.config)

    def modulate(self, bits: np.ndarray | list[int], amplitude: float = 1.0) -> Waveform:
        """Map bits to a GMSK waveform.

        NRZ symbols are shaped by the Gaussian pulse and integrated into
        phase with modulation index 1/2 (the "minimum shift" in MSK).
        """
        from scipy import signal as sp_signal

        bits = np.asarray(bits, dtype=np.int64)
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must contain only 0s and 1s")
        cfg = self.config
        spb = cfg.samples_per_bit
        nrz = np.repeat(2.0 * bits - 1.0, spb)
        shaped = sp_signal.fftconvolve(nrz, self._pulse, mode="full")
        # Compensate the pulse's group delay so bit centres stay aligned.
        delay = (len(self._pulse) - 1) // 2
        shaped = shaped[delay : delay + len(nrz)]
        # Modulation index h = 0.5: peak frequency deviation bit_rate / 4.
        freq = 0.5 * cfg.bit_rate / 2.0 * shaped
        phase = 2.0 * np.pi * np.cumsum(freq) / cfg.sample_rate
        return Waveform(amplitude * np.exp(1j * phase), cfg.sample_rate)


class GMSKDemodulator:
    """Differential-phase GMSK detector.

    Computes the per-sample phase increment, integrates it over each bit,
    and decides on the sign.  Not an optimal Viterbi receiver, but good
    enough for the coexistence experiments where cross-traffic only needs
    to be *classifiable*, not decoded at capacity.
    """

    def __init__(self, config: GMSKConfig | None = None):
        self.config = config or GMSKConfig()

    def demodulate(self, waveform: Waveform, n_bits: int | None = None) -> np.ndarray:
        cfg = self.config
        if waveform.sample_rate != cfg.sample_rate:
            raise ValueError("waveform sample rate does not match demodulator config")
        spb = cfg.samples_per_bit
        available = len(waveform) // spb
        if n_bits is None:
            n_bits = available
        if n_bits > available:
            raise ValueError(
                f"waveform holds only {available} bits, {n_bits} requested"
            )
        samples = waveform.samples[: n_bits * spb]
        # Phase increments; prepend zero so lengths line up.
        increments = np.angle(samples[1:] * np.conj(samples[:-1]))
        increments = np.concatenate([[0.0], increments])
        per_bit = increments.reshape(n_bits, spb).sum(axis=1)
        # The Gaussian pulse spreads each bit across neighbours; delay by
        # half the pulse span to centre the decision window.
        return (per_bit > 0).astype(np.int64)

    def bit_error_rate(
        self, waveform: Waveform, reference_bits: np.ndarray | list[int]
    ) -> float:
        reference_bits = np.asarray(reference_bits, dtype=np.int64)
        decoded = self.demodulate(waveform, n_bits=len(reference_bits))
        return float(np.mean(decoded != reference_bits))
