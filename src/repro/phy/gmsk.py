"""GMSK modem modelling the meteorological cross-traffic.

The coexistence experiment (S11, Table 2) transmits cross-traffic "modeled
after the transmissions of meteorological devices, in particular a Vaisala
digital radiosonde RS92-AGP that uses GMSK modulation".  This module
provides that waveform: Gaussian-filtered minimum-shift keying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.signal import Waveform

__all__ = ["GMSKConfig", "GMSKModulator"]


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
