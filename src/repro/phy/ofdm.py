"""OFDM modulator for the paper's wideband extension.

S5 notes that the narrowband antidote derivation "can be extended to work
with wideband channels which exhibit multipath effects. Specifically, such
channels use OFDM, which divides the bandwidth into orthogonal subcarriers
and treats each of the subcarriers as if it was an independent narrowband
channel."  This module provides the cyclic-prefix OFDM modulator the
wideband antidote (:func:`repro.core.antidote.wideband_antidote`) is
demonstrated with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.signal import Waveform

__all__ = ["OFDMConfig", "OFDMModulator"]


@dataclass(frozen=True)
class OFDMConfig:
    """OFDM numerology.

    Defaults: 64 subcarriers over 3 MHz (the full MICS band) with a 16-
    sample cyclic prefix -- enough to absorb the short multipath spreads
    the indoor testbed would produce.
    """

    n_subcarriers: int = 64
    cyclic_prefix: int = 16
    sample_rate: float = 3e6

    def __post_init__(self) -> None:
        if self.n_subcarriers < 2:
            raise ValueError("need at least two subcarriers")
        if not 0 <= self.cyclic_prefix < self.n_subcarriers:
            raise ValueError("cyclic prefix must be in [0, n_subcarriers)")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


class OFDMModulator:
    """Map QPSK symbols onto OFDM subcarriers."""

    def __init__(self, config: OFDMConfig | None = None):
        self.config = config or OFDMConfig()

    def modulate(self, symbols: np.ndarray) -> Waveform:
        """``symbols`` has shape (n_ofdm_symbols, n_subcarriers)."""
        symbols = np.asarray(symbols, dtype=np.complex128)
        if symbols.ndim == 1:
            symbols = symbols[np.newaxis, :]
        if symbols.shape[1] != self.config.n_subcarriers:
            raise ValueError(
                f"expected {self.config.n_subcarriers} subcarriers, "
                f"got {symbols.shape[1]}"
            )
        time_domain = np.fft.ifft(symbols, axis=1) * np.sqrt(self.config.n_subcarriers)
        cp = self.config.cyclic_prefix
        if cp:
            time_domain = np.concatenate([time_domain[:, -cp:], time_domain], axis=1)
        return Waveform(time_domain.reshape(-1), self.config.sample_rate)

    @staticmethod
    def random_qpsk(
        n_symbols: int, n_subcarriers: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Random QPSK grid used for probes and payloads in tests."""
        constellation = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        idx = rng.integers(0, 4, size=(n_symbols, n_subcarriers))
        return constellation[idx]
