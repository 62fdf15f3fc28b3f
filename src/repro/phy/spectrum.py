"""Spectral analysis: power spectral density and frequency profiles.

The shield shapes its jamming signal to match the frequency profile of the
IMD's FSK transmission (S6(a), Figs. 4-5).  A :class:`FrequencyProfile` is
the object both sides of that story share: it is *estimated* from a
captured IMD waveform and then *consumed* by the jamming-signal generator
(:mod:`repro.core.jamming`), which assigns a Gaussian variance to each
frequency bin proportional to the profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.signal import Waveform

__all__ = [
    "FrequencyProfile",
    "power_spectral_density",
    "estimate_frequency_profile",
    "band_power_fraction",
]


@dataclass(frozen=True)
class FrequencyProfile:
    """Relative power per frequency bin across a channel.

    ``frequencies_hz`` are baseband bin centres (negative to positive,
    monotonic), ``relative_power`` are non-negative weights that sum to 1.
    """

    frequencies_hz: np.ndarray
    relative_power: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies_hz, dtype=np.float64)
        power = np.asarray(self.relative_power, dtype=np.float64)
        if freqs.shape != power.shape or freqs.ndim != 1:
            raise ValueError("frequencies and powers must be 1-D and equal length")
        if np.any(power < 0):
            raise ValueError("relative power must be non-negative")
        total = power.sum()
        if total <= 0:
            raise ValueError("profile must contain some power")
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "relative_power", power / total)

    @property
    def n_bins(self) -> int:
        return len(self.frequencies_hz)

    def peak_frequencies(self, count: int = 2) -> np.ndarray:
        """The ``count`` bin centres holding the most power, ascending.

        For the modelled IMD FSK signal these land at roughly -50 kHz and
        +50 kHz (Fig. 4).
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        order = np.argsort(self.relative_power)[::-1][:count]
        return np.sort(self.frequencies_hz[order])

    def power_in_band(self, low_hz: float, high_hz: float) -> float:
        """Fraction of total power between ``low_hz`` and ``high_hz``."""
        if high_hz < low_hz:
            raise ValueError("band must satisfy low <= high")
        mask = (self.frequencies_hz >= low_hz) & (self.frequencies_hz <= high_hz)
        return float(self.relative_power[mask].sum())

    @staticmethod
    def flat(n_bins: int, bandwidth_hz: float) -> "FrequencyProfile":
        """A constant profile across ``bandwidth_hz`` (the oblivious jammer
        of Fig. 5)."""
        if n_bins < 1:
            raise ValueError("n_bins must be at least 1")
        freqs = np.fft.fftshift(np.fft.fftfreq(n_bins, d=1.0 / bandwidth_hz))
        return FrequencyProfile(freqs, np.ones(n_bins))

    @staticmethod
    def two_tone_fsk(
        deviation_hz: float,
        bit_rate: float,
        n_bins: int,
        bandwidth_hz: float,
    ) -> "FrequencyProfile":
        """Analytic FSK profile: two main lobes of width ~bit_rate at
        +/-deviation.

        Used when a live capture is not available; each lobe is modelled
        as a squared-sinc main lobe around its tone, matching the measured
        shape in Fig. 4.
        """
        freqs = np.fft.fftshift(np.fft.fftfreq(n_bins, d=1.0 / bandwidth_hz))
        power = np.zeros(n_bins)
        for tone in (-deviation_hz, deviation_hz):
            x = (freqs - tone) / bit_rate
            power += np.sinc(x) ** 2
        return FrequencyProfile(freqs, power)


def power_spectral_density(
    waveform: Waveform, n_fft: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD of a complex baseband waveform.

    Returns ``(frequencies_hz, psd)`` with frequencies fft-shifted to run
    from negative to positive.
    """
    from scipy import signal as sp_signal

    if len(waveform) < n_fft:
        n_fft = max(8, len(waveform))
    freqs, psd = sp_signal.welch(
        waveform.samples,
        fs=waveform.sample_rate,
        nperseg=n_fft,
        return_onesided=False,
        detrend=False,
    )
    order = np.argsort(freqs)
    return freqs[order], psd[order]


def estimate_frequency_profile(
    waveform: Waveform, n_bins: int = 64
) -> FrequencyProfile:
    """Estimate a :class:`FrequencyProfile` from a captured waveform.

    This is what the shield does when calibrating against its IMD: capture
    telemetry, measure where the energy sits, and shape the jammer to
    match (S6(a)).
    """
    freqs, psd = power_spectral_density(waveform, n_fft=n_bins)
    psd = np.maximum(psd, 0.0)
    return FrequencyProfile(freqs, psd)


def band_power_fraction(
    waveform: Waveform, low_hz: float, high_hz: float, n_fft: int = 256
) -> float:
    """Fraction of a waveform's power inside ``[low_hz, high_hz]``."""
    freqs, psd = power_spectral_density(waveform, n_fft=n_fft)
    total = psd.sum()
    if total <= 0:
        return 0.0
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    return float(psd[mask].sum() / total)
