"""Complex-baseband waveform container and power-unit helpers.

Every signal in the simulator is represented at complex baseband: a numpy
array of complex samples plus a sample rate.  A 300 kHz MICS channel is
simulated at 600 kHz (2x oversampling of the channel, 6 samples per bit at
the 100 kb/s FSK rate used by the modelled IMDs).

Power conventions
-----------------
Waveform power is the mean squared magnitude of the samples, a linear
quantity in arbitrary "simulation watts".  The link-budget layer
(:mod:`repro.channel.link_budget`) maps between dBm figures and waveform
scaling, so the PHY layer never needs to know absolute units; only power
*ratios* (SNR, SINR, cancellation depth) matter to the DSP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Waveform",
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
]


def db_to_linear(value_db: float) -> float:
    """Convert a power ratio in dB to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear power ratio to dB.

    Raises :class:`ValueError` for non-positive ratios, which have no dB
    representation; callers that may legitimately hit zero power (e.g.
    cancellation-depth measurements) should guard before converting.
    """
    if value <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {value!r} in dB")
    return 10.0 * math.log10(value)


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


@dataclass
class Waveform:
    """A complex-baseband signal: samples plus the rate they were taken at.

    Parameters
    ----------
    samples:
        Complex (or real, promoted on construction) sample array.
    sample_rate:
        Samples per second.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("Waveform samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length of the waveform in seconds."""
        return len(self.samples) / self.sample_rate

    def power(self) -> float:
        """Mean squared magnitude (linear power) of the samples."""
        if len(self.samples) == 0:
            return 0.0
        return float(np.mean(np.abs(self.samples) ** 2))

    def energy(self) -> float:
        """Sum of squared magnitudes divided by the sample rate."""
        return float(np.sum(np.abs(self.samples) ** 2)) / self.sample_rate

    def scaled_to_power(self, power: float) -> "Waveform":
        """Return a copy scaled so that :meth:`power` equals ``power``."""
        if power < 0:
            raise ValueError("power must be non-negative")
        current = self.power()
        if current == 0.0 or not math.isfinite(power / current):
            raise ValueError(
                "cannot scale a zero/underflowed waveform to a target power"
            )
        return Waveform(self.samples * math.sqrt(power / current), self.sample_rate)

    def scaled(self, gain: complex) -> "Waveform":
        """Return a copy multiplied by a (possibly complex) gain."""
        return Waveform(self.samples * gain, self.sample_rate)

    def padded_to(self, n_samples: int) -> "Waveform":
        """Return a copy zero-padded at the end to ``n_samples`` total."""
        if n_samples < len(self.samples):
            raise ValueError("cannot pad to fewer samples than present")
        pad = np.zeros(n_samples - len(self.samples), dtype=np.complex128)
        return Waveform(np.concatenate([self.samples, pad]), self.sample_rate)

    def with_noise(self, noise_power: float, rng: np.random.Generator) -> "Waveform":
        """Return a copy with complex AWGN of the given linear power added."""
        if noise_power < 0:
            raise ValueError("noise power must be non-negative")
        if noise_power == 0:
            return Waveform(self.samples.copy(), self.sample_rate)
        scale = math.sqrt(noise_power / 2.0)
        noise = scale * (
            rng.standard_normal(len(self.samples))
            + 1j * rng.standard_normal(len(self.samples))
        )
        return Waveform(self.samples + noise, self.sample_rate)

    def snr_db(self, noise_power: float) -> float:
        """Signal-to-noise ratio of this waveform against a noise power."""
        return linear_to_db(self.power() / noise_power)
