"""The multi-antenna eavesdropper of S3.2 -- and why proximity defeats it.

The threat model grants the passive adversary "MIMO systems and
directional antennas to try to separate the jamming signal from the
IMD's signal", and dismisses them with the classic spatial-degrees-of-
freedom argument (Jakes [26], Tse & Viswanath ch. 7): two transmitters
separated by much less than half a wavelength present *correlated*
channel vectors to any receive array, so no beamformer can null one
while keeping the other.

This module makes that argument executable:

* channel-vector correlation follows the Jakes/Clarke model,
  ``rho = J0(2 pi d / lambda)`` for source separation ``d`` -- near 1 for
  centimetre separations at 403 MHz (lambda ~ 74 cm), near 0 beyond
  half a wavelength;
* the eavesdropper runs the strongest practical blind attack: estimate
  the jamming subspace from the received sample covariance (the jam
  dominates, so its direction is learnable), project it out, and decode
  what is left with the optimal noncoherent detector.

The result reproduces the paper's guidance: worn a few centimetres from
the implant, the shield leaves a multi-antenna eavesdropper with coin
flips; were it worn half a wavelength away, projection would recover the
telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.fsk import FSKConfig, FSKModulator, NoncoherentFSKDemodulator
from repro.phy.signal import Waveform, db_to_linear

__all__ = [
    "jakes_correlation",
    "correlated_channel_pair",
    "MIMOEavesdropper",
    "MIMOAttackResult",
]

_MICS_WAVELENGTH_M = 0.743


def jakes_correlation(
    separation_m: float, wavelength_m: float = _MICS_WAVELENGTH_M
) -> float:
    """Channel correlation of two sources ``separation_m`` apart.

    ``J0(2 pi d / lambda)``: ~0.99 at 2 cm, ~0.77 at 12 cm, ~0 at and
    beyond half a wavelength (37 cm) -- the quantity the paper's
    "keep the shield close" guidance controls.
    """
    from scipy.special import j0

    if separation_m < 0:
        raise ValueError("separation cannot be negative")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return float(j0(2.0 * np.pi * separation_m / wavelength_m))


def correlated_channel_pair(
    n_antennas: int, correlation: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-power channel vectors with the given correlation.

    ``h_b = rho * h_a + sqrt(1 - rho^2) * g`` with independent Gaussian
    ``g`` -- the standard construction for spatially correlated channels.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if not -1.0 <= correlation <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")

    def _vector() -> np.ndarray:
        v = rng.standard_normal(n_antennas) + 1j * rng.standard_normal(n_antennas)
        return v / np.sqrt(2.0)

    h_a = _vector()
    g = _vector()
    h_b = correlation * h_a + np.sqrt(1.0 - correlation**2) * g
    return h_a, h_b


@dataclass(frozen=True)
class MIMOAttackResult:
    """Outcome of one multi-antenna eavesdropping attempt."""

    bit_error_rate: float
    channel_correlation: float
    jam_rejection_db: float


class MIMOEavesdropper:
    """N-antenna eavesdropper with blind jam-subspace projection."""

    def __init__(
        self,
        n_antennas: int = 2,
        config: FSKConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        if n_antennas < 2:
            raise ValueError("spatial nulling needs at least two antennas")
        self.n_antennas = n_antennas
        self.config = config or FSKConfig()
        self.rng = rng or np.random.default_rng(0)
        self._demodulator = NoncoherentFSKDemodulator(self.config)

    def attack(
        self,
        bits: np.ndarray,
        jam: Waveform,
        source_separation_m: float,
        sir_db: float = -20.0,
        snr_db: float = 40.0,
    ) -> MIMOAttackResult:
        """Receive the jammed IMD packet on the array and try to separate.

        ``sir_db`` is the per-antenna signal-to-jamming ratio (the
        shield's +20 dB operating point gives about -14 dB at any
        eavesdropper); ``snr_db`` the per-antenna signal-to-thermal-noise
        ratio (generous: a nearby, high-end receiver).
        """
        bits = np.asarray(bits, dtype=np.int64)
        signal = FSKModulator(self.config).modulate(bits)
        n = len(signal)
        if len(jam) < n:
            raise ValueError("jam waveform shorter than the packet")
        correlation = jakes_correlation(source_separation_m)
        h_signal, h_jam = correlated_channel_pair(
            self.n_antennas, correlation, self.rng
        )

        jam_amplitude = np.sqrt(db_to_linear(-sir_db))
        noise_amplitude = np.sqrt(db_to_linear(-snr_db))
        received = (
            np.outer(h_signal, signal.samples)
            + jam_amplitude * np.outer(h_jam, jam.samples[:n])
        )
        noise = noise_amplitude * (
            self.rng.standard_normal(received.shape)
            + 1j * self.rng.standard_normal(received.shape)
        ) / np.sqrt(2.0)
        received = received + noise

        # Blind jam-subspace estimate: the dominant eigenvector of the
        # sample covariance is the jam's direction (it dominates).
        covariance = received @ received.conj().T / n
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        jam_direction = eigenvectors[:, -1]

        # Project the array output onto the jam's orthogonal complement.
        projector = np.eye(self.n_antennas) - np.outer(
            jam_direction, jam_direction.conj()
        )
        separated = projector @ received
        # Combine toward the (projected) signal channel if anything of it
        # survives; without pilots the eavesdropper uses the dominant
        # remaining direction.
        residual_cov = separated @ separated.conj().T / n
        _, rem_vectors = np.linalg.eigh(residual_cov)
        combiner = rem_vectors[:, -1]
        stream = combiner.conj() @ separated

        decoded = self._demodulator.demodulate(
            Waveform(stream, self.config.sample_rate), n_bits=len(bits)
        )
        ber = float(np.mean(decoded != bits))

        jam_power_in = db_to_linear(-sir_db)
        jam_out = (
            abs(np.vdot(combiner, projector @ (jam_amplitude * h_jam))) ** 2
        )
        rejection_db = 10.0 * np.log10(jam_power_in / max(jam_out, 1e-12))
        return MIMOAttackResult(
            bit_error_rate=ber,
            channel_correlation=correlation,
            jam_rejection_db=float(rejection_db),
        )
