"""Analytic bit-error-rate models used by the event-level simulator.

The waveform-level experiments (Figs. 4-10) decode real samples; the
protocol-level experiments (Figs. 11-13, Tables 1-2) would need millions
of modulated packets, so they instead draw bit errors from the standard
closed-form error rate of noncoherent envelope detection of binary
orthogonal FSK, ``BER = 1/2 exp(-SNR / 2)``.

Jamming residue and cross transmissions are treated as additional Gaussian
interference (the shield's jamming signal *is* shaped Gaussian noise, S6a),
so SNR generalises to SINR.  The waveform- and event-level paths are
checked against each other in the integration tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.phy.signal import db_to_linear

__all__ = [
    "noncoherent_fsk_ber",
    "sample_bit_errors",
    "flip_bits",
]


def noncoherent_fsk_ber(sinr_db: float) -> float:
    """BER of optimal noncoherent binary orthogonal FSK at a given SINR.

    ``BER = 1/2 exp(-SINR/2)``; saturates at 1/2 as SINR -> -inf, which is
    exactly the paper's "no better than random guessing" regime for the
    jammed eavesdropper.
    """
    snr = db_to_linear(sinr_db)
    return 0.5 * math.exp(-snr / 2.0)


def sample_bit_errors(
    ber: float, n_bits: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw a boolean error mask of length ``n_bits`` with i.i.d. rate ``ber``."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError("ber must be in [0, 1]")
    if n_bits < 0:
        raise ValueError("n_bits must be non-negative")
    if ber == 0.0:
        return np.zeros(n_bits, dtype=bool)
    return rng.random(n_bits) < ber


def flip_bits(
    bits: np.ndarray, ber: float, rng: np.random.Generator
) -> np.ndarray:
    """Return a copy of ``bits`` with each bit independently flipped at ``ber``."""
    bits = np.asarray(bits, dtype=np.int64)
    mask = sample_bit_errors(ber, len(bits), rng)
    return np.where(mask, 1 - bits, bits)
