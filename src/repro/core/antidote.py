"""Antidote computation and channel estimation (S5, eq. 1-5).

The receive antenna hears ``y(t) = H_jam->rec j(t) + H_self x(t)``
(eq. 1); transmitting the antidote ``x(t) = -(H_jam->rec / H_self) j(t)``
(eq. 2) cancels the jam at that antenna and -- because
``|H_jam->l / H_rec->l| ~ 1`` at any other location ``l`` while
``|H_jam->rec / H_self| << 1`` (eq. 5) -- *only* at that antenna.

The cancellation is limited by how well the two channels are known.  The
shield estimates them from probes "immediately before it transmits to the
IMD or jams the IMD's transmission" and otherwise every 200 ms; a probe
observed at finite SNR yields a least-squares estimate with complex
Gaussian error (drawn by
:meth:`~repro.core.full_duplex.JammerCumReceiver.set_estimation_error`),
which is what produces the ~32 dB cancellation distribution of Fig. 7.
"""

from __future__ import annotations

import numpy as np

from repro.phy.signal import Waveform

__all__ = [
    "antidote_signal",
    "residual_gain",
    "wideband_antidote",
]


def antidote_signal(
    jam: Waveform, h_jam_to_rec: complex, h_self: complex
) -> Waveform:
    """Eq. 2: ``x(t) = -(H_jam->rec / H_self) j(t)``.

    Callers pass channel *estimates*; the residual after cancellation is
    exactly the estimation error, which :func:`residual_gain` quantifies.
    """
    if h_self == 0:
        raise ValueError("H_self cannot be zero (the wire exists)")
    return jam.scaled(-h_jam_to_rec / h_self)


def residual_gain(
    h_jam_to_rec: complex,
    h_self: complex,
    h_jam_to_rec_estimate: complex,
    h_self_estimate: complex,
) -> complex:
    """Effective jam gain at the receive antenna after the antidote.

    With perfect estimates this is exactly zero; with errors it is
    ``H_jr - H_self * (H_jr_hat / H_self_hat)``, whose magnitude relative
    to ``|H_jr|`` sets the cancellation depth in dB.
    """
    if h_self_estimate == 0:
        raise ValueError("estimated H_self cannot be zero")
    return h_jam_to_rec - h_self * (h_jam_to_rec_estimate / h_self_estimate)


def wideband_antidote(
    jam_subcarriers: np.ndarray,
    h_jam_to_rec: np.ndarray,
    h_self: np.ndarray,
) -> np.ndarray:
    """Per-subcarrier antidote for wideband (OFDM) channels.

    S5: "such channels use OFDM ... and treat each of the subcarriers as
    if it was an independent narrowband channel. Our model naturally fits
    in this context."  Given the jam's frequency-domain symbols and the
    per-subcarrier channels, returns the antidote's frequency-domain
    symbols.
    """
    jam_subcarriers = np.asarray(jam_subcarriers, dtype=np.complex128)
    h_jam_to_rec = np.asarray(h_jam_to_rec, dtype=np.complex128)
    h_self = np.asarray(h_self, dtype=np.complex128)
    if h_jam_to_rec.shape != h_self.shape:
        raise ValueError("channel arrays must share a shape")
    if jam_subcarriers.shape[-1] != h_self.shape[-1]:
        raise ValueError("jam grid and channels disagree on subcarrier count")
    if np.any(h_self == 0):
        raise ValueError("H_self cannot be zero on any subcarrier")
    return -jam_subcarriers * (h_jam_to_rec / h_self)
