"""Band-pass filtering, including the eavesdropper's anti-jamming filter.

S6(a) of the paper describes the attack that motivates *shaped* jamming:
against a jammer that spreads constant power across the whole 300 kHz
channel, "an adversary can eliminate most of the jamming signal by
applying two band-pass filters centered on f0 and f1".  This module
provides those filters so the attack is actually runnable
(:class:`repro.adversary.strategies.FilterBankStrategy`), which is what
the Fig. 5 benchmark measures.
"""

from __future__ import annotations

import numpy as np

from repro.phy.signal import Waveform

__all__ = ["complex_bandpass", "dual_tone_filter"]


def _complex_taps(
    center_hz: float, half_width_hz: float, sample_rate: float, n_taps: int
) -> np.ndarray:
    """FIR taps for a band-pass centred at ``center_hz`` (complex passband)."""
    from scipy import signal as sp_signal

    if half_width_hz <= 0 or half_width_hz >= sample_rate / 2:
        raise ValueError("half_width_hz must be inside (0, sample_rate / 2)")
    if n_taps < 3:
        raise ValueError("n_taps must be at least 3")
    low = sp_signal.firwin(n_taps, half_width_hz, fs=sample_rate)
    t = np.arange(n_taps) / sample_rate
    return low * np.exp(2j * np.pi * center_hz * t)


def complex_bandpass(
    waveform: Waveform,
    center_hz: float,
    half_width_hz: float,
    n_taps: int = 129,
) -> Waveform:
    """Band-pass a complex waveform around ``center_hz``.

    The filter is a frequency-shifted FIR low-pass; group delay is
    compensated so the output stays bit-aligned with the input.
    """
    from scipy import signal as sp_signal

    taps = _complex_taps(center_hz, half_width_hz, waveform.sample_rate, n_taps)
    filtered = sp_signal.fftconvolve(waveform.samples, taps, mode="full")
    delay = (n_taps - 1) // 2
    filtered = filtered[delay : delay + len(waveform.samples)]
    return Waveform(filtered, waveform.sample_rate)


def dual_tone_filter(
    waveform: Waveform,
    tone_a_hz: float,
    tone_b_hz: float,
    half_width_hz: float,
    n_taps: int = 129,
) -> Waveform:
    """The S6(a) attack filter: two band-passes centred on the FSK tones.

    The outputs of the two branches are summed; energy outside the two
    tone neighbourhoods (where an oblivious jammer wastes its power) is
    rejected.
    """
    branch_a = complex_bandpass(waveform, tone_a_hz, half_width_hz, n_taps)
    branch_b = complex_bandpass(waveform, tone_b_hz, half_width_hz, n_taps)
    return Waveform(branch_a.samples + branch_b.samples, waveform.sample_rate)
