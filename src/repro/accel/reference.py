"""Numpy reference kernels: the pinned semantics of every hot path.

Each function here computes exactly what its call site computed before
the accel layer existed, behind a registry name.  The *semantics* are
pinned, not the code: four kernels are the call sites' numpy extracted
verbatim, while ``beat_refractory_suppress`` has since been rewritten
from an all-pairs scan to a sorted-neighbour search that keeps the same
indices in the same order.  Either way the numpy backend is
*bit-identical* to the pre-accel repo: campaign cache hashes, golden
Expectation verdicts, and every parity test are unaffected by routing
through the registry.

The numba overlay (:mod:`repro.accel.numba_backend`) reimplements these
contracts as compiled loops.  Where floating-point reassociation or libm
differences make bit-identity infeasible, the overlay is tolerance-pinned
against these references by the hypothesis parity suite
(``tests/test_accel_parity.py``).

Kernel contracts
----------------

``jam_tone_colour(factor, draws)``
    ``(n_bits, 2, 2)`` complex colouring factors applied per bin to
    ``(count, n_bits, 2)`` i.i.d. complex draws; returns the coloured
    ``(count, n_bits, 2)`` spectrum (the IFFT stays at the call site --
    FFTs remain numpy's job under every backend).

``fsk_coherent_bits(chunks, correlators, h)``
    Coherent FSK decision for integer modulation index ``h``:
    ``(n_bits, spb)`` complex bit chunks against a ``(spb, 2)``
    conjugated tone matrix; returns hard bits ``(n_bits,)`` int64.

``ecg_wave_accumulate(flat, record_index, centers, amps, sigma, fs, half, n)``
    One Gaussian wave component scattered into a flattened
    ``(n_records * n,)`` waveform buffer, in place, over a
    ``[-half, +half]`` sample window per beat.

``hr_unbiased_autocorr(x, lag_hi)``
    Unbiased autocorrelation of a demeaned record for lags
    ``0..lag_hi`` inclusive.

``beat_refractory_suppress(candidates_desc, refractory)``
    Greedy refractory suppression over peak candidates already sorted
    strongest-first; returns the kept sample indices in acceptance
    order (the caller sorts).  Pure integer/float comparisons, so every
    backend is exactly deterministic here.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.accel.registry import register

__all__ = [
    "jam_tone_colour",
    "fsk_coherent_bits",
    "ecg_wave_accumulate",
    "hr_unbiased_autocorr",
    "beat_refractory_suppress",
]


@register("jam_tone_colour", "numpy")
def jam_tone_colour(factor: np.ndarray, draws: np.ndarray) -> np.ndarray:
    return (factor[None] @ draws[..., None])[..., 0]


@register("fsk_coherent_bits", "numpy")
def fsk_coherent_bits(
    chunks: np.ndarray, correlators: np.ndarray, h: int
) -> np.ndarray:
    n_bits = chunks.shape[0]
    correlations = chunks @ correlators
    # Phase at the start of bit i is i*pi*h (mod 2*pi): the conjugated
    # reference contributes exp(-1j * pi * h * i) to each correlation.
    rotation = np.exp(-1j * np.pi * h * np.arange(n_bits))
    metrics = np.real(correlations * rotation[:, None])
    return (metrics[:, 1] > metrics[:, 0]).astype(np.int64)


@register("ecg_wave_accumulate", "numpy")
def ecg_wave_accumulate(
    flat: np.ndarray,
    record_index: np.ndarray,
    centers: np.ndarray,
    amps: np.ndarray,
    sigma: float,
    fs: float,
    half: int,
    n: int,
) -> None:
    offsets = np.arange(-half, half + 1)
    idx = np.round(centers * fs).astype(np.int64)[:, None] + offsets
    t_rel = idx / fs - centers[:, None]
    values = amps[:, None] * np.exp(-0.5 * (t_rel / sigma) ** 2)
    valid = (idx >= 0) & (idx < n)
    flat_idx = record_index[:, None] * n + np.clip(idx, 0, n - 1)
    np.add.at(flat, flat_idx[valid], values[valid])


@register("hr_unbiased_autocorr", "numpy")
def hr_unbiased_autocorr(x: np.ndarray, lag_hi: int) -> np.ndarray:
    n = len(x)
    ac = np.correlate(x, x, mode="full")[n - 1:]
    # Unbiased: each lag's sum has n-lag terms.
    ac = ac / (n - np.arange(n))
    return ac[: lag_hi + 1]


@register("beat_refractory_suppress", "numpy")
def beat_refractory_suppress(
    candidates_desc: np.ndarray, refractory: float
) -> np.ndarray:
    # A candidate is kept iff it is at least ``refractory`` from every
    # kept index; with the kept indices sorted, only the nearest one on
    # each side can be closer, so each candidate costs one bisection.
    # The comparisons are written ``>=`` like the all-pairs definition,
    # so a NaN window rejects exactly what that definition rejects.
    kept: list[int] = []
    ordered: list[int] = []
    for idx in candidates_desc.tolist():
        pos = bisect_left(ordered, idx)
        if (pos == 0 or idx - ordered[pos - 1] >= refractory) and (
            pos == len(ordered) or ordered[pos] - idx >= refractory
        ):
            ordered.insert(pos, idx)
            kept.append(idx)
    return np.array(kept, dtype=np.int64)
