"""Shaped jamming-signal generation (S6(a), Fig. 5).

A jammer that spreads constant power across the 300 kHz channel wastes
most of it: the FSK receiver only listens near the two tones, and an
adversary can band-pass away everything else.  The shield therefore
shapes its jam: "taking multiple random white Gaussian noise signals and
assigning each of them to a particular frequency bin ... sets the
variance of the white Gaussian noise in each frequency bin to match the
power profile resulting from the IMD's FSK modulation ... then takes the
IFFT of all the Gaussian signals to generate the time-domain jamming
signal."

That is literally what :meth:`ShapedJammer.generate` does.  The jam is
random (never repeats -- the one-time-pad argument of S6), unmodulated
and uncoded (so the eavesdropper cannot jointly decode it, S3.2), and its
per-bin variance follows the target :class:`~repro.phy.spectrum.
FrequencyProfile`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.accel import get_kernel
from repro.phy.fsk import FSKConfig
from repro.phy.spectrum import FrequencyProfile
from repro.phy.signal import Waveform

__all__ = ["ShapedJammer"]


class ShapedJammer:
    """Generates random jamming waveforms with a target spectral shape."""

    def __init__(
        self,
        profile: FrequencyProfile,
        sample_rate: float,
        rng: np.random.Generator | None = None,
    ):
        if sample_rate <= 0:
            raise ValueError("sample rate must be positive")
        self.profile = profile
        self.sample_rate = sample_rate
        self.rng = rng or np.random.default_rng(0)
        # The profile-to-FFT-grid interpolation depends only on the jam
        # length; sweeps generate thousands of equal-length jams, so the
        # per-length spectral scale is cached.
        self._scale_cache: dict[int, np.ndarray] = {}

    def generate(self, n_samples: int, power: float = 1.0) -> Waveform:
        """A fresh random jamming waveform of ``n_samples`` at ``power``.

        Per-bin complex Gaussians with variance proportional to the
        profile, synthesised by IFFT, then scaled to the power budget
        ("the shield scales the amplitude of the jamming signal to match
        its hardware's power budget").
        """
        scale = self._spectral_scale(n_samples, power)
        spectrum = scale * (
            self.rng.standard_normal(n_samples)
            + 1j * self.rng.standard_normal(n_samples)
        )
        samples = np.fft.ifft(spectrum) * np.sqrt(n_samples)
        return Waveform(samples, self.sample_rate).scaled_to_power(power)

    def generate_batch(
        self, count: int, n_samples: int, power: float = 1.0
    ) -> np.ndarray:
        """``count`` independent jams as a ``(count, n_samples)`` matrix.

        Row ``i`` is distributed exactly like one :meth:`generate` call:
        fresh per-bin Gaussians, one IFFT (batched along the last axis),
        each row scaled to ``power``.  This is the jamming path of the
        batched sweeps.
        """
        if count <= 0:
            raise ValueError("need at least one jam in a batch")
        scale = self._spectral_scale(n_samples, power)
        spectrum = scale * (
            self.rng.standard_normal((count, n_samples))
            + 1j * self.rng.standard_normal((count, n_samples))
        )
        samples = np.fft.ifft(spectrum, axis=1) * np.sqrt(n_samples)
        row_power = np.mean(np.abs(samples) ** 2, axis=1)
        if np.any(row_power <= 0):
            raise ValueError("degenerate zero-power jam in batch")
        samples *= np.sqrt(power / row_power)[:, None]
        return samples

    def tone_correlation_batch(
        self,
        count: int,
        fsk: FSKConfig,
        n_bits: int,
        power: float = 1.0,
    ) -> np.ndarray:
        """Per-bit FSK tone correlations of ``count`` fresh jams, drawn
        directly -- no time-domain samples.

        The noncoherent envelope detector only ever consumes
        ``corr[b, tone] = sum_k jam[b*spb + k] * conj(template_tone[k])``,
        a linear functional of the Gaussian jam.  Those correlations are
        themselves jointly Gaussian with a covariance fixed by the jam's
        spectral profile, so they can be synthesised exactly: fold the
        per-bin variances onto the bit-rate grid, colour an i.i.d. draw
        with the per-bin 2x2 matrix square root, and IDFT at bit length
        (``n_bits`` points instead of ``n_bits * samples_per_bit``).

        Returns ``(count, n_bits, 2)`` with the last axis ordered
        ``(f0, f1)``, distributed exactly like correlating
        :meth:`generate`'s output at mean power ``power`` (the batched
        sweeps' fast path; the one statistical difference is that the jam
        is held at its *mean* power budget rather than renormalised to
        the empirical power of each realisation, a ~1/sqrt(n_samples)
        effect).
        """
        if count <= 0:
            raise ValueError("need at least one jam in a batch")
        if n_bits <= 0:
            raise ValueError("need at least one bit of jamming")
        if power <= 0:
            raise ValueError("jamming power must be positive")
        if fsk.sample_rate != self.sample_rate:
            raise ValueError("FSK config and jammer disagree on sample rate")
        factor = self._correlation_factors(fsk, n_bits)
        # Independent proper complex Gaussians per folded bin and tone
        # (one flat draw viewed as complex; the 1/sqrt(2) component scale
        # and all deterministic gains are folded into the cached factor).
        draws = self.rng.standard_normal((count, n_bits, 4)).view(np.complex128)
        # The per-bin 2x2 colouring dispatches through the accel
        # registry; the IFFT stays numpy's job under every backend.
        coloured = get_kernel("jam_tone_colour")(factor, draws)
        correlations = np.fft.ifft(coloured, axis=1)
        if power != 1.0:
            correlations *= np.sqrt(power)
        return correlations

    def _correlation_factors(self, fsk: FSKConfig, n_bits: int) -> np.ndarray:
        """The shared colouring factors of this jammer's profile."""
        return _colouring_factors(
            self.profile.frequencies_hz.tobytes(),
            self.profile.relative_power.tobytes(),
            self.sample_rate,
            fsk,
            n_bits,
        )

    def _spectral_scale(self, n_samples: int, power: float) -> np.ndarray:
        """Per-bin Gaussian scale for a jam of ``n_samples`` (cached)."""
        if n_samples < 2:
            raise ValueError("need at least two samples of jamming")
        if power <= 0:
            raise ValueError("jamming power must be positive")
        scale = self._scale_cache.get(n_samples)
        if scale is None:
            scale = np.sqrt(
                _bin_variances(
                    self.profile.frequencies_hz,
                    self.profile.relative_power,
                    self.sample_rate,
                    n_samples,
                )
                / 2.0
            )
            scale.setflags(write=False)
            self._scale_cache[n_samples] = scale
        return scale

    @classmethod
    def matched_to_fsk(
        cls,
        deviation_hz: float,
        bit_rate: float,
        sample_rate: float,
        n_bins: int = 256,
        rng: np.random.Generator | None = None,
    ) -> "ShapedJammer":
        """Jammer shaped to a two-tone FSK profile (the Fig. 5 'shaped'
        curve)."""
        profile = FrequencyProfile.two_tone_fsk(
            deviation_hz, bit_rate, n_bins, sample_rate
        )
        return cls(profile, sample_rate, rng)

    @classmethod
    def flat(
        cls,
        bandwidth_hz: float,
        sample_rate: float,
        n_bins: int = 256,
        rng: np.random.Generator | None = None,
    ) -> "ShapedJammer":
        """Oblivious constant-profile jammer (the Fig. 5 baseline)."""
        profile = FrequencyProfile.flat(n_bins, bandwidth_hz)
        return cls(profile, sample_rate, rng)


def _bin_variances(
    frequencies_hz: np.ndarray,
    relative_power: np.ndarray,
    sample_rate: float,
    n_samples: int,
) -> np.ndarray:
    """Interpolate a target profile onto the FFT grid of a jam."""
    grid = np.fft.fftfreq(n_samples, d=1.0 / sample_rate)
    order = np.argsort(grid)
    sorted_grid = grid[order]
    interpolated = np.interp(
        sorted_grid,
        frequencies_hz,
        relative_power,
        left=0.0,
        right=0.0,
    )
    variances = np.empty(n_samples)
    variances[order] = interpolated
    total = variances.sum()
    if total <= 0:
        raise ValueError(
            "profile has no support inside the jammer's sample rate"
        )
    return variances / total


# Bounded: a campaign uses one or two keys, and a factor is
# ``64 * n_bits`` bytes, so 32 packet-length factors stay in the low
# megabytes.
@lru_cache(maxsize=32)
def _colouring_factors(
    frequencies_bytes: bytes,
    power_bytes: bytes,
    sample_rate: float,
    fsk: FSKConfig,
    n_bits: int,
) -> np.ndarray:
    """Per-bin 2x2 colouring factors for the correlation draw.

    For folded bin ``m`` the tone-correlation spectrum is
    ``S[m] = (1/N) * sum_a var[m + a*M] * A[m + a*M] A[m + a*M]^H``
    with ``A_tone[q] = sum_k exp(2j pi k (q/N - f_tone/fs))`` the
    template's response to FFT bin ``q`` (``N`` samples, ``M=n_bits``
    folded bins, ``a`` the alias index).  The returned factor is the
    (eigen) square root of each ``S[m]`` with the deterministic draw
    gains pre-multiplied, so the hot path is draw -> matmul -> IDFT.

    The profile arrives as the raw bytes of its float64 arrays, so
    jammers built from equal profiles -- one per patient in a fleet
    campaign -- share one factor per process.  Sharing is safe because
    the factor is a pure function of this key and is returned
    read-only.
    """
    spb = fsk.samples_per_bit
    n_samples = n_bits * spb
    variances = _bin_variances(
        np.frombuffer(frequencies_bytes),
        np.frombuffer(power_bytes),
        sample_rate,
        n_samples,
    )
    bin_freqs = np.arange(n_samples) / n_samples  # cycles per sample
    tone_freqs = np.asarray(fsk.tone_frequencies()) / fsk.sample_rate
    k = np.arange(spb)
    # A[q, tone]: template response of each FFT bin.
    phases = bin_freqs[:, None, None] - tone_freqs[None, :, None]
    response = np.exp(2j * np.pi * phases * k[None, None, :]).sum(axis=2)
    var_folded = variances.reshape(spb, n_bits)
    resp_folded = response.reshape(spb, n_bits, 2)
    spectra = np.einsum(
        "am,amt,amu->mtu", var_folded / n_samples, resp_folded, np.conj(resp_folded)
    )
    # Eigen square root: robust to bins the profile leaves empty.
    eigenvalues, eigenvectors = np.linalg.eigh(spectra)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    factor = eigenvectors * np.sqrt(eigenvalues)[:, None, :]
    # Fold in every deterministic gain of the draw path: the
    # 1/sqrt(2) per-component scale of a unit proper complex
    # Gaussian, the IDFT's 1/n_bits, and the sqrt(n_samples)
    # amplitude of a unit-power jam.
    factor *= n_bits * np.sqrt(n_samples) / np.sqrt(2.0)
    factor.setflags(write=False)
    return factor
