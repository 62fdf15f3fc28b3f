"""Preamble detection and identifying-sequence matching.

The shield identifies packets destined for its IMD by comparing the first
``m`` decoded bits against the device's identifying sequence ``S_id``
(preamble + header + 10-byte serial number) and jamming when the Hamming
distance is below ``b_thresh`` (S7).  This module provides both the
bit-domain matcher and a waveform-domain correlator used for frame
synchronisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.fsk import FSKConfig, FSKModulator
from repro.phy.signal import Waveform

__all__ = [
    "hamming_distance",
    "IdentifyingSequence",
    "sliding_sequence_match",
    "correlate_preamble",
]

# The preamble every modelled packet starts with: alternating bits give the
# receiver bit-timing, as in the Medtronic telemetry captures.
DEFAULT_PREAMBLE_BITS = np.tile([1, 0], 8)  # 16 bits


def hamming_distance(a: np.ndarray | list[int], b: np.ndarray | list[int]) -> int:
    """Number of positions at which two equal-length bit vectors differ."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


@dataclass(frozen=True)
class IdentifyingSequence:
    """``S_id``: the bit pattern that marks a packet as addressed to an IMD.

    The paper builds it from per-device characteristics: the physical-layer
    preamble plus the header carrying the device's 10-byte serial number
    (S7(a)).  ``matches`` implements the b_thresh tolerance rule.
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.int64)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("identifying sequence must be a non-empty bit vector")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("identifying sequence must contain only 0s and 1s")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)

    def matches(self, candidate: np.ndarray | list[int], b_thresh: int) -> bool:
        """True if ``candidate`` differs from S_id in fewer than ``b_thresh``
        bits *or exactly* ``b_thresh`` bits.

        The paper states "if the two sequences differ by fewer than a
        threshold number of bits, b_thresh, the shield jams"; we treat the
        threshold as inclusive, matching the conservative choice in
        S10.1(c) (max observed flips 2 -> b_thresh set to 4).
        """
        candidate = np.asarray(candidate, dtype=np.int64)
        if len(candidate) < len(self.bits):
            return False
        return hamming_distance(candidate[: len(self.bits)], self.bits) <= b_thresh


def sliding_sequence_match(
    bits: np.ndarray | list[int], sequence: IdentifyingSequence, b_thresh: int
) -> int | None:
    """First offset at which ``sequence`` matches within ``b_thresh`` flips.

    Emulates the shield's streaming check: "for each newly decoded bit,
    the shield checks the last m decoded bits against the identifying
    sequence" (S7).  Returns the offset of the match start, or ``None``.
    """
    bits = np.asarray(bits, dtype=np.int64)
    m = len(sequence)
    if len(bits) < m:
        return None
    # Vectorised sliding Hamming distance via a stride trick-free approach:
    # correlate the +/-1 mapped sequences.
    mapped_bits = 2 * bits - 1
    mapped_seq = 2 * sequence.bits - 1
    # agreement[k] = number of matching positions at offset k
    agreement = np.correlate(mapped_bits, mapped_seq, mode="valid")
    distances = (m - agreement) / 2
    hits = np.nonzero(distances <= b_thresh)[0]
    if hits.size == 0:
        return None
    return int(hits[0])


def correlate_preamble(
    waveform: Waveform,
    preamble_bits: np.ndarray | list[int] | None = None,
    config: FSKConfig | None = None,
) -> tuple[int, float]:
    """Locate the FSK preamble in a waveform by matched-filter correlation.

    Returns ``(sample_offset, normalised_peak)`` where the peak is the
    correlation magnitude divided by the template and window energies
    (1.0 for a perfect, noise-free match).
    """
    config = config or FSKConfig()
    if preamble_bits is None:
        preamble_bits = DEFAULT_PREAMBLE_BITS
    template = FSKModulator(config).modulate(preamble_bits).samples
    if len(waveform) < len(template):
        raise ValueError("waveform shorter than the preamble template")
    corr = np.abs(np.correlate(waveform.samples, template, mode="valid"))
    offset = int(np.argmax(corr))
    window = waveform.samples[offset : offset + len(template)]
    denom = np.linalg.norm(template) * np.linalg.norm(window)
    peak = float(corr[offset] / denom) if denom > 0 else 0.0
    return offset, peak
