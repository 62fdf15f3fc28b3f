"""Preamble detection and identifying-sequence matching.

The shield identifies packets destined for its IMD by comparing the first
``m`` decoded bits against the device's identifying sequence ``S_id``
(preamble + header + 10-byte serial number) and jamming when the Hamming
distance is below ``b_thresh`` (S7).  This module provides that
bit-domain matcher and the preamble every modelled packet starts with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "hamming_distance",
    "IdentifyingSequence",
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
