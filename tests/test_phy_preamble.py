"""Tests for S_id matching (S7 machinery)."""

import numpy as np
import pytest

from repro.phy.preamble import IdentifyingSequence, hamming_distance


class TestHammingDistance:
    def test_identical(self):
        assert hamming_distance([1, 0, 1], [1, 0, 1]) == 0

    def test_counts_differences(self):
        assert hamming_distance([1, 1, 1, 1], [0, 1, 0, 1]) == 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance([1, 0], [1])


class TestIdentifyingSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IdentifyingSequence(np.array([], dtype=int))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            IdentifyingSequence(np.array([0, 1, 2]))

    def test_exact_match(self):
        seq = IdentifyingSequence(np.array([1, 0, 1, 1, 0, 0, 1, 0]))
        assert seq.matches(seq.bits, b_thresh=0)

    def test_tolerates_up_to_b_thresh_flips(self, rng):
        bits = rng.integers(0, 2, size=104)
        seq = IdentifyingSequence(bits)
        corrupted = bits.copy()
        corrupted[[3, 40, 77, 100]] ^= 1  # exactly 4 flips
        assert seq.matches(corrupted, b_thresh=4)
        assert not seq.matches(corrupted, b_thresh=3)

    def test_longer_candidate_uses_prefix(self, rng):
        bits = rng.integers(0, 2, size=32)
        seq = IdentifyingSequence(bits)
        extended = np.concatenate([bits, rng.integers(0, 2, size=16)])
        assert seq.matches(extended, b_thresh=0)

    def test_short_candidate_never_matches(self):
        seq = IdentifyingSequence(np.ones(16, dtype=int))
        assert not seq.matches(np.ones(8, dtype=int), b_thresh=16)
