"""Property tests (hypothesis): batched fast paths vs scalar references.

The hot paths are vectorized -- table-driven CRC, whole-block waveform
trials -- each keeping a scalar (or loop) reference implementation.  These properties pin the fast paths to
their references across random inputs, so a future optimisation that
silently changes a number fails here rather than in a figure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.waveform_lab import PassiveLab
from repro.protocol.crc import (
    _crc16_ccitt_bitwise,
    bits_to_bytes,
    crc16_bits_batch,
    crc16_ccitt,
)

pytestmark = pytest.mark.statistical


bit_matrices = st.integers(1, 8).flatmap(
    lambda rows: st.integers(1, 8).flatmap(
        lambda nbytes: st.lists(
            st.lists(st.integers(0, 1), min_size=8 * nbytes, max_size=8 * nbytes),
            min_size=rows,
            max_size=rows,
        )
    )
).map(lambda rows: np.asarray(rows, dtype=np.int64))


class TestCrcBatchParity:
    @given(bit_matrices)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar_per_row(self, bits):
        batch = crc16_bits_batch(bits)
        assert batch.dtype == np.uint16
        for row, crc in zip(bits, batch):
            assert int(crc) == crc16_ccitt(bits_to_bytes(row))

    @given(bit_matrices)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_bitwise_reference(self, bits):
        """All the way down: vectorized table vs the bit-at-a-time loop."""
        batch = crc16_bits_batch(bits)
        for row, crc in zip(bits, batch):
            assert int(crc) == _crc16_ccitt_bitwise(bits_to_bytes(row))


class TestPassiveLabBatchParity:
    @given(
        st.integers(0, 2**16),
        st.floats(min_value=-5.0, max_value=25.0),
        st.sampled_from([1, 5, 9, 14, 18]),
    )
    @settings(max_examples=10, deadline=None)
    def test_single_trial_path_equals_batch_of_one(self, seed, margin, location):
        """run_trial is defined as run_batch(n=1); two identically seeded
        labs must agree bit for bit across random seeds and operating
        points."""
        trial = PassiveLab(seed=seed).run_trial(
            margin, location_index=location
        )
        batch = PassiveLab(seed=seed).run_batch(
            margin, n_packets=1, location_index=location
        )
        assert trial.eavesdropper_ber == batch.eavesdropper_ber[0]
        assert trial.shield_bit_errors == batch.shield_bit_errors[0]
        assert trial.shield_packet_lost == batch.shield_packet_lost[0]

    @given(st.integers(0, 2**16), st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_batch_is_deterministic_per_seed(self, seed, n_packets):
        first = PassiveLab(seed=seed).run_batch(20.0, n_packets=n_packets)
        second = PassiveLab(seed=seed).run_batch(20.0, n_packets=n_packets)
        assert np.array_equal(first.eavesdropper_ber, second.eavesdropper_ber)
        assert np.array_equal(first.shield_bit_errors, second.shield_bit_errors)

    @given(st.integers(0, 2**16))
    @settings(max_examples=6, deadline=None)
    def test_correlation_and_sample_paths_agree_on_decode_quality(self, seed):
        """The correlation-domain fast path and the general sample-level
        path are different exact formulations of the same receivers: in a
        high-SNR, low-jam regime both must decode essentially error-free;
        under crushing jamming both must be near coin flips."""
        from repro.core.jamming import ShapedJammer

        lab = PassiveLab(seed=seed)
        # A mismatched-rate jammer forces the sample-level fallback.
        slow_lab = PassiveLab(seed=seed)
        off_rate_jammer = ShapedJammer.matched_to_fsk(
            50e3, 100e3, 1200e3, rng=slow_lab.rng
        )
        easy_fast = lab.run_batch(-40.0, n_packets=4, score_shield=False)
        easy_slow = slow_lab.run_batch(
            -40.0, n_packets=4, score_shield=False, jammer=off_rate_jammer
        )
        assert easy_fast.mean_eavesdropper_ber() < 0.05
        assert easy_slow.mean_eavesdropper_ber() < 0.05
