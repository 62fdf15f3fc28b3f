"""Parity properties: every accel kernel vs the pinned numpy reference.

Two layers of pinning.  First, the numpy reference kernels are checked
against straight-line inline formulas (the exact expressions the
pre-accel call sites computed) across hypothesis-driven dtype/shape/seed
sweeps -- so extracting the kernels cannot have changed a number.
Second, when numba is installed, its JIT overlay is checked against the
numpy reference on the same sweeps, bit-identical for the integer
kernels and tolerance-pinned for the float ones (JIT reassociation).
The numba legs skip cleanly when the dependency is missing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import reference

pytestmark = pytest.mark.statistical

needs_numba = pytest.mark.skipif(
    not accel.numba_available(), reason="numba not installed"
)

seeds = st.integers(0, 2**32 - 1)


def _numba_kernel(name):
    fn = accel.get_kernel(name, backend="numba")
    assert fn is not accel.get_kernel(name, backend="numpy")
    return fn


def _jam_inputs(seed, n_jams, n_bits):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n_bits, 2, 2)) + 1j * rng.standard_normal(
        (n_bits, 2, 2)
    )
    draws = rng.standard_normal((n_jams, n_bits, 2)) + 1j * rng.standard_normal(
        (n_jams, n_bits, 2)
    )
    return factor, draws


def _fsk_inputs(seed, n_bits, sps):
    rng = np.random.default_rng(seed)
    chunks = rng.standard_normal((n_bits, sps)) + 1j * rng.standard_normal(
        (n_bits, sps)
    )
    correlators = rng.standard_normal((sps, 2)) + 1j * rng.standard_normal(
        (sps, 2)
    )
    return chunks, correlators


def _ecg_inputs(seed, n_records, n_samples, n_beats):
    rng = np.random.default_rng(seed)
    record_index = rng.integers(0, n_records, size=n_beats).astype(np.int64)
    # Centers deliberately spill past both edges to exercise clipping.
    centers = rng.uniform(-0.3, n_samples / 100.0 + 0.3, size=n_beats)
    amps = rng.standard_normal(n_beats)
    amps[rng.random(n_beats) < 0.2] = 0.0  # exercise the amp==0 skip
    return record_index, centers, amps


class TestNumpyReferenceVsInline:
    """The extracted numpy kernels reproduce the pre-accel expressions."""

    @given(seeds, st.integers(1, 12), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_jam_tone_colour(self, seed, n_jams, n_bits):
        factor, draws = _jam_inputs(seed, n_jams, n_bits)
        out = reference.jam_tone_colour(factor, draws)
        inline = (factor[None] @ draws[..., None])[..., 0]
        assert out.dtype == inline.dtype
        np.testing.assert_array_equal(out, inline)

    @given(seeds, st.integers(1, 64), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_fsk_coherent_bits(self, seed, n_bits, sps):
        chunks, correlators = _fsk_inputs(seed, n_bits, sps)
        h = 0.5
        out = reference.fsk_coherent_bits(chunks, correlators, h)
        correlations = chunks @ correlators
        rotation = np.exp(-1j * np.pi * h * np.arange(n_bits))
        metrics = np.real(correlations * rotation[:, None])
        inline = (metrics[:, 1] > metrics[:, 0]).astype(np.int64)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, inline)

    @given(seeds, st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_ecg_wave_accumulate(self, seed, n_records, n_beats):
        n = 160
        fs, sigma, half = 100.0, 0.04, 8
        record_index, centers, amps = _ecg_inputs(seed, n_records, n, n_beats)
        flat = np.zeros(n_records * n)
        reference.ecg_wave_accumulate(
            flat, record_index, centers, amps, sigma, fs, half, n
        )
        expected = np.zeros(n_records * n)
        offsets = np.arange(-half, half + 1)
        idx = np.round(centers * fs).astype(np.int64)[:, None] + offsets
        t_rel = idx / fs - centers[:, None]
        values = amps[:, None] * np.exp(-0.5 * (t_rel / sigma) ** 2)
        valid = (idx >= 0) & (idx < n)
        flat_idx = record_index[:, None] * n + np.clip(idx, 0, n - 1)
        np.add.at(expected, flat_idx[valid], values[valid])
        np.testing.assert_array_equal(flat, expected)

    @given(seeds, st.integers(8, 256))
    @settings(max_examples=40, deadline=None)
    def test_hr_unbiased_autocorr(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        lag_hi = n - 1
        out = reference.hr_unbiased_autocorr(x, lag_hi)
        full = np.correlate(x, x, mode="full")[n - 1 :]
        inline = (full / (n - np.arange(n)))[: lag_hi + 1]
        np.testing.assert_array_equal(out, inline)

    @given(
        seeds,
        st.integers(0, 300),
        st.integers(1, 2000),
        st.one_of(
            st.sampled_from([29.5, 30.0, 30.0001]), st.floats(0.0, 60.0)
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_beat_refractory_suppress(self, seed, n_cands, span, refractory):
        # The reference is a sorted-neighbour search; the all-pairs
        # definition below is the original inline formula.  A narrow
        # ``span`` forces duplicate candidate indices.
        rng = np.random.default_rng(seed)
        cands = rng.integers(0, span, size=n_cands).astype(np.int64)
        out = reference.beat_refractory_suppress(cands, refractory)
        kept: list[int] = []
        for idx in cands:
            if all(abs(idx - k) >= refractory for k in kept):
                kept.append(int(idx))
        assert out.dtype == np.int64
        assert out.tolist() == kept


@needs_numba
class TestNumbaVsNumpy:
    """The JIT overlay matches the reference on the same sweeps.

    Integer outputs (demod bits, kept beat indices) must be
    bit-identical; float outputs are tolerance-pinned because JIT loop
    nests may reassociate sums.
    """

    @given(seeds, st.integers(1, 12), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_jam_tone_colour(self, seed, n_jams, n_bits):
        factor, draws = _jam_inputs(seed, n_jams, n_bits)
        out = _numba_kernel("jam_tone_colour")(factor, draws)
        ref = reference.jam_tone_colour(factor, draws)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)

    @given(seeds, st.integers(1, 64), st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_fsk_coherent_bits(self, seed, n_bits, sps):
        chunks, correlators = _fsk_inputs(seed, n_bits, sps)
        out = _numba_kernel("fsk_coherent_bits")(chunks, correlators, 0.5)
        ref = reference.fsk_coherent_bits(chunks, correlators, 0.5)
        np.testing.assert_array_equal(out, ref)

    @given(seeds, st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=20, deadline=None)
    def test_ecg_wave_accumulate(self, seed, n_records, n_beats):
        n = 160
        fs, sigma, half = 100.0, 0.04, 8
        record_index, centers, amps = _ecg_inputs(seed, n_records, n, n_beats)
        out = np.zeros(n_records * n)
        _numba_kernel("ecg_wave_accumulate")(
            out, record_index, centers, amps, sigma, fs, half, n
        )
        ref = np.zeros(n_records * n)
        reference.ecg_wave_accumulate(
            ref, record_index, centers, amps, sigma, fs, half, n
        )
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)

    @given(seeds, st.integers(8, 256))
    @settings(max_examples=25, deadline=None)
    def test_hr_unbiased_autocorr(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        lag_hi = min(n - 1, 181)
        out = _numba_kernel("hr_unbiased_autocorr")(x, lag_hi)
        ref = reference.hr_unbiased_autocorr(x, lag_hi)
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-12)

    @given(seeds, st.integers(0, 40), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_beat_refractory_suppress(self, seed, n_cands, refractory):
        rng = np.random.default_rng(seed)
        cands = rng.integers(0, 500, size=n_cands).astype(np.int64)
        out = _numba_kernel("beat_refractory_suppress")(
            cands, float(refractory)
        )
        ref = reference.beat_refractory_suppress(cands, float(refractory))
        np.testing.assert_array_equal(out, ref)


class TestCallSitesUseRegistry:
    """End-to-end: the hot call sites produce identical numbers whichever
    backend resolves (a numpy-only process exercises the dispatch path
    itself; with numba the comparison is substantive)."""

    def test_beat_detection_backend_invariant(self, monkeypatch):
        from repro.physio.inference import detect_beats

        rng = np.random.default_rng(7)
        x = rng.standard_normal(600)
        x[50::97] += 6.0
        monkeypatch.setenv(accel.ACCEL_ENV, "numpy")
        ref = detect_beats(x, sample_rate_hz=120.0)
        monkeypatch.setenv(accel.ACCEL_ENV, "auto")
        auto = detect_beats(x, sample_rate_hz=120.0)
        np.testing.assert_array_equal(ref, auto)

    def test_heart_rate_backend_invariant(self, monkeypatch):
        from repro.physio.inference import estimate_heart_rate

        rng = np.random.default_rng(11)
        t = np.arange(1024) / 120.0
        x = np.sin(2 * np.pi * 1.2 * t) + 0.1 * rng.standard_normal(1024)
        monkeypatch.setenv(accel.ACCEL_ENV, "numpy")
        ref = estimate_heart_rate(x, sample_rate_hz=120.0)
        monkeypatch.setenv(accel.ACCEL_ENV, "auto")
        auto = estimate_heart_rate(x, sample_rate_hz=120.0)
        if accel.numba_available():
            assert abs(ref - auto) < 1e-6
        else:
            assert ref == auto
