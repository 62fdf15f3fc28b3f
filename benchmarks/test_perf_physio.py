"""Throughput benchmarks of the physiological telemetry hot paths.

The physio scenarios push whole record blocks through four stages --
ECG synthesis, codec quantization, batched eavesdropping, and the
bits-to-vitals inference -- so each stage gets a regression guard here,
plus one end-to-end record batch through :class:`PhysioLab`.  The
``benchmarks/compare.py`` gate runs this file alongside the DSP
primitives.
"""

import numpy as np

from repro.adversary.eavesdropper import Eavesdropper
from repro.experiments.physio_lab import PhysioLab
from repro.phy.fsk import FSKModulator
from repro.physio.codec import WaveformCodec
from repro.physio.ecg import ECGConfig, ECGGenerator
from repro.physio.inference import (
    AttackerInference,
    detect_beats,
    estimate_heart_rate,
)
from repro.protocol.commands import CommandType
from repro.protocol.packets import Packet

_RNG = np.random.default_rng(321)
_GENERATOR = ECGGenerator(ECGConfig())
_CODEC = WaveformCodec()
_BATCH = _GENERATOR.sample_batch(16, seed=5)
_WINDOWS = _BATCH.samples.reshape(-1, _CODEC.window_samples)
_MASKS = _BATCH.beat_mask.reshape(-1, _CODEC.window_samples)
_PAYLOADS = _CODEC.encode_batch(_WINDOWS, _MASKS)

_TRUE_BITS = _RNG.integers(0, 2, size=(16, 256))
_NOISY = FSKModulator().modulate_batch(_TRUE_BITS)
_NOISY = _NOISY + 0.4 * (
    _RNG.standard_normal(_NOISY.shape) + 1j * _RNG.standard_normal(_NOISY.shape)
)

_INFERENCE = AttackerInference(_CODEC)
_PACKET_CODEC = _INFERENCE.packet_codec
_FRAMES = np.stack([
    _PACKET_CODEC.encode(
        Packet(bytes(range(10)), CommandType.TELEMETRY, i % 256,
               _PAYLOADS[i].tobytes())
    )
    for i in range(16)
])
_CORRUPTED = (_FRAMES ^ (_RNG.random(_FRAMES.shape) < 0.1))[None, :, :]
#: A fully jammed record: coin-flip frame bits (the shield's one-time-pad
#: regime), whose reconstruction leaves 65 peak candidates for the
#: refractory suppression -- about what a physio campaign record has.
_JAMMED_SAMPLES, _ = _INFERENCE.reconstruct_record(
    np.random.default_rng(0).integers(0, 2, size=_FRAMES.shape)
)

#: One shield-wearing fleet patient's inference block, as
#: ``PhysioLab.run_records`` stacks it: the jammed record (near
#: coin-flip BER), the clear reference and three coin-flip chance
#: records, 8 packets each.
_PATIENT_FRAMES = _FRAMES[:8]
_PATIENT_RNG = np.random.default_rng(17)
_PATIENT_BLOCK = np.stack([
    _PATIENT_FRAMES ^ (_PATIENT_RNG.random(_PATIENT_FRAMES.shape) < 0.45),
    _PATIENT_FRAMES,
    *_PATIENT_RNG.integers(0, 2, size=(3,) + _PATIENT_FRAMES.shape),
])


def test_perf_ecg_batch_generation(benchmark):
    batch = benchmark(_GENERATOR.sample_batch, 16, 5)
    assert batch.samples.shape == (16, 768)


def test_perf_codec_encode_batch(benchmark):
    payloads = benchmark(_CODEC.encode_batch, _WINDOWS, _MASKS)
    assert payloads.shape == (_WINDOWS.shape[0], _CODEC.payload_size)


def test_perf_codec_decode_batch(benchmark):
    samples, masks = benchmark(_CODEC.decode_batch, _PAYLOADS)
    assert samples.shape == _WINDOWS.shape


def test_perf_attack_batch(benchmark):
    result = benchmark(Eavesdropper().attack_batch, _NOISY, _TRUE_BITS)
    assert result.bits.shape == _TRUE_BITS.shape


def test_perf_hr_estimation(benchmark):
    hr = benchmark(estimate_heart_rate, _BATCH.samples[0], 120.0)
    assert 40.0 <= hr <= 200.0


def test_perf_detect_beats(benchmark):
    """Beat detection on one jammed 768-sample record."""
    beats = benchmark(detect_beats, _JAMMED_SAMPLES, 120.0)
    assert beats.size > 0


def test_perf_inference_record(benchmark):
    """Bits-to-vitals on one 16-packet record at 10% BER."""
    results = benchmark(_INFERENCE.infer_batch, _CORRUPTED)
    assert len(results) == 1


def test_perf_infer_block(benchmark):
    """Bits-to-vitals on one fleet patient's 5-record block."""
    results = benchmark(_INFERENCE.infer_batch, _PATIENT_BLOCK)
    assert len(results) == 5


def test_perf_physio_record_batch(benchmark):
    def run():
        return PhysioLab(seed=99).run_records(
            4, location_index=2, shield_present=True
        )

    result = benchmark(run)
    assert result.n_records == 4
