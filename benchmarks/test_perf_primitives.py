"""Throughput benchmarks of the DSP primitives.

A wearable shield must run its receive chain in real time: at the
modelled 100 kb/s link, one second of air time is 100k bits / 600k
samples per channel.  These benches measure how far above real time the
pure-Python/numpy implementation sits (they are also the regression guard
for accidental slowdowns).
"""

import numpy as np
import pytest

from benchmarks.conftest import attack_sweep
from repro.core.detector import ActiveDetector
from repro.core.jamming import ShapedJammer
from repro.experiments.testbed import AttackTestbed
from repro.experiments.waveform_lab import PassiveLab
from repro.phy.fsk import FSKConfig, FSKModulator, NoncoherentFSKDemodulator
from repro.protocol.commands import CommandType
from repro.protocol.crc import crc16_bits_batch, crc16_ccitt
from repro.protocol.packets import Packet, PacketCodec

_RNG = np.random.default_rng(123)
_BITS = _RNG.integers(0, 2, size=10_000)
_WAVE = FSKModulator().modulate(_BITS)
_CODEC = PacketCodec()
_SERIAL = bytes(range(10))
_PACKET = Packet(_SERIAL, CommandType.TELEMETRY, 1, bytes(24))
_ENCODED = _CODEC.encode(_PACKET)
_BATCH_BITS = _RNG.integers(0, 2, size=(40, 250))
_BATCH_WAVE = FSKModulator().modulate_batch(_BATCH_BITS)


def test_perf_fsk_modulation(benchmark):
    out = benchmark(FSKModulator().modulate, _BITS)
    assert len(out) == len(_BITS) * 6


def test_perf_fsk_demodulation(benchmark):
    demod = NoncoherentFSKDemodulator()
    out = benchmark(demod.demodulate, _WAVE)
    assert np.array_equal(out, _BITS)


def test_perf_shaped_jamming_generation(benchmark):
    jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=_RNG)
    out = benchmark(jammer.generate, 60_000)
    assert len(out) == 60_000


def test_perf_sid_detection(benchmark):
    detector = ActiveDetector(
        _CODEC.identifying_sequence(_SERIAL),
        b_thresh=4,
        p_thresh_dbm=-17.0,
        anomaly_rssi_dbm=-30.0,
    )
    prefix = _ENCODED[:104]
    decision = benchmark(detector.evaluate, prefix, -40.0)
    assert decision.matched


def test_perf_packet_encode_decode(benchmark):
    def round_trip():
        return _CODEC.decode(_CODEC.encode(_PACKET))

    assert benchmark(round_trip) == _PACKET


def test_perf_air_receive(benchmark):
    """The event simulator's reception path, one call per kind: the
    shield decoding an IMD reply through its own reply-window jam, and
    the bare IMD hearing a clean command."""
    shielded = AttackTestbed(
        location_index=3, jam_imd_replies=True, seed=0, observer_enabled=False
    )
    shielded.shield.send_command_to_imd(shielded.interrogate_packet())
    shielded.simulator.run(until=shielded.TRIAL_SPACING_S)
    (reply,) = shielded.air.transmissions_by("imd")
    bare = AttackTestbed(location_index=1, shield_present=False, seed=0)
    bare.attack_once(bare.interrogate_packet())
    (command,) = bare.air.transmissions_by("adversary")

    def receive_both():
        return (
            shielded.air.receive(reply, "shield"),
            bare.air.receive(command, "imd"),
        )

    jammed, clean = benchmark(receive_both)
    thermal_sinr = jammed.rssi_dbm - shielded.links.noise_power_dbm("shield")
    assert jammed.min_sinr_db < thermal_sinr - 3.0
    assert clean.bit_flips == 0 and len(clean.segments) == 1


def test_perf_crc16(benchmark):
    data = bytes(_RNG.integers(0, 256, size=256))
    benchmark(crc16_ccitt, data)


# ---------------------------------------------------------------------------
# Batched Monte-Carlo runtime paths (the PR-1 speedups, regression-guarded)
# ---------------------------------------------------------------------------


def test_perf_crc16_bits_batch(benchmark):
    bits = _RNG.integers(0, 2, size=(64, 8 * 40))
    out = benchmark(crc16_bits_batch, bits)
    assert out.shape == (64,)


def test_perf_fsk_modulation_batch(benchmark):
    out = benchmark(FSKModulator().modulate_batch, _BATCH_BITS)
    assert out.shape == (40, 250 * 6)


def test_perf_fsk_demodulation_batch(benchmark):
    demod = NoncoherentFSKDemodulator()
    out = benchmark(demod.demodulate_batch, _BATCH_WAVE)
    assert np.array_equal(out, _BATCH_BITS)


def test_perf_shaped_jamming_batch(benchmark):
    jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=_RNG)
    out = benchmark(jammer.generate_batch, 40, 1500)
    assert out.shape == (40, 1500)


def test_perf_jam_tone_correlations(benchmark):
    jammer = ShapedJammer.matched_to_fsk(50e3, 100e3, 600e3, rng=_RNG)
    fsk = FSKConfig()
    out = benchmark(jammer.tone_correlation_batch, 40, fsk, 250)
    assert out.shape == (40, 250, 2)


def test_perf_batched_ber_one_location(benchmark):
    """One location of Fig. 9 at the acceptance batch size (40 packets)."""
    lab = PassiveLab(seed=7)

    def run():
        return lab.ber_by_location(
            jam_margin_db=20.0, n_packets=40, location_indices=(1,)
        )

    out = benchmark(run)
    assert 0.3 < out[1] < 0.6


_SWEEP = dict(
    shield_present=False, n_trials=40, location_indices=(1, 8), seed=0
)


def test_perf_attack_sweep_serial(benchmark):
    """The Fig. 11 sweep shape at 40 trials: an in-memory serial campaign."""

    def run():
        return attack_sweep("perf-attack", **_SWEEP)

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert set(out) == {1, 8}


def test_perf_attack_sweep_parallel(benchmark):
    """Same campaign through the process pool; results must match serial.

    On a single-core box the pool only adds overhead -- the bench exists
    to regression-guard the parallel path's correctness and to show the
    speedup on real multi-core hardware.
    """

    def run():
        return attack_sweep("perf-attack", workers=2, **_SWEEP)

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert out == attack_sweep("perf-attack", **_SWEEP)
