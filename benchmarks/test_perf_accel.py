"""Benchmarks of the hot numpy kernels.

One benchmark per module-private kernel at its call site's working
shape: the jam colouring (``core/jamming.py``), the ECG scatter-add
(``physio/ecg.py``), and the attacker's autocorrelation and refractory
search (``physio/inference.py``).  Their numerics are pinned by the unit
tests next to each caller; these benches time them.
"""

import numpy as np

from repro.core.jamming import _jam_tone_colour
from repro.physio.ecg import _ecg_wave_accumulate
from repro.physio.inference import (
    _beat_refractory_suppress,
    _hr_unbiased_autocorr,
)

_RNG = np.random.default_rng(123)

# jam_tone_colour at the batched-sweep shape (40 jams x 250 bits).
_FACTOR = (
    _RNG.standard_normal((250, 2, 2)) + 1j * _RNG.standard_normal((250, 2, 2))
)
_DRAWS = _RNG.standard_normal((40, 250, 4)).view(np.complex128)

# Unused draws, kept so that _RNG stays in step: the benches below time
# the inputs their committed baselines were measured on.
_CHUNKS = (
    _RNG.standard_normal((250, 6)) + 1j * _RNG.standard_normal((250, 6))
)
_CORRELATORS = (
    _RNG.standard_normal((6, 2)) + 1j * _RNG.standard_normal((6, 2))
)

# ecg_wave_accumulate at a fleet-shard shape: 100 records x 6.4 s.
_N_SAMPLES = 768
_N_RECORDS = 100
_BEATS_PER_RECORD = 8
_N_BEATS = _N_RECORDS * _BEATS_PER_RECORD
_RECORD_INDEX = np.repeat(np.arange(_N_RECORDS, dtype=np.int64),
                          _BEATS_PER_RECORD)
_CENTERS = np.tile(
    np.linspace(0.3, 5.9, _BEATS_PER_RECORD), _N_RECORDS
) + _RNG.uniform(-0.05, 0.05, size=_N_BEATS)
_AMPS = np.full(_N_BEATS, 1.0)

# hr_unbiased_autocorr at the attacker's record length (768 samples at
# 120 Hz; lag range spans 40-200 BPM).
_X = _RNG.standard_normal(_N_SAMPLES)
_X -= _X.mean()
_LAG_HI = 181

# beat_refractory_suppress at a heavily corrupted record (many spurious
# candidates -- the O(c^2) worst case partial jamming produces).
_CANDIDATES = _RNG.choice(_N_SAMPLES, size=200, replace=False).astype(np.int64)
_STRENGTHS = _RNG.standard_normal(200)
_CAND_DESC = _CANDIDATES[np.argsort(_STRENGTHS)[::-1]]


def test_perf_accel_jam_tone_colour(benchmark):
    out = benchmark(_jam_tone_colour, _FACTOR, _DRAWS)
    assert out.shape == (40, 250, 2)


def test_perf_accel_ecg_wave_accumulate(benchmark):
    def run():
        flat = np.zeros(_N_RECORDS * _N_SAMPLES)
        _ecg_wave_accumulate(flat, _RECORD_INDEX, _CENTERS, _AMPS, 0.055,
                             120.0, 27, _N_SAMPLES)
        return flat

    out = benchmark(run)
    assert out.shape == (_N_RECORDS * _N_SAMPLES,)


def test_perf_accel_hr_autocorr(benchmark):
    out = benchmark(_hr_unbiased_autocorr, _X, _LAG_HI)
    assert out.shape == (_LAG_HI + 1,)


def test_perf_accel_beat_suppress(benchmark):
    out = benchmark(_beat_refractory_suppress, _CAND_DESC, 30.0)
    assert 0 < out.size <= _CAND_DESC.size
