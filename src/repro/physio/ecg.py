"""Vectorized synthetic IEGM/ECG generator.

Each record is a train of Gaussian-template beats riding an RR-interval
process: P wave, QRS complex (Q/R/S), and T wave, each a Gaussian bump
at a fixed offset from the R peak, plus baseline wander and additive
measurement noise.  The RR process is what distinguishes the rhythm
classes:

``normal``
    Sinus rhythm around 72 BPM with a few percent of beat-to-beat
    jitter (heart-rate variability).
``bradycardia`` / ``tachycardia``
    The same sinus process centred at 45 / 150 BPM.
``afib``
    Atrial-fibrillation-style rhythm: lognormal RR intervals with a
    large coefficient of variation *and no P wave* -- the two features
    a rhythm classifier keys on.

The generator is batch-first like ``PassiveLab.run_batch``: one
:meth:`ECGGenerator.sample_batch` call synthesises a whole block of
records as flat numpy passes (the per-beat Gaussian bumps are placed
with one windowed scatter-add per wave component, never a per-sample
Python loop).  Every record draws from its own spawned
``SeedSequence`` child stream, so ``sample_batch(n, seed)[i]`` is
bit-identical to ``sample_record(child_i)`` -- the parity the test
suite pins -- and work units that shard a batch stay deterministic.
A record's true heart rate depends only on its beat train, the first
draws of its stream, so :meth:`ECGGenerator.sample_rates` returns a
batch's rates without drawing or synthesising the waveforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.runtime.seeding import spawn_seed_sequences

__all__ = [
    "ECGBatch",
    "ECGConfig",
    "ECGGenerator",
    "HeartRateWalk",
    "MIXED_RHYTHM",
    "RHYTHM_CHOICES",
    "RHYTHM_CLASSES",
    "RHYTHM_RATES_BPM",
    "rate_from_beat_times",
]


def rate_from_beat_times(
    beat_times, fallback: float | None = None
) -> float | None:
    """Mean rate (BPM) of a beat train: ``60 * (n - 1) / span``.

    The one shared definition of beats-to-rate -- the generator's ground
    truth and the attacker's beat-anchored estimates must agree on it.
    Returns ``fallback`` for trains with fewer than two beats or a
    non-positive span.
    """
    if len(beat_times) < 2:
        return fallback
    span = float(beat_times[-1] - beat_times[0])
    if span <= 0:
        return fallback
    return 60.0 * (len(beat_times) - 1) / span

#: The rhythm classes the generator synthesises (and the attacker's
#: classifier distinguishes).
RHYTHM_CLASSES = ("normal", "bradycardia", "tachycardia", "afib")

#: Sentinel accepted wherever a rhythm is configured: draw each
#: record's class uniformly from :data:`RHYTHM_CLASSES`.
MIXED_RHYTHM = "mixed"

#: Every valid value of a rhythm parameter (scenario specs, PhysioLab).
RHYTHM_CHOICES = RHYTHM_CLASSES + (MIXED_RHYTHM,)

#: Default mean heart rate per rhythm class (BPM).
RHYTHM_RATES_BPM = {
    "normal": 72.0,
    "bradycardia": 45.0,
    "tachycardia": 150.0,
    "afib": 95.0,
}

#: Beat-to-beat RR jitter (fractional std) for the sinus rhythms and the
#: lognormal sigma for AF-style irregularity.  AF's value puts its RR
#: coefficient of variation near 0.25 -- far above sinus HRV.
_SINUS_RR_JITTER = 0.04
_AFIB_LOG_SIGMA = 0.24

#: Gaussian wave templates: (amplitude, sigma seconds, offset seconds
#: from the R peak).  Amplitudes are in the codec's normalized signal
#: units (R peak == 1).
_WAVES = (
    ("P", 0.15, 0.022, -0.16),
    ("Q", -0.08, 0.010, -0.025),
    ("R", 1.00, 0.012, 0.0),
    ("S", -0.12, 0.010, 0.025),
    ("T", 0.30, 0.055, 0.22),
)


def _ecg_wave_accumulate(
    flat: np.ndarray,
    record_index: np.ndarray,
    centers: np.ndarray,
    amps: np.ndarray,
    sigma: float,
    fs: float,
    half: int,
    n: int,
) -> None:
    """Scatter-add one Gaussian wave component into the flattened
    ``(n_records * n,)`` buffer, in place, over a ``[-half, +half]``
    sample window per beat."""
    offsets = np.arange(-half, half + 1)
    idx = np.round(centers * fs).astype(np.int64)[:, None] + offsets
    t_rel = idx / fs - centers[:, None]
    values = amps[:, None] * np.exp(-0.5 * (t_rel / sigma) ** 2)
    valid = (idx >= 0) & (idx < n)
    flat_idx = record_index[:, None] * n + np.clip(idx, 0, n - 1)
    np.add.at(flat, flat_idx[valid], values[valid])


@dataclass(frozen=True)
class ECGConfig:
    """Parameters of the synthetic cardiac source.

    ``heart_rate_bpm=None`` uses the rhythm's default rate
    (:data:`RHYTHM_RATES_BPM`).  ``duration_s`` is the record length the
    telemetry codec will window into packets.
    """

    sample_rate_hz: float = 120.0
    duration_s: float = 6.4
    rhythm: str = "normal"
    heart_rate_bpm: float | None = None
    noise_std: float = 0.02
    wander_amplitude: float = 0.05
    wander_freq_hz: float = 0.25

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.rhythm not in RHYTHM_CLASSES:
            raise ValueError(
                f"unknown rhythm {self.rhythm!r}; "
                f"expected one of {RHYTHM_CLASSES}"
            )
        if self.heart_rate_bpm is not None and not 20 <= self.heart_rate_bpm <= 300:
            raise ValueError(
                f"heart_rate_bpm must lie in [20, 300], got {self.heart_rate_bpm}"
            )
        if self.noise_std < 0 or self.wander_amplitude < 0:
            raise ValueError("noise levels cannot be negative")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    def rate_for(self, rhythm: str) -> float:
        """Mean heart rate of a rhythm under this config."""
        if self.heart_rate_bpm is not None:
            return self.heart_rate_bpm
        return RHYTHM_RATES_BPM[rhythm]


@dataclass(frozen=True)
class ECGBatch:
    """One synthesised block of cardiac records.

    ``samples`` is ``(n_records, n_samples)``; ``beat_mask`` marks the
    R-peak sample of every beat (the ground-truth annotation the codec
    transmits and leakage metrics score against).
    """

    samples: np.ndarray
    beat_mask: np.ndarray
    heart_rate_bpm: np.ndarray
    rhythms: tuple[str, ...]
    sample_rate_hz: float

    @property
    def n_records(self) -> int:
        return self.samples.shape[0]

    def beat_times(self, record: int) -> np.ndarray:
        """R-peak times (seconds) of one record."""
        return (
            np.flatnonzero(self.beat_mask[record]) / self.sample_rate_hz
        )


class ECGGenerator:
    """Batch-first synthetic ECG source."""

    def __init__(self, config: ECGConfig | None = None):
        self.config = config or ECGConfig()

    # ------------------------------------------------------------------
    # RR process
    # ------------------------------------------------------------------

    def _draw_beats(
        self, rng: np.random.Generator, rhythm: str
    ) -> np.ndarray:
        """Beat times (seconds) of one record, strictly inside the window."""
        config = self.config
        rate = config.rate_for(rhythm)
        mean_rr = 60.0 / rate
        # Enough intervals to overshoot the window even with AF's
        # short-RR excursions.
        n_draws = int(math.ceil(config.duration_s / mean_rr * 1.8)) + 3
        gauss = rng.standard_normal(n_draws)
        if rhythm == "afib":
            # Lognormal RR, mean-corrected so the average rate stays at
            # the configured value despite the skew.
            rr = mean_rr * np.exp(
                _AFIB_LOG_SIGMA * gauss - _AFIB_LOG_SIGMA**2 / 2.0
            )
        else:
            rr = mean_rr * (1.0 + _SINUS_RR_JITTER * gauss)
        rr = np.maximum(rr, 0.2)  # physiological refractory floor
        first = rng.uniform(0.0, mean_rr)
        times = first + np.concatenate([[0.0], np.cumsum(rr[:-1])])
        return times[times < config.duration_s - 1.0 / config.sample_rate_hz]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample_record(
        self, seed: int | np.random.SeedSequence, rhythm: str | None = None
    ) -> ECGBatch:
        """One record (an ``n_records == 1`` batch) from one seed stream.

        This is the scalar reference path: :meth:`sample_batch` must
        reproduce it record for record from the spawned child streams.
        """
        rhythm = rhythm or self.config.rhythm
        rng = np.random.default_rng(seed)
        beats = self._draw_beats(rng, rhythm)
        wander_phase = rng.uniform(0.0, 2.0 * np.pi)
        noise = rng.standard_normal(self.config.n_samples)
        samples, mask = self._synthesise(
            [beats], (rhythm,), np.array([wander_phase]), noise[None, :]
        )
        return ECGBatch(
            samples=samples,
            beat_mask=mask,
            heart_rate_bpm=np.array([self._true_rate(beats, rhythm)]),
            rhythms=(rhythm,),
            sample_rate_hz=self.config.sample_rate_hz,
        )

    def sample_batch(
        self,
        n_records: int,
        seed: int | np.random.SeedSequence = 0,
        rhythms: tuple[str, ...] | list[str] | None = None,
    ) -> ECGBatch:
        """``n_records`` independent records as one vectorized pass.

        ``rhythms`` gives each record its own class (defaults to the
        config rhythm everywhere).  Per-record randomness comes from
        spawned child streams, so shards and whole batches agree.
        """
        rhythms = self._batch_rhythms(n_records, rhythms)
        beats: list[np.ndarray] = []
        phases = np.empty(n_records)
        noise = np.empty((n_records, self.config.n_samples))
        for i, (rng, record_beats) in enumerate(
            self._stream_beats(seed, rhythms)
        ):
            beats.append(record_beats)
            phases[i] = rng.uniform(0.0, 2.0 * np.pi)
            noise[i] = rng.standard_normal(self.config.n_samples)
        samples, mask = self._synthesise(beats, rhythms, phases, noise)
        rates = np.array(
            [self._true_rate(b, r) for b, r in zip(beats, rhythms)]
        )
        return ECGBatch(
            samples=samples,
            beat_mask=mask,
            heart_rate_bpm=rates,
            rhythms=rhythms,
            sample_rate_hz=self.config.sample_rate_hz,
        )

    def sample_rates(
        self,
        n_records: int,
        seed: int | np.random.SeedSequence = 0,
        rhythms: tuple[str, ...] | list[str] | None = None,
    ) -> np.ndarray:
        """``sample_batch(n_records, seed, rhythms).heart_rate_bpm``,
        without synthesising a waveform.

        A record's true rate depends only on its beat train, the first
        draws of its own stream, so the wander phase and the noise --
        nearly all of a record's draws -- are never made.
        """
        rhythms = self._batch_rhythms(n_records, rhythms)
        return np.array([
            self._true_rate(beats, rhythm)
            for (_, beats), rhythm in zip(
                self._stream_beats(seed, rhythms), rhythms
            )
        ])

    def _batch_rhythms(
        self, n_records: int, rhythms: tuple[str, ...] | list[str] | None
    ) -> tuple[str, ...]:
        """The per-record rhythm classes of a batch, validated."""
        if n_records < 1:
            raise ValueError("need at least one record in a batch")
        if rhythms is None:
            return (self.config.rhythm,) * n_records
        rhythms = tuple(rhythms)
        if len(rhythms) != n_records:
            raise ValueError(
                f"got {len(rhythms)} rhythms for {n_records} records"
            )
        unknown = set(rhythms) - set(RHYTHM_CLASSES)
        if unknown:
            raise ValueError(f"unknown rhythm class(es): {sorted(unknown)}")
        return rhythms

    def _stream_beats(
        self, seed: int | np.random.SeedSequence, rhythms: tuple[str, ...]
    ):
        """Each record's generator and beat train, in record order.

        Record ``i`` draws from the ``i``-th spawned child stream, beats
        first; the generator is yielded mid-stream for the caller's
        further draws.  :meth:`sample_batch` and :meth:`sample_rates`
        both take their beats from here, so their rates cannot drift.
        """
        for stream, rhythm in zip(
            spawn_seed_sequences(seed, len(rhythms)), rhythms
        ):
            rng = np.random.default_rng(stream)
            yield rng, self._draw_beats(rng, rhythm)

    # ------------------------------------------------------------------
    # Synthesis (vectorized across every beat of every record)
    # ------------------------------------------------------------------

    def _true_rate(self, beats: np.ndarray, rhythm: str) -> float:
        """Ground-truth mean rate of one record's realised beat train."""
        return rate_from_beat_times(
            beats, fallback=self.config.rate_for(rhythm)
        )

    def _synthesise(
        self,
        beats: list[np.ndarray],
        rhythms: tuple[str, ...],
        wander_phases: np.ndarray,
        noise: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Waveforms + R-peak masks from per-record beat trains."""
        config = self.config
        fs = config.sample_rate_hz
        n_records = len(beats)
        n = config.n_samples
        wave = np.zeros((n_records, n))

        # Flatten (record, beat) pairs once; every wave component is one
        # windowed scatter-add over all beats of all records.
        record_index = np.concatenate(
            [np.full(len(b), i, dtype=np.int64) for i, b in enumerate(beats)]
        )
        beat_t = np.concatenate(beats) if record_index.size else np.empty(0)
        has_p = np.array([r != "afib" for r in rhythms])

        flat = wave.reshape(-1)
        for name, amp, sigma, offset in _WAVES:
            if record_index.size == 0:
                break
            amps = np.full(record_index.shape, amp)
            if name == "P":
                amps *= has_p[record_index]
            centers = beat_t + offset
            half = int(math.ceil(4.0 * sigma * fs))
            _ecg_wave_accumulate(
                flat, record_index, centers, amps, sigma, fs, half, n
            )

        t = np.arange(n) / fs
        wave += config.wander_amplitude * np.sin(
            2.0 * np.pi * config.wander_freq_hz * t[None, :]
            + wander_phases[:, None]
        )
        wave += config.noise_std * noise

        mask = np.zeros((n_records, n), dtype=bool)
        if record_index.size:
            peak_idx = np.clip(np.round(beat_t * fs).astype(np.int64), 0, n - 1)
            mask[record_index, peak_idx] = True
        return wave, mask


class HeartRateWalk:
    """Seeded mean-reverting heart-rate process for streaming vitals.

    The live monitor (:mod:`repro.live.engine`) ticks each patient's
    vitals once per telemetry interval -- far too often to synthesise a
    full waveform record per tick.  This walk is the cheap
    between-records model: an AR(1) (Ornstein-Uhlenbeck in discrete
    time) around the rhythm's base rate, with per-step variability
    scaled from the same class parameters the waveform generator uses
    (sinus HRV jitter; AF's lognormal irregularity maps to a much
    larger step).  One seeded generator in, one standard-normal draw
    per step out -- replaying the stream is bit-identical however the
    steps are chunked, and a step costs a few microseconds.
    """

    #: Beat-to-beat jitter (fractional std of RR) scaled up to the
    #: telemetry cadence: windowed HR estimates vary less than single
    #: RR intervals, so one step's std is ``rate * jitter`` for sinus
    #: rhythms and ``rate * sigma`` for AF.
    _RHYTHM_STEP_FRACTION = {
        "normal": _SINUS_RR_JITTER,
        "bradycardia": _SINUS_RR_JITTER,
        "tachycardia": _SINUS_RR_JITTER,
        "afib": _AFIB_LOG_SIGMA,
    }

    #: Physiological clamp (matches :class:`ECGConfig`'s accepted band).
    _MIN_BPM, _MAX_BPM = 20.0, 300.0

    def __init__(
        self,
        rhythm: str,
        rng: np.random.Generator,
        base_bpm: float | None = None,
        mean_reversion: float = 0.1,
    ):
        if rhythm not in RHYTHM_CLASSES:
            raise ValueError(
                f"unknown rhythm {rhythm!r}; expected one of {RHYTHM_CLASSES}"
            )
        if not 0 < mean_reversion <= 1:
            raise ValueError(
                f"mean_reversion must lie in (0, 1], got {mean_reversion}"
            )
        self.rhythm = rhythm
        self.base_bpm = (
            float(base_bpm) if base_bpm is not None
            else RHYTHM_RATES_BPM[rhythm]
        )
        self.step_std_bpm = (
            self.base_bpm * self._RHYTHM_STEP_FRACTION[rhythm]
        )
        self.mean_reversion = float(mean_reversion)
        self._rng = rng
        #: Draws :meth:`steps` made ahead, next one last.
        self._pending_draws: list[float] = []
        self.rate_bpm = self.base_bpm

    def step(self) -> float:
        """Advance one telemetry interval; returns the new rate (BPM).

        The step's standard-normal draw is the next one :meth:`steps`
        drew ahead, or a fresh scalar draw when none is pending.
        """
        pending = self._pending_draws
        z = pending.pop() if pending else self._rng.standard_normal()
        pull = self.mean_reversion * (self.base_bpm - self.rate_bpm)
        noise = self.step_std_bpm * z
        rate = self.rate_bpm + pull + noise
        if rate < self._MIN_BPM:
            rate = self._MIN_BPM
        elif rate > self._MAX_BPM:
            rate = self._MAX_BPM
        self.rate_bpm = float(rate)
        return self.rate_bpm

    def steps(self, n: int) -> list[float]:
        """Advance ``n`` telemetry intervals; returns each new rate.

        The ``n`` draws are one ``standard_normal(n)`` call, which a
        Generator fills with exactly the values of ``n`` scalar draws,
        so the rates equal ``n`` :meth:`step` calls in any chunking --
        without ``n`` round trips into the generator.
        """
        self._pending_draws = self._rng.standard_normal(n).tolist()[::-1]
        return [self.step() for _ in range(n)]
