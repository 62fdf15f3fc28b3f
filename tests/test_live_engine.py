"""Live engine: deterministic replay, clocks, scheduling, vitals walk.

The load-bearing claim is the replay contract: the event/alarm log is
a pure function of (seed, config) -- byte-identical across runs *and*
across clocks, because the clock paces dispatch but never reorders
it.  Everything else here guards the pieces that contract leans on:
the reserved RNG roles, the heap schedule's shape, the heart-rate
walk's seeded determinism, and the clock implementations themselves.
"""

import asyncio
import logging
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet.cohort import CohortSpec
# TestClock is aliased so pytest does not try to collect it as a
# test class (it has an __init__).
from repro.live.clock import AcceleratedClock, WallClock
from repro.live.clock import TestClock as DrainClock
from repro.live import events as events_module
from repro.live.engine import (
    LIVE_ATTACK_ROLE,
    LIVE_SCHEDULE_ROLE,
    LIVE_VITALS_ROLE,
    LiveConfig,
    LiveEngine,
)
from repro.live.events import EventLog, LiveEvent, canonical_line
from repro.physio.ecg import RHYTHM_CLASSES, RHYTHM_RATES_BPM, HeartRateWalk


def _run(config, clock=None):
    log = EventLog()
    engine = LiveEngine(
        config, clock=clock if clock is not None else DrainClock(),
        event_log=log,
    )
    asyncio.run(engine.run())
    return engine, log


_SMALL = LiveConfig(
    n_patients=12, duration_s=20.0, attack_bursts=2, seed=11
)


class TestReplayDeterminism:
    def test_same_seed_is_byte_identical(self):
        _, log_a = _run(_SMALL)
        _, log_b = _run(_SMALL)
        assert log_a.lines == log_b.lines
        assert log_a.digest() == log_b.digest()

    def test_different_seed_diverges(self):
        _, log_a = _run(_SMALL)
        _, log_b = _run(
            LiveConfig(
                n_patients=12, duration_s=20.0, attack_bursts=2, seed=12
            )
        )
        assert log_a.digest() != log_b.digest()

    def test_clock_choice_never_touches_the_log(self):
        # A heavily accelerated paced clock and the drain clock must
        # produce the same bytes: pacing is the only thing that may
        # differ between deployment and replay.
        _, drained = _run(_SMALL)
        _, paced = _run(_SMALL, clock=AcceleratedClock(10_000.0))
        assert drained.lines == paced.lines

    def test_log_written_twice_compares_equal(self, tmp_path):
        _, log_a = _run(_SMALL)
        _, log_b = _run(_SMALL)
        path_a = log_a.write(tmp_path / "a.jsonl")
        path_b = log_b.write(tmp_path / "b.jsonl")
        assert path_a.read_bytes() == path_b.read_bytes()


#: A small ward whose interval does not divide the horizon, so tick
#: chains end at different counts; its seed fires all four stock rules.
_PINNED = LiveConfig(
    n_patients=30, duration_s=20.0, telemetry_interval_s=0.7,
    attack_bursts=2, seed=0,
)


def _reference_schedule(config):
    """Every ``(time, seq, kind, patient)`` key of ``config``'s run,
    materialised in full: admissions, then each patient's whole
    ``t += interval`` tick chain, then the attack trials -- sorted into
    the order a heap of all of them would pop."""
    entries = []

    def push(t, kind, patient):
        entries.append((t, len(entries), kind, patient))

    n = config.n_patients
    for patient in range(n):
        push(0.0, "admit", patient)
    interval = config.telemetry_interval_s
    for patient in range(n):
        t = interval * (patient + 1) / (n + 1)
        while t <= config.duration_s:
            push(t, "vitals", patient)
            t += interval
    _, burst_seed = config.cohort().stream_seed(
        0, LIVE_SCHEDULE_ROLE
    ).spawn(2)
    rng = np.random.default_rng(burst_seed)
    for _ in range(config.attack_bursts):
        start = float(
            rng.uniform(0.1 * config.duration_s, 0.9 * config.duration_s)
        )
        target = int(rng.integers(n))
        for trial in range(config.burst_trials):
            t = start + trial * config.burst_spacing_s
            if t <= config.duration_s:
                push(t, "attack", target)
    return sorted(entries)


class _RecordingEngine(LiveEngine):
    """Records every popped entry and the largest heap it popped from."""

    def __init__(self, config):
        super().__init__(config, clock=DrainClock())
        self.popped = []
        self.peak_heap = 0

    def _pop(self):
        self.peak_heap = max(self.peak_heap, len(self._heap))
        entry = super()._pop()
        self.popped.append(entry)
        return entry


class TestGoldenLog:
    def test_pinned_ward_log(self):
        # Any change to dispatch order, RNG consumption or the
        # canonical form moves these.
        engine, log = _run(_PINNED)
        assert len(log.lines) == 920
        assert log.digest() == (
            "e8e518730eebda9b4a3292e82b00c9fd3987eadc2fed4c053034e763b7cb263b"
        )
        assert engine.pipeline.fired_by_rule == {
            "tachycardia": 7, "bradycardia": 2,
            "shield-state": 2, "battery-dos": 2,
        }


class TestLazyDispatch:
    @pytest.mark.parametrize(
        "config",
        [
            _PINNED,
            _SMALL,
            LiveConfig(n_patients=1, duration_s=7.0, attack_bursts=1),
            # The interval outlasts the horizon: some patients never tick.
            LiveConfig(
                n_patients=3, duration_s=1.0, telemetry_interval_s=2.0,
                attack_bursts=0,
            ),
            LiveConfig(
                n_patients=7, duration_s=3.0, telemetry_interval_s=0.1,
                attack_bursts=1, burst_spacing_s=0.3, seed=4,
            ),
        ],
        ids=["pinned", "small", "one-patient", "sparse", "odd-interval"],
    )
    def test_pop_order_matches_the_full_schedule(self, config):
        reference = _reference_schedule(config)
        engine = _RecordingEngine(config)
        asyncio.run(engine.run())
        assert engine.popped == reference
        assert engine.finished and not engine._heap
        attack_trials = sum(kind == "attack" for _, _, kind, _ in reference)
        assert engine.peak_heap <= config.n_patients + attack_trials

    def test_stop_mid_run_leaves_an_unfinished_prefix(self):
        reference = _reference_schedule(_PINNED)
        engine = _RecordingEngine(_PINNED)
        engine.add_event_listener(
            lambda e: engine.stop() if e.time_s > 9.0 else None
        )
        asyncio.run(engine.run())
        assert not engine.finished
        assert 0 < len(engine.popped) < len(reference)
        assert engine.popped == reference[: len(engine.popped)]

    def test_start_line_counts_every_scheduled_event(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.live.engine"):
            _run(_PINNED)
        expected = len(_reference_schedule(_PINNED))
        assert any(
            f"{expected} scheduled events" in record.getMessage()
            for record in caplog.records
        )


class TestScheduleShape:
    def test_every_patient_is_admitted_then_ticked(self):
        engine, _ = _run(_SMALL)
        assert engine.events_by_kind["session"] == _SMALL.n_patients
        # One tick chain per patient over the horizon.
        expected_ticks = _SMALL.n_patients * int(
            _SMALL.duration_s / _SMALL.telemetry_interval_s
        )
        assert engine.events_by_kind["vitals"] == expected_ticks
        assert engine.finished and not engine.running

    def test_attack_bursts_reach_the_testbed(self):
        engine, log = _run(_SMALL)
        assert engine.events_by_kind["attack"] == (
            _SMALL.attack_bursts * _SMALL.burst_trials
        )
        assert any('"kind":"attack"' in line for line in log.lines)

    def test_dispatch_time_is_monotonic(self):
        engine = LiveEngine(_SMALL)
        seen = []
        engine.add_event_listener(lambda e: seen.append(e.time_s))
        asyncio.run(engine.run())
        assert seen == sorted(seen)

    def test_stop_drains_early(self):
        engine = LiveEngine(_SMALL)
        engine.add_event_listener(
            lambda e: engine.stop() if e.time_s > 5.0 else None
        )
        asyncio.run(engine.run())
        assert not engine.finished
        assert engine.clock.sim_time_s < _SMALL.duration_s

    def test_snapshot_carries_the_gauge_surface(self):
        engine, _ = _run(_SMALL)
        snap = engine.snapshot()
        for key in (
            "running", "finished", "active_sessions", "events_total",
            "events_by_kind", "events_per_s", "alarms_fired",
            "alarms_by_rule", "alarms_suppressed", "sim_time_s",
            "speedup", "behind_s",
        ):
            assert key in snap
        assert snap["active_sessions"] == _SMALL.n_patients
        assert snap["events_total"] == engine.events_total
        assert snap["speedup"] is None  # TestClock advertises no pacing


class TestStreamRoles:
    def test_live_roles_never_alias_batch_streams(self):
        cohort = CohortSpec(n_patients=4, seed=3)
        states = set()
        for role in (0, 1, LIVE_VITALS_ROLE, LIVE_ATTACK_ROLE):
            seq = cohort.stream_seed(2, role)
            states.add(tuple(seq.generate_state(4).tolist()))
        assert len(states) == 4

    def test_stream_seed_rejects_bad_arguments(self):
        cohort = CohortSpec(n_patients=4)
        with pytest.raises(ValueError, match="patient index"):
            cohort.stream_seed(4, 0)
        with pytest.raises(ValueError, match="role"):
            cohort.stream_seed(0, -1)

    def test_profile_and_encounter_streams_unchanged_by_refactor(self):
        # patient_profile / encounter_seed now route through
        # stream_seed; the spawn keys (and so every cached fleet
        # number) must be exactly what they always were.
        cohort = CohortSpec(n_patients=4, seed=9)
        direct = np.random.SeedSequence(
            9, spawn_key=(0xF1EE7, 1, 1)
        ).generate_state(4)
        via = cohort.encounter_seed(1).generate_state(4)
        assert np.array_equal(direct, via)


class TestLiveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_patients": 0},
            {"duration_s": 0},
            {"telemetry_interval_s": 0},
            {"attack_bursts": -1},
            {"burst_trials": 0},
            {"burst_spacing_s": 0},
            {"attack_command": "reboot"},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            LiveConfig(**kwargs)

    def test_cohort_uses_the_fleet_synthesis(self):
        config = LiveConfig(n_patients=7, seed=5)
        cohort = config.cohort()
        assert isinstance(cohort, CohortSpec)
        assert cohort.n_patients == 7 and cohort.seed == 5


class TestHeartRateWalk:
    def _walk(self, rhythm="normal", seed=0):
        return HeartRateWalk(
            rhythm, np.random.default_rng(seed)
        )

    def test_seeded_walk_replays(self):
        walk_a, walk_b = self._walk(), self._walk()
        a = [walk_a.step() for _ in range(50)]
        b = [walk_b.step() for _ in range(50)]
        assert a == b

    def test_stays_in_physiological_band(self):
        walk = HeartRateWalk(
            "afib", np.random.default_rng(1), base_bpm=290.0
        )
        rates = [walk.step() for _ in range(200)]
        assert all(20.0 <= r <= 300.0 for r in rates)

    def test_afib_is_markedly_more_variable_than_sinus(self):
        sinus = self._walk("normal", seed=2)
        afib = HeartRateWalk(
            "afib", np.random.default_rng(2),
            base_bpm=RHYTHM_RATES_BPM["normal"],
        )
        sinus_steps = np.diff([sinus.step() for _ in range(500)])
        afib_steps = np.diff([afib.step() for _ in range(500)])
        assert np.std(afib_steps) > 3.0 * np.std(sinus_steps)

    def test_reverts_toward_base(self):
        walk = self._walk("normal", seed=3)
        walk.rate_bpm = 250.0
        for _ in range(100):
            walk.step()
        assert abs(walk.rate_bpm - walk.base_bpm) < 30.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="rhythm"):
            HeartRateWalk("sinus", np.random.default_rng(0))
        with pytest.raises(ValueError, match="mean_reversion"):
            HeartRateWalk(
                "normal", np.random.default_rng(0), mean_reversion=0.0
            )


class TestClocks:
    def test_drain_clock_never_waits(self):
        clock = DrainClock()
        clock.start()
        start = time.monotonic()
        asyncio.run(clock.advance_to(1e6))
        assert time.monotonic() - start < 0.5
        assert clock.sim_time_s == 1e6

    def test_accelerated_clock_paces_wall_time(self):
        async def scenario():
            clock = AcceleratedClock(100.0)
            clock.start()
            start = time.monotonic()
            await clock.advance_to(10.0)  # 0.1s of wall time
            return time.monotonic() - start

        elapsed = asyncio.run(scenario())
        assert 0.05 <= elapsed < 1.0

    def test_overloaded_clock_records_lag_instead_of_sleeping(self):
        async def scenario():
            clock = AcceleratedClock(1.0)
            clock.start()
            # Simulate dispatch arriving late: ask for a sim instant
            # already in the past.
            clock._start_wall -= 5.0
            start = time.monotonic()
            await clock.advance_to(1.0)
            return clock, time.monotonic() - start

        clock, elapsed = asyncio.run(scenario())
        assert elapsed < 0.5  # never slept to "catch up"
        assert clock.behind_s > 3.0

    def test_wall_clock_is_unit_speedup(self):
        assert WallClock().speedup == 1.0

    def test_rejects_non_positive_speedup(self):
        with pytest.raises(ValueError):
            AcceleratedClock(0.0)


class TestLiveEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            LiveEvent(0.0, 0, "gossip", {})

    def test_canonical_form_is_sorted_and_minimal(self):
        event = LiveEvent(1.5, 3, "vitals", {"hr_bpm": 70.0})
        line = event.canonical()
        assert line == (
            '{"data":{"hr_bpm":70.0},"kind":"vitals","patient":3,"t":1.5}'
        )


#: Floats the fast vitals renderer must print exactly as ``json.dumps``:
#: any finite value, plus the rounded readings the engine emits.
_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6).map(lambda x: round(x, 3)),
)


class TestCanonicalVitals:
    @settings(max_examples=300, deadline=None)
    @given(
        t=_finite,
        hr=_finite,
        patient=st.integers(-(2**70), 2**70),
        rhythm=st.sampled_from(RHYTHM_CLASSES),
    )
    @example(t=-0.0, hr=5e-324, patient=0, rhythm="normal")
    @example(t=1e16, hr=1.7976931348623157e308, patient=2**64, rhythm="afib")
    @example(t=0.1 + 0.2, hr=round(71.23449999, 3), patient=3,
             rhythm="normal")
    def test_vitals_line_matches_canonical_line(self, t, hr, patient, rhythm):
        event = LiveEvent(t, patient, "vitals", {
            "hr_bpm": hr, "rhythm": rhythm,
        })
        assert event.canonical() == canonical_line(event.to_payload())

    _OFF_SHAPE = {
        "extra-key": (1.0, 2, {"hr_bpm": 70.0, "rhythm": "normal", "x": 1}),
        "int-hr": (1.0, 2, {"hr_bpm": 70, "rhythm": "normal"}),
        "bool-hr": (1.0, 2, {"hr_bpm": True, "rhythm": "normal"}),
        "numpy-hr": (1.0, 2, {"hr_bpm": np.float64(70.5), "rhythm": "afib"}),
        "nan-hr": (1.0, 2, {"hr_bpm": float("nan"), "rhythm": "normal"}),
        "inf-t": (float("inf"), 2, {"hr_bpm": 70.0, "rhythm": "normal"}),
        "int-t": (1, 2, {"hr_bpm": 70.0, "rhythm": "normal"}),
        "bool-patient": (1.0, True, {"hr_bpm": 70.0, "rhythm": "normal"}),
        "missing-rhythm": (1.0, 2, {"hr_bpm": 70.0, "rate": "normal"}),
    }

    @pytest.mark.parametrize("case", sorted(_OFF_SHAPE))
    def test_off_shape_events_take_canonical_line(self, case):
        t, patient, data = self._OFF_SHAPE[case]
        event = LiveEvent(t, patient, "vitals", data)
        with mock.patch.object(
            events_module, "canonical_line", wraps=canonical_line
        ) as spy:
            line = event.canonical()
        spy.assert_called_once()
        assert line == canonical_line(event.to_payload())

    @settings(max_examples=100, deadline=None)
    @given(
        rhythm=st.text(),
        hr=st.one_of(st.floats(), st.integers(), st.booleans()),
        extra=st.dictionaries(
            st.text(min_size=1).filter(lambda k: k not in ("hr_bpm",
                                                           "rhythm")),
            st.integers(), max_size=2,
        ),
    )
    def test_any_vitals_payload_matches_canonical_line(
        self, rhythm, hr, extra
    ):
        # Non-ASCII rhythms, NaN/inf, ints and extra keys: whichever
        # path renders the line, the bytes are canonical_line's.
        event = LiveEvent(2.5, 9, "vitals", {
            "hr_bpm": hr, "rhythm": rhythm, **extra,
        })
        assert event.canonical() == canonical_line(event.to_payload())
