"""The live monitor's deterministic discrete-event engine.

The batch campaign layers answer population questions offline; this
engine answers the deployment question -- *what does a ward of
shield-worn patients look like as it happens?* -- by running the same
models in event time.  One :class:`LiveEngine` admits a cohort
(synthesised by the exact :mod:`repro.fleet.cohort` machinery the
batch sweeps use), streams each patient's vitals, injects attack
bursts through the event-level
:class:`~repro.experiments.testbed.AttackTestbed`, and feeds every
event through the :mod:`repro.live.alarms` pipeline.

Determinism contract
--------------------

The core is a heap of ``(sim_time, sequence)`` entries popped in
order; the pluggable clock (:mod:`repro.live.clock`) only *paces*
dispatch, never reorders it.  All randomness comes from per-patient
:meth:`~repro.fleet.cohort.CohortSpec.stream_seed` streams at roles
reserved for this subsystem, consumed in dispatch order.  Two runs of
the same :class:`LiveConfig` therefore produce byte-identical
:class:`~repro.live.events.EventLog` streams on *any* clock -- wall,
accelerated, or test -- which is the replay property
``tests/test_live_engine.py`` pins.

Throughput budget
-----------------

The acceptance bar (10k events/sec at speedup 100 on one core) only
works because the expensive physiology runs once, at admission: one
vectorized :meth:`~repro.physio.ecg.ECGGenerator.sample_batch` call
synthesises every patient's baseline record, and per-tick vitals come
from the cheap seeded :class:`~repro.physio.ecg.HeartRateWalk`.
Attack bursts -- the only events that touch the full testbed
simulation -- are rare by construction.  Per event, the heap holds
only each tick chain's head (:meth:`LiveEngine._pop` pushes the
successor), the event log renders the vitals line directly
(:meth:`~repro.live.events.LiveEvent.canonical`), and the alarm
pipeline offers an event only to rules of its kind.  The dispatch loop
yields to the asyncio loop every :data:`_YIELD_EVERY` events so
streaming subscribers are serviced even when the engine is saturated.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.fleet.cohort import CohortSpec
from repro.fleet.runner import patient_shield_config
from repro.live.alarms import AlarmPipeline
from repro.live.clock import TestClock
from repro.live.events import EVENT_KINDS, Alarm, EventLog, LiveEvent
from repro.obs.log import get_logger
from repro.obs.metrics import counter_inc, timing_observe
from repro.physio.ecg import ECGGenerator, HeartRateWalk

__all__ = [
    "LIVE_ATTACK_ROLE",
    "LIVE_VITALS_ROLE",
    "LiveConfig",
    "LiveEngine",
    "PatientSession",
]

_log = get_logger("live.engine")

#: Stream roles this subsystem claims in the cohort's spawn-key
#: namespace (roles 0 and 1 belong to profile synthesis and batch
#: encounters -- see :meth:`CohortSpec.stream_seed`).
LIVE_VITALS_ROLE = 2
LIVE_ATTACK_ROLE = 3
#: Engine-level schedule randomness (burst times and targets) rides
#: patient 0's namespace at its own role: one stream per run, and it
#: can never alias any per-patient stream.
LIVE_SCHEDULE_ROLE = 4

#: How often the dispatch loop yields control to the asyncio loop.  An
#: engine running behind schedule never sleeps (the clock records lag
#: instead), so without this, streaming subscribers would starve.
_YIELD_EVERY = 256

#: Per-kind event counter names, built once instead of per event.
_EVENT_COUNTERS = {kind: f"live.events.{kind}" for kind in EVENT_KINDS}


@dataclass(frozen=True)
class LiveConfig:
    """One live run: who is monitored, for how long, under what attack.

    ``attack_bursts`` bursts of ``burst_trials`` unauthorized commands
    each are scheduled at deterministic pseudo-random instants against
    deterministic pseudo-random patients; ``burst_spacing_s`` spaces
    the trials inside a burst closely enough that the battery-DoS rate
    rule can see them as one episode.
    """

    n_patients: int = 100
    seed: int = 0
    duration_s: float = 60.0
    telemetry_interval_s: float = 1.0
    attack_bursts: int = 1
    burst_trials: int = 5
    burst_spacing_s: float = 0.5
    attacker: str = "fcc"
    attack_command: str = "therapy"
    shield_worn_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.n_patients < 1:
            raise ValueError(
                f"n_patients must be positive, got {self.n_patients}"
            )
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.telemetry_interval_s <= 0:
            raise ValueError(
                f"telemetry_interval_s must be positive, "
                f"got {self.telemetry_interval_s}"
            )
        if self.attack_bursts < 0:
            raise ValueError(
                f"attack_bursts cannot be negative, got {self.attack_bursts}"
            )
        if self.burst_trials < 1:
            raise ValueError(
                f"burst_trials must be positive, got {self.burst_trials}"
            )
        if self.burst_spacing_s <= 0:
            raise ValueError(
                f"burst_spacing_s must be positive, "
                f"got {self.burst_spacing_s}"
            )
        if self.attack_command not in ("therapy", "interrogate"):
            raise ValueError(
                f"unknown attack command {self.attack_command!r}"
            )

    def cohort(self) -> CohortSpec:
        """The monitored population (same synthesis as fleet campaigns)."""
        return CohortSpec(
            n_patients=self.n_patients,
            seed=self.seed,
            shield_worn_fraction=self.shield_worn_fraction,
        )


class PatientSession:
    """One admitted patient: their walk, their device, their streams.

    The vitals walk consumes role :data:`LIVE_VITALS_ROLE`; the attack
    testbed (built lazily -- most sessions are never attacked) consumes
    role :data:`LIVE_ATTACK_ROLE`.  Both are pure functions of (cohort
    seed, patient index), never of admission order or burst schedule.
    """

    def __init__(self, profile, cohort: CohortSpec, config: LiveConfig,
                 base_bpm: float):
        self.profile = profile
        self._cohort = cohort
        self._config = config
        self.base_bpm = float(base_bpm)
        rng = np.random.default_rng(
            cohort.stream_seed(profile.index, LIVE_VITALS_ROLE)
        )
        self.walk = HeartRateWalk(profile.rhythm, rng, base_bpm=base_bpm)
        self._testbed = None

    @property
    def testbed(self):
        """The patient's encounter testbed, built on first attack."""
        if self._testbed is None:
            from repro.experiments.testbed import AttackTestbed

            profile = self.profile
            self._testbed = AttackTestbed(
                location_index=profile.location_index,
                shield_present=profile.shield_worn,
                attacker=self._config.attacker,
                seed=self._cohort.stream_seed(
                    profile.index, LIVE_ATTACK_ROLE
                ),
                shield_config=(
                    patient_shield_config(profile)
                    if profile.shield_worn
                    else None
                ),
                observer_enabled=False,
            )
        return self._testbed


class LiveEngine:
    """Deterministic scheduler driving per-patient monitoring sessions.

    Construct, optionally attach listeners (the streaming hub) and an
    :class:`~repro.live.events.EventLog`, then ``await run()``.  The
    engine owns simulated time; everything downstream -- alarms, rate
    limits, logs -- is keyed on it, never on the wall.
    """

    def __init__(
        self,
        config: LiveConfig,
        clock=None,
        pipeline: AlarmPipeline | None = None,
        event_log: EventLog | None = None,
    ):
        self.config = config
        self.clock = clock if clock is not None else TestClock()
        self.pipeline = pipeline if pipeline is not None else AlarmPipeline()
        self.event_log = event_log
        self.cohort = config.cohort()
        self.sessions: dict[int, PatientSession] = {}
        self.running = False
        self.finished = False
        self.events_total = 0
        self.events_by_kind: dict[str, int] = {}
        self._heap: list[tuple[float, int, str, int]] = []
        self._first_tick: dict[int, tuple[float, int, str, int]] = {}
        self._seq = 0
        self._stop = False
        self._wall_start: float | None = None
        self._wall_elapsed = 0.0
        self._event_listeners: list = []
        self._alarm_listeners: list = []

    # -- wiring ---------------------------------------------------------

    def add_event_listener(self, fn) -> None:
        """``fn(event)`` on every dispatched :class:`LiveEvent`."""
        self._event_listeners.append(fn)

    def add_alarm_listener(self, fn) -> None:
        """``fn(alarm)`` on every alarm that survives rate limiting."""
        self._alarm_listeners.append(fn)

    def stop(self) -> None:
        """Ask the dispatch loop to drain out at the next event."""
        self._stop = True

    # -- schedule construction -----------------------------------------

    def _push(self, time_s: float, kind: str, patient: int) -> None:
        heapq.heappush(self._heap, (time_s, self._seq, kind, patient))
        self._seq += 1

    def _build_schedule(self) -> None:
        """Admissions, telemetry tick chains, and attack bursts.

        Every event gets its ``(time, sequence)`` key here, but only
        the heads are pushed: admissions and attack trials in full,
        and each patient's telemetry chain as a reservation of
        consecutive sequence numbers that :meth:`run` expands one tick
        at a time (see :meth:`_pop`).  The heap therefore holds at most
        ``patients + attack trials`` entries instead of one per tick,
        while the keys -- and so the pop order -- are exactly those of
        the fully materialised schedule.  ``self._seq`` ends as the
        total number of scheduled events.
        """
        config = self.config
        cohort = self.cohort
        profiles = list(cohort.profiles())

        # Admission physiology: one vectorized batch for the ward --
        # the only place waveform synthesis runs.
        admission_seed, burst_seed = cohort.stream_seed(
            0, LIVE_SCHEDULE_ROLE
        ).spawn(2)
        start = time.perf_counter()
        generator = ECGGenerator()
        batch = generator.sample_batch(
            config.n_patients,
            seed=admission_seed,
            rhythms=tuple(p.rhythm for p in profiles),
        )
        timing_observe(
            "live.admission_batch", time.perf_counter() - start
        )

        for profile in profiles:
            self.sessions[profile.index] = PatientSession(
                profile, cohort, config,
                base_bpm=float(batch.heart_rate_bpm[profile.index]),
            )
            self._push(0.0, "admit", profile.index)

        # Telemetry ticks: each patient's chain starts at a fixed
        # phase inside the first interval (staggered load, but a pure
        # function of the index) and steps by the interval.  The
        # chain's head rides on the admission (see :meth:`_pop`); its
        # sequence numbers are reserved here by walking the same
        # ``t += interval`` float chain the dispatch loop will.
        interval = config.telemetry_interval_s
        duration = config.duration_s
        for profile in profiles:
            phase = interval * (profile.index + 1) / (config.n_patients + 1)
            ticks = 0
            t = phase
            while t <= duration:
                ticks += 1
                t += interval
            if ticks:
                self._first_tick[profile.index] = (
                    phase, self._seq, "vitals", profile.index
                )
            self._seq += ticks

        # Attack bursts: times and targets from the engine-level
        # schedule stream, trials spaced closely enough that the rate
        # rule sees an episode.
        schedule_rng = np.random.default_rng(burst_seed)
        for _ in range(config.attack_bursts):
            start = float(
                schedule_rng.uniform(
                    0.1 * config.duration_s, 0.9 * config.duration_s
                )
            )
            target = int(schedule_rng.integers(config.n_patients))
            for trial in range(config.burst_trials):
                t = start + trial * config.burst_spacing_s
                if t <= config.duration_s:
                    self._push(t, "attack", target)

    # -- dispatch -------------------------------------------------------

    def _pop(self) -> tuple[float, int, str, int]:
        """Take the next entry off the heap, pushing its chain successor.

        An admission is followed by its patient's first telemetry tick,
        and a tick ``(t, seq)`` by ``(t + interval, seq + 1)`` while
        that stays inside the horizon -- the keys
        :meth:`_build_schedule` reserved.  Each chain is sorted by key,
        so its earliest undispatched entry is always on the heap and
        the pop order is that of the whole schedule.
        """
        heap = self._heap
        entry = heap[0]
        time_s, seq, kind, patient = entry
        successor = None
        if kind == "vitals":
            next_s = time_s + self.config.telemetry_interval_s
            if next_s <= self.config.duration_s:
                successor = (next_s, seq + 1, kind, patient)
        elif kind == "admit":
            successor = self._first_tick.get(patient)
        if successor is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, successor)
        return entry

    def _emit(self, event: LiveEvent) -> None:
        self.events_total += 1
        self.events_by_kind[event.kind] = (
            self.events_by_kind.get(event.kind, 0) + 1
        )
        counter_inc(_EVENT_COUNTERS[event.kind])
        if self.event_log is not None:
            self.event_log.event(event)
        for fn in self._event_listeners:
            fn(event)
        for alarm in self.pipeline.process(event):
            self._emit_alarm(alarm)

    def _emit_alarm(self, alarm: Alarm) -> None:
        counter_inc("live.alarms_fired")
        if self.event_log is not None:
            self.event_log.alarm(alarm)
        for fn in self._alarm_listeners:
            fn(alarm)

    def _dispatch(self, time_s: float, kind: str, patient: int) -> None:
        session = self.sessions[patient]
        if kind == "admit":
            profile = session.profile
            self._emit(LiveEvent(time_s, patient, "session", {
                "admitted": True,
                "rhythm": profile.rhythm,
                "shield_worn": profile.shield_worn,
                "location_index": profile.location_index,
                "baseline_hr_bpm": round(session.base_bpm, 3),
            }))
        elif kind == "vitals":
            self._emit(LiveEvent(time_s, patient, "vitals", {
                "hr_bpm": round(session.walk.step(), 3),
                "rhythm": session.profile.rhythm,
            }))
        elif kind == "attack":
            start = time.perf_counter()
            bed = session.testbed
            packet = (
                bed.therapy_packet()
                if self.config.attack_command == "therapy"
                else bed.interrogate_packet()
            )
            outcome = bed.attack_once(packet)
            timing_observe("live.attack_trial", time.perf_counter() - start)
            self._emit(LiveEvent(time_s, patient, "attack", {
                "command": self.config.attack_command,
                "shield_worn": session.profile.shield_worn,
                "imd_accepted": outcome.imd_accepted,
                "imd_responded": outcome.imd_responded,
                "therapy_changed": outcome.therapy_changed,
                "alarm_raised": outcome.alarm_raised,
                "shield_jammed": outcome.shield_jammed,
            }))
            if outcome.shield_jammed or outcome.alarm_raised:
                # Device-side interlock state, surfaced as its own
                # event so shield transitions are streamable without
                # parsing attack outcomes.
                self._emit(LiveEvent(time_s, patient, "shield", {
                    "jammed": outcome.shield_jammed,
                    "alarm": outcome.alarm_raised,
                }))
        else:  # pragma: no cover - schedule only pushes known kinds
            raise RuntimeError(f"unknown scheduled kind {kind!r}")

    async def run(self) -> None:
        """Drain the schedule at the clock's pace (the engine's main)."""
        self._build_schedule()
        self.clock.start()
        self._wall_start = time.monotonic()
        self.running = True
        dispatched = 0
        _log.info(
            "live engine: %d patients, %.0fs horizon, %d scheduled events",
            self.config.n_patients, self.config.duration_s, self._seq,
        )
        try:
            while self._heap and not self._stop:
                time_s, _seq, kind, patient = self._pop()
                await self.clock.advance_to(time_s)
                self._dispatch(time_s, kind, patient)
                dispatched += 1
                if dispatched % _YIELD_EVERY == 0:
                    self._wall_elapsed = time.monotonic() - self._wall_start
                    await asyncio.sleep(0)
        finally:
            self.running = False
            self.finished = not self._heap
            self._wall_elapsed = time.monotonic() - self._wall_start
            timing_observe("live.run", self._wall_elapsed)
            counter_inc("live.runs")
        _log.info(
            "live engine done: %d events, %d alarms (%d suppressed), "
            "%.2fs wall",
            self.events_total, self.pipeline.fired_total,
            self.pipeline.suppressed_total, self._wall_elapsed,
        )

    # -- introspection --------------------------------------------------

    @property
    def wall_elapsed_s(self) -> float:
        if self.running and self._wall_start is not None:
            return time.monotonic() - self._wall_start
        return self._wall_elapsed

    def snapshot(self) -> dict:
        """JSON-safe engine state (the /status and gauge surface)."""
        wall = self.wall_elapsed_s
        return {
            "running": self.running,
            "finished": self.finished,
            "n_patients": self.config.n_patients,
            "duration_s": self.config.duration_s,
            "seed": self.config.seed,
            "sim_time_s": self.clock.sim_time_s,
            "speedup": self.clock.speedup,
            "behind_s": self.clock.behind_s,
            "active_sessions": len(self.sessions),
            "events_total": self.events_total,
            "events_by_kind": dict(self.events_by_kind),
            "events_per_s": (
                self.events_total / wall if wall > 0 else 0.0
            ),
            "wall_elapsed_s": wall,
            "alarms_fired": self.pipeline.fired_total,
            "alarms_by_rule": dict(self.pipeline.fired_by_rule),
            "alarms_suppressed": self.pipeline.suppressed_total,
        }
