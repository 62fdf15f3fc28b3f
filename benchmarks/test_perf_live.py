"""Throughput benchmarks of the live monitoring engine.

The acceptance bar for the live subsystem is sustained dispatch: a
ward-scale cohort at speedup 100 is 10,000 events per simulated-second
batch, so the engine's *unpaced* drain rate (TestClock -- pure
dispatch cost, no pacing sleeps) must sit comfortably above that.
Three entries pin it:

* ``live_engine_drain`` -- events/sec of the bare engine + alarm
  pipeline + event log, single process;
* ``live_fanout_100_subscribers`` -- hub flush cost with 100 bounded
  subscriber queues attached: the per-flush coalesced frame must stay
  one shared bytes object, so fan-out scales as pointer appends.

* ``live_canonical_vitals`` -- the canonical line of 1,000 telemetry
  ticks, the event log's per-event cost on nearly every event.

All three ride ``BENCH_baseline.json`` and ``compare.py``'s gate like
every other hot path.
"""

import asyncio

from repro.live.clock import TestClock
from repro.live.engine import LiveConfig, LiveEngine
from repro.live.events import EventLog, LiveEvent, canonical_line
from repro.live.serve import BroadcastHub
from repro.physio.ecg import RHYTHM_CLASSES

#: Ward-scale drain workload: 100 patients x 120 ticks plus bursts --
#: ~12k events per run, dominated by the vitals hot path.
_DRAIN_CONFIG = LiveConfig(
    n_patients=100,
    duration_s=120.0,
    telemetry_interval_s=1.0,
    attack_bursts=2,
    seed=17,
)


def test_perf_live_engine_drain(benchmark):
    """Unpaced dispatch: engine + alarms + canonical log, one core."""

    def run():
        engine = LiveEngine(
            _DRAIN_CONFIG, clock=TestClock(), event_log=EventLog()
        )
        asyncio.run(engine.run())
        return engine

    engine = benchmark(run)
    assert engine.finished
    assert engine.events_total > 12_000
    # The hard floor from the issue: >= 10k events/sec sustained.
    assert engine.snapshot()["events_per_s"] > 10_000


def test_perf_live_fanout_100_subscribers(benchmark):
    """Hub flush with 100 attached subscribers (frames/sec surrogate).

    One flush coalesces a full ward's vitals into one shared frame and
    offers it to every queue; at the default 10 Hz flush cadence the
    per-flush budget is 100 ms, and this path must be orders of
    magnitude under it.
    """
    hub = BroadcastHub()
    subscribers = [hub.subscribe() for _ in range(100)]
    events = [
        LiveEvent(float(i), i, "vitals", {"hr_bpm": 70.0 + i * 0.1})
        for i in range(100)
    ]

    def run():
        for event in events:
            hub.on_event(event)
        return hub.flush()

    delivered = benchmark(run)
    assert delivered == 100
    assert all(sub.frames for sub in subscribers)


def test_perf_live_canonical_vitals(benchmark):
    """Canonical lines of 1,000 vitals ticks (the event log's hot path)."""
    events = [
        LiveEvent(0.7 * i / 3, i % 500, "vitals", {
            "hr_bpm": round(60.0 + (i * 0.37) % 90, 3),
            "rhythm": RHYTHM_CLASSES[i % len(RHYTHM_CLASSES)],
        })
        for i in range(1000)
    ]

    lines = benchmark(lambda: [event.canonical() for event in events])
    assert lines == [canonical_line(e.to_payload()) for e in events]
