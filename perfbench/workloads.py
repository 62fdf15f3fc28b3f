"""The benchmark's four workloads: inputs from a seed, one timed
repetition each, and the checks that judge its outputs.

Every workload is a closed loop with one client: one process runs its
scenarios back to back, serially, through public ``repro`` APIs only
(the scenario registry, :class:`CampaignRunner`, :func:`run_worker` and
:class:`LiveEngine`).  The seed reaches the program as ``Scenario.seed``
or ``LiveConfig.seed``; nothing else about the inputs varies with it.

Each repetition plans afresh: a physio work-unit spec holds a live
``SeedSequence`` that evaluation mutates, so re-evaluating a planned
spec would give different numbers.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.campaigns import registry
from repro.campaigns.runner import CampaignRunner, plan_scenario_units
from repro.campaigns.worker import run_worker
from repro.live.clock import TestClock
from repro.live.engine import LiveConfig, LiveEngine
from repro.live.events import EventLog
from repro.live.serve import BroadcastHub
from repro.stats.expectations import evaluate_expectation
from repro.stats.validation import cells_from_result

#: Every registered scenario of the event-level (attack), waveform
#: (passive_ber) and multi-antenna (mimo) kinds, plus the fleet attack
#: cohort at 1,000 patients.
_QUEUE_SCENARIOS = (
    "attack-success-shielded",
    "attack-success-unshielded",
    "battery-drain-shielded",
    "battery-drain-unshielded",
    "crypto-only-baseline",
    "highpower-shielded",
    "highpower-unshielded",
    "mimo-eavesdropper",
    "passive-ber-by-location",
    "fleet-attack-prevalence",
)

#: Scenario overrides per size.  ``full`` is the benchmark, sized so
#: one repetition takes about 2 s on a 2-vCPU VM: a run then holds a
#: dozen repetitions, and their median rides out the host's bursts of
#: slowness.  ``tiny`` keeps every layer reachable at a few seconds per
#: run, for tests.
_CAMPAIGNS = {
    "full": {
        "physio-leakage": (
            ("physio-leakage-shielded", {"n_trials": 25}),
            ("physio-leakage-by-location", {"n_trials": 6}),
        ),
        "fleet-privacy": (("fleet-privacy-leakage", {}),),
        "attack-queue": tuple(
            (name, {"n_patients": 1000})
            if name == "fleet-attack-prevalence"
            else (name, {})
            for name in _QUEUE_SCENARIOS
        ),
    },
    "tiny": {
        "physio-leakage": (
            ("physio-leakage-shielded",
             {"location_indices": (1,), "n_trials": 4}),
            ("physio-leakage-by-location",
             {"location_indices": (1, 17), "n_trials": 2}),
        ),
        "fleet-privacy": (("fleet-privacy-leakage", {"n_patients": 12}),),
        "attack-queue": (
            ("attack-success-shielded",
             {"location_indices": (1, 12), "n_trials": 2}),
            ("highpower-unshielded",
             {"location_indices": (1, 18), "n_trials": 2}),
            ("mimo-eavesdropper", {"n_trials": 1}),
            ("passive-ber-by-location",
             {"location_indices": (1, 2), "n_trials": 3}),
            ("fleet-attack-prevalence", {"n_patients": 30}),
        ),
    },
}

#: The live ward per size: patients x seconds at 1 Hz plus attack bursts.
_WARDS = {
    "full": {"n_patients": 500, "duration_s": 100.0, "attack_bursts": 20},
    "tiny": {"n_patients": 40, "duration_s": 30.0, "attack_bursts": 2},
}

#: Confidence at which golden expectations are judged.  At the table's
#: own 0.95, transition-region cells (e.g. 4/25 attack wins at location
#: 10 of the bare IMD) refute on about 4% of seeds; at 0.999 none of
#: 200 seeds did, while a broken shield or simulator still refutes.
EXPECTATION_CONFIDENCE = 0.999

#: Engine events between two hub flushes: the ~100 ms flush cadence at
#: 10k events/s.
FLUSH_EVERY_EVENTS = 1000
SUBSCRIBERS = 2

WORKLOADS = ("physio-leakage", "fleet-privacy", "attack-queue", "live-ward")
SIZES = tuple(_WARDS)


@dataclass
class Repetition:
    """What one timed repetition measured and what its checks found.

    An operation is a work unit, or a dispatched event on the live ward.
    Any problem -- a raise or a failed check -- fails every operation of
    the repetition.
    """

    wall_s: float = 0.0
    #: attack-queue's warm reduce; 0 elsewhere.
    warm_s: float = 0.0
    attempted: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    #: live-ward's frames drained per frame offered; 0 elsewhere.
    delivered_ratio: float = 0.0

    def fail(self, problem: str) -> None:
        self.problems.append(problem)


def scenarios(workload: str, seed: int, size: str) -> list:
    """The workload's scenarios, seeded (campaign workloads only)."""
    return [
        registry.get(name).override(seed=seed, **changes)
        for name, changes in _CAMPAIGNS[size][workload]
    ]


def live_config(seed: int, size: str) -> LiveConfig:
    return LiveConfig(seed=seed, **_WARDS[size])


def plan(workload: str, seed: int, size: str):
    """The set-up step ``setup_s`` times: plan every unit, or construct
    the live engine."""
    if workload == "live-ward":
        return LiveEngine(
            live_config(seed, size), clock=TestClock(), event_log=EventLog()
        )
    return [plan_scenario_units(s) for s in scenarios(workload, seed, size)]


def run_once(workload: str, seed: int, size: str, scratch: Path) -> Repetition:
    """One timed repetition of ``workload``, checked."""
    if workload == "live-ward":
        return _run_ward(seed, size)
    if workload == "attack-queue":
        return _run_queue(scenarios(workload, seed, size), scratch)
    return _run_in_memory(scenarios(workload, seed, size))


def points_digest(points: list[dict]) -> str:
    """Canonical sha256 of a campaign's reduced points."""
    canonical = json.dumps(
        points, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _report_exception(label: str) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{label} raised {sys.exc_info()[1]!r}"


def _check_result(rep: Repetition, result) -> None:
    """Digest the reduced points; a refuted golden expectation fails."""
    name = result.scenario.name
    rep.digests[name] = points_digest(result.points)
    cells = cells_from_result(result)
    for expectation in registry.expectations_for(name):
        outcome = evaluate_expectation(
            expectation, cells, confidence=EXPECTATION_CONFIDENCE
        )
        if outcome.verdict == "fail":
            rep.fail(f"{name}: refuted {expectation.describe()}")


def _run_campaigns(rep: Repetition, scenario_list, cache_root=None):
    """``CampaignRunner.run()`` on each scenario, serially.

    Without ``cache_root`` every run is in memory (``persist=False``);
    with it, scenario ``name`` reads the SQLite store under
    ``cache_root / name``.  Returns the results and the seconds spent.
    """
    results, seconds = [], 0.0
    for scenario in scenario_list:
        start = perf_counter()
        try:
            if cache_root is None:
                runner = CampaignRunner(
                    scenario, persist=False, workers=1, progress=False
                )
            else:
                runner = CampaignRunner(
                    scenario,
                    cache_dir=cache_root / scenario.name,
                    cache_backend="sqlite",
                    workers=1,
                    progress=False,
                )
            results.append(runner.run())
        except Exception:
            rep.attempted += len(plan_scenario_units(scenario))
            rep.fail(_report_exception(scenario.name))
        finally:
            seconds += perf_counter() - start
    rep.attempted += sum(result.total_units for result in results)
    return results, seconds


def _run_in_memory(scenario_list) -> Repetition:
    """Serial in-memory campaigns, back to back."""
    rep = Repetition()
    results, rep.wall_s = _run_campaigns(rep, scenario_list)
    for result in results:
        _check_result(rep, result)
    return rep


def _run_queue(scenario_list, scratch: Path) -> Repetition:
    """Cold: an in-process worker drains each scenario's queue into a
    fresh SQLite cache root.  Warm: a cached ``CampaignRunner.run()``
    reduces each scenario from that store."""
    rep = Repetition()
    root = Path(tempfile.mkdtemp(prefix="queue-", dir=scratch))
    computed: dict[str, int] = {}
    try:
        for scenario in scenario_list:
            start = perf_counter()
            try:
                stats = run_worker(
                    scenario,
                    cache_dir=root / scenario.name,
                    cache_backend="sqlite",
                    worker_id="perfbench",
                    poll_s=0.05,
                    idle_timeout_s=30.0,
                    progress=False,
                )
                computed[scenario.name] = stats.computed
            except Exception:
                rep.fail(_report_exception(f"worker on {scenario.name}"))
            finally:
                rep.wall_s += perf_counter() - start
        results, rep.warm_s = _run_campaigns(rep, scenario_list, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for result in results:
        name = result.scenario.name
        if computed.get(name) != result.total_units:
            rep.fail(
                f"{name}: worker computed {computed.get(name)} of "
                f"{result.total_units} units"
            )
        if result.computed_units:
            rep.fail(
                f"{name}: warm reduce recomputed {result.computed_units} units"
            )
        _check_result(rep, result)
    return rep


async def _drain(subscriber) -> int:
    """Read a subscriber's frames until it is closed; count them."""
    received = 0
    while True:
        received += len(await subscriber.next_frames())
        if subscriber.closed and not subscriber.frames:
            return received


def _flush_every(hub: BroadcastHub, events: int):
    """An engine listener that flushes ``hub`` every ``events`` events."""
    seen = 0

    def listener(_event) -> None:
        nonlocal seen
        seen += 1
        if seen % events == 0:
            hub.flush()

    return listener


async def _drive_ward(engine: LiveEngine, hub: BroadcastHub):
    subscribers = [hub.subscribe() for _ in range(SUBSCRIBERS)]
    drains = [asyncio.create_task(_drain(sub)) for sub in subscribers]
    start = perf_counter()
    try:
        await engine.run()
    finally:
        wall = perf_counter() - start
        for sub in subscribers:
            sub.close()
        received = await asyncio.gather(*drains)
    return wall, sum(received)


def _run_ward(seed: int, size: str) -> Repetition:
    """A drained ``LiveEngine`` under ``TestClock`` with an event log
    and a two-subscriber hub."""
    rep = Repetition()
    engine = LiveEngine(
        live_config(seed, size), clock=TestClock(), event_log=EventLog()
    )
    hub = BroadcastHub()
    hub.attach(engine)
    engine.add_event_listener(_flush_every(hub, FLUSH_EVERY_EVENTS))
    try:
        rep.wall_s, received = asyncio.run(_drive_ward(engine, hub))
    except Exception:
        rep.attempted = max(engine.events_total, 1)
        rep.fail(_report_exception("live engine"))
        return rep
    rep.attempted = engine.events_total
    rep.delivered_ratio = (
        received / hub.frames_sent if hub.frames_sent else 0.0
    )
    if not engine.finished:
        rep.fail("live engine did not drain its schedule")
    rep.digests["event-log"] = engine.event_log.digest()
    return rep
