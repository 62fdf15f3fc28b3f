"""The campaign runner: scenarios -> work units -> cached, resumable runs.

:class:`CampaignRunner` compiles a :class:`~repro.campaigns.spec.Scenario`
into the same deterministic work plan the sweep helpers use -- one
picklable spec per (grid point, trial chunk), each carrying its own RNG
stream -- fans the pending units across a
:class:`~repro.runtime.SweepExecutor` (streaming: results are consumed
in unit order as they complete), and persists every completed unit to a
:class:`~repro.campaigns.cache.ResultCache` as soon as it finishes.
Because unit results are pure functions of (scenario payload,
plan coordinates), a re-run skips every cached unit and an interrupted
campaign resumes where it stopped; the reduction is order-independent,
so cached + fresh unit mixes reduce to *bit-identical* numbers versus an
uninterrupted serial run.

What a unit of each scenario kind is -- its plan, its evaluation, its
reduction -- is the kind's business (:mod:`repro.campaigns.kinds`); the
runner only looks the kind up.
"""

from __future__ import annotations

import cProfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.campaigns.cache import (
    ResultCache,
    check_store_name,
    default_cache_dir,
)
from repro.campaigns.kinds import KINDS, CampaignUnit, fixed_budget_only
from repro.campaigns.spec import Scenario
from repro.obs.log import get_logger
from repro.obs.metrics import observed_call
from repro.obs.observer import RunObserver
from repro.obs.progress import resolve_progress
from repro.obs.trace import Tracer
from repro.runtime import SweepExecutor

_log = get_logger("campaigns")

__all__ = [
    "CampaignRunner",
    "CampaignResult",
    "CampaignStatus",
    "CampaignUnit",
    "evaluate_unit",
    "plan_scenario_units",
]


def evaluate_unit(spec) -> dict:
    """Module-level dispatcher so every unit kind survives pickling."""
    for kind in KINDS.values():
        if type(spec) is kind.spec_type:
            return kind.evaluate(spec)
    raise TypeError(f"unknown work-unit spec {type(spec).__name__}")


# ----------------------------------------------------------------------
# Plan / status / result containers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStatus:
    """Cache completeness of one scenario."""

    scenario: str
    scenario_hash: str
    total_units: int
    cached_units: int

    @property
    def pending_units(self) -> int:
        return self.total_units - self.cached_units

    @property
    def complete(self) -> bool:
        return self.cached_units >= self.total_units


@dataclass
class CampaignResult:
    """Reduced per-grid-point results of one completed campaign."""

    scenario: Scenario
    points: list[dict]
    total_units: int
    cached_units: int
    computed_units: int

    @property
    def value_key(self) -> str:
        """The headline per-point quantity (for reports and compares)."""
        return KINDS[self.scenario.kind].headline(self.scenario)

    def point(self, axis) -> dict:
        for point in self.points:
            if point["axis"] == axis:
                return point
        raise KeyError(f"no grid point {axis!r} in {self.scenario.name}")

    def to_payload(self) -> dict:
        """JSON-ready summary of the whole campaign."""
        return {
            "scenario": self.scenario.name,
            "scenario_hash": self.scenario.scenario_hash(),
            "kind": self.scenario.kind,
            "title": self.scenario.title,
            "value_key": self.value_key,
            "points": self.points,
            "units": {
                "total": self.total_units,
                "from_cache": self.cached_units,
                "computed": self.computed_units,
            },
        }


# ----------------------------------------------------------------------
# Unit planning (shared by the runner and the adaptive scheduler)
# ----------------------------------------------------------------------


def plan_scenario_units(
    scenario: Scenario,
    positions: list[int] | None = None,
    n_trials: int | None = None,
    round_index: int | None = None,
) -> list[CampaignUnit]:
    """A scenario's deterministic work plan, in reduction order.

    With only ``scenario`` this is the full fixed-budget plan the
    campaign runner executes.  The keyword arguments carve out the round
    plans adaptive-precision execution submits instead:

    * ``positions`` restricts planning to a subset of grid cells (by
      index into :meth:`Scenario.axis_values`);
    * ``n_trials`` overrides the per-cell trial count (a round's chunk,
      not the scenario's whole budget);
    * ``round_index`` switches every unit's RNG stream to the round
      spawn-key namespace and stamps the round into its cache
      coordinates, so successive rounds extend a cell's sample with
      fresh independent trials and resume bit-identically from cache.

    Unit identity is always (cell, chunk, trial count[, round]) -- never
    which cells happened to still be active -- so two runs that plan the
    same unit get the same stream and the same cached result.
    """
    if positions is None:
        positions = list(range(scenario.grid_size()))
    trials = scenario.n_trials if n_trials is None else n_trials
    if trials < 1:
        raise ValueError(f"n_trials must be positive, got {trials}")
    kind = KINDS[scenario.kind]
    if round_index is not None and not kind.adaptive:
        raise fixed_budget_only(scenario.kind)
    return kind.plan(scenario, positions, trials, round_index)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------


class CampaignRunner:
    """Compile, execute, persist, resume, and reduce one scenario.

    Parameters
    ----------
    scenario:
        The validated spec to run.
    cache_dir:
        Cache root; ``None`` uses ``REPRO_CACHE_DIR`` /
        ``.repro-cache``.  Ignored when ``persist=False``.
    workers:
        Worker processes for pending units (``None`` defers to
        ``REPRO_WORKERS``; serial by default).  Worker count never
        changes the numbers -- only how fast pending units fill in.
    persist:
        ``False`` runs fully in memory (examples, throwaway grids): no
        cache reads, no writes.
    cache_backend:
        Kept for compatibility: only ``None`` or ``"sqlite"``, the one
        store; any other value raises :class:`ValueError`.
    profile:
        Wrap pending-unit evaluation in :mod:`cProfile` and write
        ``profiles/<scenario>.pstats`` next to the cache root when the
        run finishes.  Profiling forces the units through the serial
        in-process path (a subprocess pool would leave the profiler
        watching pickling, not the actual kernels); worker count is
        ignored for the profiled units -- the override is logged as a
        warning and recorded in the trace manifest (``forced_serial``).
        Numbers are unaffected -- serial and parallel runs are
        bit-identical by contract.
    tracer:
        A started-for-this-run :class:`~repro.obs.trace.Tracer` (or
        ``None``, the default: no tracing, no overhead).  When given,
        the run writes a manifest plus one span per work unit to
        ``runs/<run_id>/trace.jsonl`` under the tracer's root.
        Tracing never enters cache keys, RNG streams, or results: a
        traced run is bit-identical to an untraced one.
    progress:
        Whether the run publishes live progress snapshots through the
        cache's store (:mod:`repro.obs.progress`), for ``python -m
        repro top`` and metric exporters to poll.  ``None`` defers to
        ``REPRO_PROGRESS`` and defaults to on; like tracing it never
        enters cache keys, RNG streams, or results -- a progress-on
        run is bit-identical to a progress-off one.  Moot without a
        persistent cache (``persist=False``): there is no store to
        publish through.
    """

    def __init__(
        self,
        scenario: Scenario,
        cache_dir: Path | str | None = None,
        workers: int | None = None,
        persist: bool = True,
        cache_backend: str | None = None,
        profile: bool = False,
        tracer: Tracer | None = None,
        progress: bool | None = None,
    ):
        check_store_name(cache_backend)
        self.scenario = scenario
        self.executor = SweepExecutor(workers)
        self.persist = persist
        self.profile = profile
        self.profile_path: Path | None = None
        self.tracer = tracer
        self.progress = resolve_progress(progress)
        self._cache_root = Path(
            cache_dir if cache_dir is not None else default_cache_dir()
        )
        self.cache: ResultCache | None = (
            ResultCache(self._cache_root) if persist else None
        )

    # -- planning ------------------------------------------------------

    def plan(self) -> list[CampaignUnit]:
        """The scenario's deterministic work plan, in reduction order."""
        return plan_scenario_units(self.scenario)

    # -- execution -----------------------------------------------------

    def status(self) -> CampaignStatus:
        """How much of the campaign the cache already holds."""
        units = self.plan()
        cached = 0
        if self.cache is not None:
            cached = len(
                self.cache.cached_keys(self.scenario, [u.key for u in units])
            )
        return CampaignStatus(
            scenario=self.scenario.name,
            scenario_hash=self.scenario.scenario_hash(),
            total_units=len(units),
            cached_units=cached,
        )

    def run(self, force: bool = False) -> CampaignResult:
        """Run the campaign to completion and reduce it.

        Cached units are loaded, pending units computed (and persisted
        per batch, so an interrupt resumes); ``force=True`` ignores and
        overwrites existing cache entries.
        """
        with self._observer("runner") as observer:
            units, results, computed = self._execute(observer, force)
            cached = len(units) - computed
            points = self._reduce(observer, units, results)
            observer.finish(
                total_units=len(units),
                cached_units=cached,
                computed_units=computed,
            )
        return CampaignResult(
            scenario=self.scenario,
            points=points,
            total_units=len(units),
            cached_units=cached,
            computed_units=computed,
        )

    def run_distributed(
        self,
        poll_s: float = 0.5,
        wait_timeout_s: float | None = None,
    ) -> CampaignResult:
        """Coordinate the campaign through the shared work queue.

        Plans the scenario, enqueues every pending unit into the cache
        file's queue tables, then *waits* -- evaluation happens in
        ``python -m repro worker`` processes (any number, any machine
        sharing the cache root) that claim, compute, persist, and
        complete units.  Once every planned key is cached the results
        are loaded and reduced exactly like :meth:`run`: same plan,
        same unit keys, same RNG streams, so the reduced numbers are
        bit-identical to a serial run.

        ``wait_timeout_s`` bounds the wait (``None`` waits forever);
        on timeout the queue state is left intact so workers can keep
        draining it and a later coordinator can finish the reduce.
        """
        if self.cache is None:
            raise ValueError(
                "distributed execution requires a persistent cache "
                "(persist=True)"
            )
        from repro.campaigns.queue import WorkQueue

        queue = WorkQueue(self.cache.store, self.scenario.scenario_hash())
        with self._observer("coordinator") as observer:
            plan_start = time.perf_counter()
            units = self.plan()
            plan_seconds = time.perf_counter() - plan_start
            keys = [u.key for u in units]
            cached = self.cache.cached_keys(self.scenario, keys)
            pending = [u for u in units if u.key not in cached]
            enqueue_start = time.perf_counter()
            enqueued = queue.enqueue(pending)
            enqueue_seconds = time.perf_counter() - enqueue_start
            observer.start(
                self.scenario, len(units),
                **self._manifest_fields(forced_serial=False),
                distributed=True,
            )
            observer.phase("plan", plan_seconds, units=len(units))
            observer.phase(
                "enqueue", enqueue_seconds, units=len(pending), new=enqueued
            )
            _log.info(
                "distributed %s: %d units planned, %d cached, %d queued "
                "(%d newly); start workers with: python -m repro worker %s "
                "--cache-dir %s",
                self.scenario.name, len(units), len(cached), len(pending),
                enqueued, self.scenario.name, self._cache_root,
            )
            wait_start = time.perf_counter()
            done = set(cached)
            observer.progress("wait", done=len(done), reused=len(done))
            while len(done) < len(keys):
                waited = time.perf_counter() - wait_start
                if wait_timeout_s is not None and waited > wait_timeout_s:
                    observer.finish(phase="timeout")
                    counts = queue.counts()
                    raise RuntimeError(
                        f"distributed campaign {self.scenario.name} timed "
                        f"out after {waited:.0f}s: {len(keys) - len(done)} "
                        f"of {len(keys)} units pending ({counts.queued} "
                        f"queued, {counts.leased} leased); are workers "
                        f"running? (python -m repro worker "
                        f"{self.scenario.name} --cache-dir "
                        f"{self._cache_root})"
                    )
                time.sleep(poll_s)
                done = self.cache.cached_keys(self.scenario, keys)
                # The coordinator never evaluates: its "done" is
                # whatever the fleet has cached so far.
                observer.progress("wait", done=len(done))
            observer.phase(
                "wait", time.perf_counter() - wait_start, units=len(pending)
            )
            results: dict[str, dict] = {}
            for unit in units:
                result = self.cache.get(self.scenario, unit.key)
                if result is None:
                    raise RuntimeError(
                        f"unit {unit.key} of {self.scenario.name} vanished "
                        "from the cache between completion and reduce"
                    )
                results[unit.key] = result
            points = self._reduce(observer, units, results)
            observer.finish(
                total_units=len(units),
                cached_units=len(cached),
                computed_units=len(pending),
                distributed=True,
            )
        return CampaignResult(
            scenario=self.scenario,
            points=points,
            total_units=len(units),
            cached_units=len(cached),
            computed_units=len(pending),
        )

    def _observer(self, role: str) -> RunObserver:
        """This run's observer: the tracer, plus live progress through
        the cache's store when progress is on and there is a store."""
        publish = self.progress and self.cache is not None
        return RunObserver.for_run(
            self.scenario,
            self.tracer,
            self.cache.store if publish else None,
            source=role,
            role=role,
            workers=self.executor.workers,
        )

    def _manifest_fields(self, forced_serial: bool) -> dict:
        """The run manifest's execution config: resolved how."""
        return {
            "workers": self.executor.workers,
            "effective_workers": 1 if forced_serial else self.executor.workers,
            "forced_serial": forced_serial,
            "profile": self.profile,
            "cache_backend": "sqlite" if self.cache is not None else None,
            "cache_root": str(self._cache_root),
            "persist": self.persist,
        }

    def _execute(
        self, observer: RunObserver, force: bool
    ) -> tuple[list[CampaignUnit], dict[str, dict], int]:
        """Load cached units, compute and persist the rest: :meth:`run`'s
        engine, returning the plan, every unit's result and how many
        were computed."""
        plan_start = time.perf_counter()
        units = self.plan()
        plan_seconds = time.perf_counter() - plan_start
        results: dict[str, dict] = {}
        pending: list[CampaignUnit] = []
        hits: list[tuple[CampaignUnit, float]] = []
        for unit in units:
            cached = None
            if not force and self.cache is not None:
                load_start = time.perf_counter()
                cached = self.cache.get(self.scenario, unit.key)
                load_seconds = time.perf_counter() - load_start
            if cached is not None:
                results[unit.key] = cached
                hits.append((unit, load_seconds))
            else:
                pending.append(unit)
        forced_serial = bool(
            self.profile and pending and self.executor.parallel
        )
        if forced_serial:
            _log.warning(
                "--profile forces serial unit evaluation: ignoring "
                "workers=%d for %d pending unit(s) of %s",
                self.executor.workers,
                len(pending),
                self.scenario.name,
            )
        observer.start(
            self.scenario, len(units), **self._manifest_fields(forced_serial)
        )
        observer.phase("plan", plan_seconds, units=len(units))
        observer.progress("execute")
        for unit, load_seconds in hits:
            observer.hit(unit, load_s=load_seconds)
        computed = 0
        # Streaming submission: results arrive in unit order as they
        # complete, and each is flushed to the cache immediately -- an
        # interrupt loses at most the units still in flight, serial and
        # parallel alike.
        executor = self.executor
        profiler: cProfile.Profile | None = None
        if self.profile and pending:
            # Profile in-process: a pool would hide the kernels behind
            # pickling.  Serial evaluation is bit-identical by contract.
            executor = SweepExecutor(1)
            profiler = cProfile.Profile()
        execute_start = time.perf_counter()
        submit_mono = time.monotonic()
        streamed = executor.imap(
            partial(observed_call, evaluate_unit), [u.spec for u in pending]
        )
        if profiler is not None:
            profiler.enable()
        try:
            for unit, envelope in zip(pending, streamed):
                if profiler is not None:
                    profiler.disable()
                result = envelope["result"]
                flush_start = time.perf_counter()
                if self.cache is not None:
                    self.cache.put(
                        self.scenario, unit.key, unit.coords, result
                    )
                flush_seconds = time.perf_counter() - flush_start
                results[unit.key] = result
                computed += 1
                observer.computed(
                    unit, envelope, flush_seconds,
                    # monotonic clocks are comparable across processes
                    # on Linux; clamp for platforms where they are not.
                    queue_s=max(
                        0.0, envelope["obs"]["start_mono"] - submit_mono
                    ),
                )
                if profiler is not None:
                    profiler.enable()
        finally:
            if profiler is not None:
                profiler.disable()
                self.profile_path = self._dump_profile(profiler)
            observer.phase(
                "execute",
                time.perf_counter() - execute_start,
                units=len(pending),
                workers=executor.workers,
            )
        missing = [u.key for u in units if u.key not in results]
        if missing:
            raise RuntimeError(
                f"campaign incomplete: {len(missing)} units unevaluated"
            )
        return units, results, computed

    def _dump_profile(self, profiler: cProfile.Profile) -> Path:
        """Write the unit-evaluation profile next to the cache root.

        ``profiles/<scenario>.pstats`` under the cache root, loadable
        with :mod:`pstats` or snakeviz -- one file per scenario, so the
        next perf change starts from measurements instead of guesses.
        """
        profile_dir = self._cache_root / "profiles"
        profile_dir.mkdir(parents=True, exist_ok=True)
        path = profile_dir / f"{self.scenario.name}.pstats"
        profiler.dump_stats(path)
        return path

    # -- reduction -----------------------------------------------------

    def _reduce(
        self,
        observer: RunObserver,
        units: list[CampaignUnit],
        results: dict[str, dict],
    ) -> list[dict]:
        """The kind's reduction over the plan, in plan order."""
        start = time.perf_counter()
        points = KINDS[self.scenario.kind].reduce(
            self.scenario, units, [results[u.key] for u in units]
        )
        observer.phase(
            "reduce", time.perf_counter() - start, units=len(units)
        )
        return points
