"""One observer per run: unit events to the trace, progress and metrics.

The in-process runner, the distributed coordinator and every queue
worker report a run through one :class:`RunObserver`: the manifest once
the plan is known, each named phase, each unit found in the cache and
each unit computed with its :func:`~repro.obs.metrics.observed_call`
envelope.  The observer sends every event to the run's
:class:`~repro.obs.trace.Tracer`, its
:class:`~repro.obs.progress.ProgressPublisher` and one merged
:class:`~repro.obs.metrics.ObsAccumulator`, so all three roles write
the same span shapes and count every unit's metrics.

As a context manager it always closes the run the same way: a final
progress snapshot, the ``metrics`` event, then the summary
(``interrupted: true`` when the block raised).  Without a tracer and a
publisher every call is a no-op, so call sites need no guards.
"""

from __future__ import annotations

import json
import platform

import numpy as np

from repro.obs.metrics import ObsAccumulator, take_global
from repro.obs.progress import ProgressPublisher
from repro.obs.trace import Tracer, git_revision

__all__ = ["RunObserver"]


class RunObserver:
    """Where one run's events go: its trace, its progress, its metrics.

    ``tracer`` may be ``None`` or already finished (nothing is traced);
    one not yet started marks a fresh run, so the process-local metrics
    recorded before it are dropped.  ``publisher`` may be ``None``.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        publisher: ProgressPublisher | None = None,
    ):
        if tracer is not None and tracer.finished:
            tracer = None
        self.tracer = tracer
        self.publisher = publisher
        self.metrics = ObsAccumulator()
        self._ending: tuple[str, dict] | None = None
        if tracer is not None and not tracer.started:
            # Metrics accumulated before this run (imports, other
            # campaigns in-process) are not this run's story.
            take_global()

    @classmethod
    def for_run(
        cls,
        scenario,
        tracer: Tracer | None,
        store,
        source: str,
        role: str,
        workers: int | None = None,
    ) -> "RunObserver":
        """An observer that publishes progress through ``store``, or
        publishes nothing when ``store`` is ``None``."""
        observer = cls(tracer)
        if store is not None:
            tracer = observer.tracer
            observer.publisher = ProgressPublisher(
                store,
                scenario.scenario_hash(),
                source,
                role=role,
                scenario=scenario.name,
                run_id=tracer.run_id if tracer is not None else None,
                workers=workers,
            )
        return observer

    # -- run events ----------------------------------------------------

    def start(self, scenario, total_units: int, **fields) -> None:
        """Write the run manifest: the scenario, the plan size, the
        role's ``fields`` and the versions the run used.  A tracer that
        already holds a manifest keeps it, so a later call (an adaptive
        run's next round) only sets the total progress reports."""
        if self.publisher is not None:
            self.publisher.total_units = total_units
        if self.tracer is None or self.tracer.started:
            return
        from repro import __version__ as package_version
        from repro.campaigns.spec import SCHEMA_VERSION

        self.tracer.start_run({
            "scenario": scenario.name,
            "scenario_hash": scenario.scenario_hash(),
            "kind": scenario.kind,
            "seed": scenario.seed,
            "n_trials": scenario.n_trials,
            "grid_size": scenario.grid_size(),
            "total_units": total_units,
            **fields,
            "schema_version": SCHEMA_VERSION,
            "package_version": package_version,
            "git_revision": git_revision(),
            "python_version": platform.python_version(),
            "numpy_version": np.__version__,
        })

    def phase(self, name: str, seconds: float, **fields) -> None:
        """A named run phase (plan, enqueue, wait, execute, reduce)."""
        if self.tracer is not None:
            self.tracer.emit("phase", name=name, seconds=seconds, **fields)

    def progress(
        self, phase: str, done: int | None = None, reused: int | None = None
    ) -> None:
        """Enter a progress phase (published subject to the throttle).

        ``done``/``reused`` set the counts of a participant that sees
        units complete elsewhere instead of computing them.
        """
        if self.publisher is None:
            return
        if done is not None:
            self.publisher.done_units = done
        if reused is not None:
            self.publisher.reused_units = reused
        self.publisher.publish(phase=phase)

    def hit(self, unit, status: str = "hit", **fields) -> None:
        """A unit already cached: a runner's ``hit`` or a worker's
        ``reused`` claim."""
        if self.tracer is not None:
            self.tracer.emit(
                "unit", key=unit.key, coords=unit.coords, status=status,
                **fields,
            )
        if self.publisher is not None:
            self.publisher.advance(done=1, reused=1)

    def computed(self, unit, envelope: dict, flush_s: float, **fields):
        """A unit evaluated for this run: its :func:`observed_call`
        envelope and the seconds spent persisting its result."""
        if self.tracer is not None:
            obs = envelope["obs"]
            self.metrics.merge_payload(obs["metrics"])
            self.tracer.emit(
                "unit",
                key=unit.key,
                coords=unit.coords,
                status="computed",
                exec_s=obs["exec_s"],
                flush_s=flush_s,
                pid=obs["pid"],
                result_bytes=len(json.dumps(
                    envelope["result"], sort_keys=True, separators=(",", ":")
                )),
                **fields,
            )
        if self.publisher is not None:
            self.publisher.advance(done=1, computed=1)

    def finish(self, phase: str = "done", **summary) -> None:
        """Record how the run ended, written when the observer closes:
        the closing progress phase and the trace summary's fields (kept
        beside ``interrupted`` if the block raises afterwards)."""
        self._ending = (phase, summary)

    # -- context manager -----------------------------------------------

    def __enter__(self) -> "RunObserver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        interrupted = exc_type is not None
        phase, summary = self._ending or (
            "interrupted" if interrupted else "done", {}
        )
        if self.publisher is not None:
            self.publisher.finish(phase=phase)
        if self.tracer is not None:
            # Unit deltas rode back per unit; fold in whatever this
            # process recorded outside them (cache scans, puts, queue).
            self.metrics.merge_payload(take_global())
            self.tracer.emit("metrics", metrics=self.metrics.to_payload())
            if interrupted:
                summary = {**summary, "interrupted": True}
            self.tracer.finish(**summary)
