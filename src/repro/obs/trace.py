"""Span-based structured tracing: one JSONL file per campaign run.

A traced run writes ``<cache>/runs/<run_id>/trace.jsonl``: the first
line is the *run manifest* (what ran, configured how, at which
versions), every following line one event.  Events are flat JSON
objects with two reserved fields -- ``type`` and ``t`` (seconds since
the manifest, monotonic) -- so the file streams through ``jq`` and
loads line-by-line without a schema library:

``manifest``
    scenario name/hash/kind, seed, trial budget, grid size, plan size,
    the role's execution config (worker count and forced-serial fact,
    or worker id and lease), cache backend and root,
    schema/package versions, git revision, ISO start time.
``unit``
    one span per work unit: cache ``status`` (hit / reused /
    computed), queue -> execute -> flush stage durations, worker pid,
    payload bytes, and the unit's plan coordinates.
``phase``
    a named run phase (plan, enqueue, wait, execute, reduce) with its
    duration.
``metrics``
    the run's merged :class:`~repro.obs.metrics.ObsAccumulator`
    payload (per-unit deltas + the process's own counters); unit spans
    carry no metrics of their own.
``summary``
    totals: wall seconds, unit counts by status, executed seconds.

Campaign code writes these events through
:class:`~repro.obs.observer.RunObserver`, never through the tracer
directly.

Tracing is opt-in (``--trace`` or ``REPRO_TRACE=1``) and write-only:
nothing here feeds back into cache keys, RNG streams, or results -- a
traced run is bit-identical to an untraced one (test-enforced).  The
manifest line is flushed immediately so ``repro report`` can identify
an in-flight run; span lines ride OS buffering and flush at
:meth:`Tracer.finish` (an interrupted trace loses at most its tail,
never the manifest).
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import subprocess
import time
from pathlib import Path

__all__ = [
    "TRACE_ENV",
    "TRACE_SCHEMA_VERSION",
    "TRACE_FILENAME",
    "Tracer",
    "git_revision",
    "resolve_tracing",
    "runs_root",
]

#: Environment variable enabling tracing (the CLI flag wins over it).
TRACE_ENV = "REPRO_TRACE"

#: Bumped whenever an event type or reserved field changes meaning.
TRACE_SCHEMA_VERSION = 1

#: The trace file's name inside its run directory.
TRACE_FILENAME = "trace.jsonl"

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def resolve_tracing(flag: bool | None = None) -> bool:
    """Whether a run should trace (flag > ``REPRO_TRACE`` > off)."""
    if flag is not None:
        return bool(flag)
    raw = os.environ.get(TRACE_ENV, "").strip().lower()
    if not raw:
        return False
    if raw in _TRUTHY:
        return True
    if raw in _FALSY:
        return False
    raise ValueError(
        f"{TRACE_ENV} must be one of {_TRUTHY + _FALSY}, got {raw!r}"
    )


def runs_root(cache_root: Path | str) -> Path:
    """Where a cache root keeps its run traces."""
    return Path(cache_root) / "runs"


def git_revision() -> str | None:
    """The working tree's short git revision, or None outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else None


class Tracer:
    """Append-only JSONL event emitter for one campaign run.

    Parameters
    ----------
    cache_root:
        The campaign cache root; traces live under ``runs/`` beside
        the result store.
    scenario_name:
        Prefixes the run id, so ``runs/`` listings read by eye and
        ``repro report <scenario>`` finds its runs without opening
        every manifest.
    run_id:
        Explicit id (tests, external orchestration); by default
        ``<scenario>-<UTC timestamp>-<pid>``, suffixed if the
        directory already exists.
    """

    def __init__(
        self,
        cache_root: Path | str,
        scenario_name: str,
        run_id: str | None = None,
    ):
        self.cache_root = Path(cache_root)
        root = runs_root(cache_root)
        if run_id is None:
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            run_id = f"{scenario_name}-{stamp}-{os.getpid()}"
        run_dir = root / run_id
        suffix = 1
        while run_dir.exists():
            suffix += 1
            run_dir = root / f"{run_id}-{suffix}"
        self.run_id = run_dir.name
        self.run_dir = run_dir
        self.path = run_dir / TRACE_FILENAME
        self.scenario_name = scenario_name
        self._file = None
        self._t0: float | None = None
        self._finished = False

    # -- lifecycle -----------------------------------------------------

    def start_run(self, manifest: dict) -> None:
        """Open the trace and write the manifest as its first line."""
        if self._file is not None:
            raise RuntimeError(f"trace {self.run_id} already started")
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8")
        self._t0 = time.monotonic()
        event = {
            "type": "manifest",
            "t": 0.0,
            "run_id": self.run_id,
            "trace_schema": TRACE_SCHEMA_VERSION,
            "started_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            **manifest,
        }
        self._write(event)
        # The manifest identifies the run for `repro report` even if
        # the process dies mid-campaign; make it durable immediately.
        self._file.flush()

    def emit(self, event_type: str, **fields) -> None:
        """Append one event (no-op after :meth:`finish`)."""
        if self._file is None or self._finished:
            return
        self._write({"type": event_type, "t": self.elapsed(), **fields})

    def finish(self, **summary) -> None:
        """Write the summary event and close the file (idempotent)."""
        if self._file is None or self._finished:
            return
        self._write(
            {"type": "summary", "t": self.elapsed(), "wall_s": self.elapsed(),
             **summary}
        )
        self._finished = True
        self._file.flush()
        self._file.close()
        self._file = None
        # Index the finished run in the cross-run history so `repro
        # history` and `repro diff` see it without a separate step.
        # Best-effort: a failed record must never fail the run whose
        # results are already safely on disk.
        try:
            from repro.obs.history import record_run

            record_run(self.cache_root, self.run_dir)
        except Exception:
            pass

    @property
    def started(self) -> bool:
        """Whether :meth:`start_run` already wrote the manifest."""
        return self._t0 is not None

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` already closed this trace."""
        return self._finished

    def elapsed(self) -> float:
        """Seconds since the manifest (0.0 before :meth:`start_run`)."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    def _write(self, event: dict) -> None:
        self._file.write(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        )

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception still produces a readable (if summary-less
        # beyond this point) trace: close whatever was buffered.
        self.finish(interrupted=exc_type is not None)
