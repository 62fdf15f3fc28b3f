"""Trace analysis behind ``python -m repro report``.

Reads the JSONL traces :class:`~repro.obs.trace.Tracer` writes and
reduces them to the questions a run diagnosis starts with: where did
the time go (per-stage latency percentiles), did the cache work (hit
rate), did the workers work (utilization), what moved (bytes), and
which units to look at first (slowest).  Pure functions over parsed
events -- the CLI wraps them in a table, tests call them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.trace import TRACE_FILENAME, runs_root

__all__ = ["RunInfo", "find_runs", "load_trace", "summarize_run"]

#: The per-unit stage durations a unit span may carry, in pipeline
#: order.  ``load`` is the cache-hit path; the other three are the
#: computed path's queue -> execute -> flush pipeline.
STAGES = ("queue", "execute", "flush", "load")

_STAGE_FIELDS = {
    "queue": "queue_s",
    "execute": "exec_s",
    "flush": "flush_s",
    "load": "load_s",
}


@dataclass(frozen=True)
class RunInfo:
    """One discovered run: its id, trace path, and parsed manifest."""

    run_id: str
    path: Path
    manifest: dict


def _read_manifest(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
        event = json.loads(line)
    except (OSError, ValueError):
        return None
    if not isinstance(event, dict) or event.get("type") != "manifest":
        return None
    return event


def find_runs(
    cache_root: Path | str, scenario: str | None = None
) -> list[RunInfo]:
    """Every readable run under a cache root, oldest first.

    ``scenario`` filters by the manifest's scenario name.  Ordering is
    by the manifest's ISO start time (lexicographic == chronological),
    so ``find_runs(...)[-1]`` is the run ``repro report`` shows by
    default.
    """
    root = runs_root(cache_root)
    runs: list[RunInfo] = []
    if not root.is_dir():
        return runs
    for run_dir in sorted(root.iterdir()):
        manifest = _read_manifest(run_dir / TRACE_FILENAME)
        if manifest is None:
            continue
        if scenario is not None and manifest.get("scenario") != scenario:
            continue
        runs.append(
            RunInfo(run_dir.name, run_dir / TRACE_FILENAME, manifest)
        )
    runs.sort(key=lambda r: (r.manifest.get("started_at", ""), r.run_id))
    return runs


def load_trace(path: Path | str) -> tuple[dict, list[dict]]:
    """Parse one trace file into (manifest, events).

    Unreadable lines are skipped, never fatal: a run killed mid-write
    may leave a truncated tail, and the whole point of the trace is
    diagnosing exactly such runs.
    """
    manifest: dict = {}
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if not isinstance(event, dict):
                continue
            if event.get("type") == "manifest" and not manifest:
                manifest = event
            else:
                events.append(event)
    if not manifest:
        raise ValueError(f"{path} has no manifest line")
    return manifest, events


def _stage_summary(samples: list[float]) -> dict:
    values = np.asarray(samples, dtype=float)
    return {
        "count": int(values.size),
        "total_s": float(values.sum()),
        "p50_s": float(np.percentile(values, 50)),
        "p90_s": float(np.percentile(values, 90)),
        "p99_s": float(np.percentile(values, 99)),
        "max_s": float(values.max()),
    }


def summarize_run(
    manifest: dict, events: list[dict], slowest: int = 5
) -> dict:
    """Reduce one run's events to the report payload.

    Returns a JSON-ready dict: ``stages`` (latency percentiles per
    pipeline stage), ``cache`` (hit/computed counts and hit rate),
    ``workers`` (observed pids, busy seconds, utilization against the
    execute phase's wall time), ``bytes`` (result payload bytes moved),
    ``slowest`` (the worst units by execute seconds), ``metrics`` (the
    run's merged counters/timings), and ``summary`` (the tracer's
    closing totals, absent for an interrupted trace).
    """
    units = [e for e in events if e.get("type") == "unit"]
    # An adaptive run repeats plan/execute once per round: sum them.
    phase_s: dict[str, float] = {}
    for e in events:
        if e.get("type") == "phase":
            seconds = float(e.get("seconds", 0.0))
            phase_s[e.get("name")] = phase_s.get(e.get("name"), 0.0) + seconds
    metrics_events = [e for e in events if e.get("type") == "metrics"]
    summary_events = [e for e in events if e.get("type") == "summary"]

    stages: dict[str, dict] = {}
    for stage in STAGES:
        field = _STAGE_FIELDS[stage]
        samples = [
            float(u[field]) for u in units if u.get(field) is not None
        ]
        if samples:
            stages[stage] = _stage_summary(samples)

    # "reused" is a worker's cache hit: the unit was already persisted
    # when it was claimed, so for hit-rate purposes it counts as one.
    hits = sum(1 for u in units if u.get("status") in ("hit", "reused"))
    computed = sum(1 for u in units if u.get("status") == "computed")
    total = len(units)

    busy_by_pid: dict[int, float] = {}
    per_worker: dict[str, dict] = {}
    for u in units:
        if u.get("status") != "computed":
            continue
        if u.get("pid") is not None:
            pid = int(u["pid"])
            busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + float(
                u.get("exec_s", 0.0)
            )
        # Distributed spans carry a worker id; single-process runs fall
        # back to the pid so the breakdown exists either way.
        label = u.get("worker") or u.get("pid")
        if label is not None:
            bucket = per_worker.setdefault(
                str(label), {"units": 0, "busy_s": 0.0}
            )
            bucket["units"] += 1
            bucket["busy_s"] += float(u.get("exec_s", 0.0))
    busy_s = sum(busy_by_pid.values())
    configured = int(manifest.get("workers", 1) or 1)
    # A --profile run ignores configured workers (forced serial); judge
    # utilization against what actually ran.
    effective = int(manifest.get("effective_workers", configured) or 1)
    execute_wall = phase_s.get("execute")
    utilization = None
    if execute_wall and execute_wall > 0 and effective > 0:
        utilization = min(1.0, busy_s / (effective * execute_wall))

    result_bytes = sum(
        int(u.get("result_bytes", 0)) for u in units
    )

    worst = sorted(
        (u for u in units if u.get("status") == "computed"),
        key=lambda u: float(u.get("exec_s", 0.0)),
        reverse=True,
    )[: max(0, slowest)]

    merged_metrics: dict = {}
    if metrics_events:
        from repro.obs.metrics import ObsAccumulator

        acc = ObsAccumulator()
        for event in metrics_events:
            acc.merge_payload(event.get("metrics", {}))
        merged_metrics = acc.to_payload()

    return {
        "run_id": manifest.get("run_id"),
        "scenario": manifest.get("scenario"),
        "scenario_hash": manifest.get("scenario_hash"),
        "manifest": manifest,
        "stages": stages,
        "cache": {
            "hits": hits,
            "computed": computed,
            "total": total,
            "hit_rate": (hits / total) if total else None,
        },
        "workers": {
            "configured": configured,
            "effective": effective,
            "observed_pids": sorted(busy_by_pid),
            "busy_s": busy_s,
            "execute_wall_s": execute_wall,
            "utilization": utilization,
            "per_worker": per_worker,
        },
        "bytes": {"results": result_bytes},
        "slowest": [
            {
                "key": u.get("key"),
                "coords": u.get("coords"),
                "exec_s": float(u.get("exec_s", 0.0)),
                "pid": u.get("pid"),
            }
            for u in worst
        ],
        "metrics": merged_metrics,
        "summary": summary_events[-1] if summary_events else None,
    }
