"""Live campaign status behind ``python -m repro top``.

``repro top <scenario>`` watches a campaign *while it runs*: how many
planned units are cached, what the distributed queue still holds, which
leases are in flight (and which are stalled -- expired but unreaped,
the signature of a worker killed mid-unit), and what every participant
last said about itself through the progress snapshots
:mod:`repro.obs.progress` publishes.

Everything here is read-only polling of state the campaign already
maintains -- the results cache, the queue/lease tables, the progress
rows.  Watching a campaign can therefore never change it, and ``top``
works on a campaign started by any other process or machine sharing
the cache root.

:func:`scenario_status` is the pure core (dict in, dict out, clock
injectable -- tests freeze time instead of sleeping);
:func:`render_status` turns one status into plain text lines.  The CLI
loops them: a TTY gets an ANSI-refreshed screen, anything else (CI
logs, pipes) gets one plain block per poll.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.progress import DEFAULT_INTERVAL_S, read_progress

__all__ = [
    "DEFAULT_IDLE_AFTER_S",
    "TERMINAL_PHASES",
    "render_live_status",
    "render_status",
    "scenario_status",
]

#: Phases after which a participant is done and cannot be "idle".
TERMINAL_PHASES = frozenset(
    {"done", "exit", "interrupted", "idle-timeout", "timeout", "reduce"}
)

#: A live worker publishes at least every poll; a snapshot older than a
#: few publish intervals means the worker is idle-polling or gone.
DEFAULT_IDLE_AFTER_S = 3.0 * DEFAULT_INTERVAL_S


def scenario_status(
    cache,
    scenario,
    clock: Callable[[], float] = time.time,
    idle_after_s: float = DEFAULT_IDLE_AFTER_S,
) -> dict:
    """One poll's view of a campaign: units, queue, leases, snapshots.

    Parameters
    ----------
    cache:
        The :class:`~repro.campaigns.cache.ResultCache` the campaign
        writes through.
    scenario:
        The :class:`~repro.campaigns.spec.Scenario` being watched; the
        plan is re-derived here, deterministically, exactly as every
        worker derives it.
    clock:
        Wall-clock source for lease expiry and snapshot ages;
        injectable so stall tests freeze time instead of sleeping.
    idle_after_s:
        Snapshot age beyond which a non-terminal participant is
        flagged idle (its publisher has gone quiet).
    """
    # Imported lazily: campaigns imports obs (progress, metrics), so
    # the reverse dependency stays out of obs import time.
    from repro.campaigns.queue import WorkQueue
    from repro.campaigns.runner import plan_scenario_units

    units = plan_scenario_units(scenario)
    keys = [u.key for u in units]
    scenario_hash = scenario.scenario_hash()
    cached = cache.cached_keys(scenario, keys)
    now = clock()
    queue = WorkQueue(cache.store, scenario_hash, clock=clock)
    counts = queue.counts()
    leases = [
        {
            "key": lease.key,
            "worker_id": lease.worker_id,
            "acquired_at": lease.acquired_at,
            "expires_in_s": lease.expires_at - now,
            "stalled": lease.stalled,
        }
        for lease in queue.leases()
    ]
    status: dict = {
        "scenario": scenario.name,
        "scenario_hash": scenario_hash,
        "now": now,
        "total_units": len(keys),
        "cached_units": len(cached),
        "remaining_units": len(keys) - len(cached),
        "complete": len(cached) >= len(keys),
        "queue": {"queued": counts.queued, "leased": counts.leased},
        "leases": leases,
        "stalled_leases": [lease for lease in leases if lease["stalled"]],
    }
    snapshots = read_progress(cache.store, scenario_hash, now=now)
    workers = []
    others = []
    for snap in snapshots:
        phase = snap.get("phase")
        terminal = phase in TERMINAL_PHASES
        idle = (not terminal) and (
            phase == "idle" or float(snap.get("age_s", 0.0)) > idle_after_s
        )
        row = dict(snap, terminal=terminal, idle=idle)
        if snap.get("role") == "worker":
            workers.append(row)
        else:
            others.append(row)
    status["workers"] = workers
    status["runners"] = others
    status["idle_workers"] = [
        w["source"] for w in workers if w["idle"]
    ]
    return status


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = float(seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def _snapshot_line(snap: dict) -> str:
    flags = []
    if snap.get("idle"):
        flags.append("IDLE")
    if snap.get("terminal"):
        flags.append("exited")
    flag_text = f"  [{', '.join(flags)}]" if flags else ""
    rate = float(snap.get("rate_units_per_s") or 0.0)
    return (
        f"  {snap.get('source', '?'):<24} {snap.get('phase', '?'):<12} "
        f"done {snap.get('done_units', 0)}/{snap.get('total_units', 0)} "
        f"(new {snap.get('computed_units', 0)}, "
        f"reused {snap.get('reused_units', 0)}, "
        f"failed {snap.get('failed_units', 0)})  "
        f"{rate:.2f} u/s  eta {_fmt_eta(snap.get('eta_s'))}  "
        f"age {float(snap.get('age_s', 0.0)):.1f}s{flag_text}"
    )


def render_status(status: dict) -> list[str]:
    """One poll's status as plain text lines (no ANSI, no truncation)."""
    pct = (
        100.0 * status["cached_units"] / status["total_units"]
        if status["total_units"]
        else 100.0
    )
    lines = [
        (
            f"campaign {status['scenario']} "
            f"[{status['scenario_hash'][:12]}]  "
            f"units {status['cached_units']}/{status['total_units']} "
            f"cached ({pct:.0f}%)"
            + ("  COMPLETE" if status["complete"] else "")
        )
    ]
    queue = status["queue"]
    lines.append(
        f"queue: {queue['queued']} queued, {queue['leased']} leased, "
        f"{len(status['stalled_leases'])} stalled"
    )
    workers = status.get("workers") or []
    runners = status.get("runners") or []
    if workers:
        lines.append(f"workers ({len(workers)}):")
        lines.extend(_snapshot_line(snap) for snap in workers)
    if runners:
        lines.append("runners:")
        lines.extend(_snapshot_line(snap) for snap in runners)
    if not workers and not runners:
        lines.append("no progress snapshots yet")
    for lease in status["leases"]:
        if lease["stalled"]:
            lines.append(
                f"STALLED lease {lease['key'][:12]} held by "
                f"{lease['worker_id']} (expired "
                f"{-lease['expires_in_s']:.0f}s ago; re-queued at next "
                f"claim)"
            )
    for source in status.get("idle_workers") or []:
        lines.append(f"IDLE worker {source}: no fresh snapshot")
    return lines


def render_live_status(snapshot: dict) -> list[str]:
    """A live-engine snapshot as plain text lines (``repro top --live``).

    ``snapshot`` is what the live server's ``/status`` endpoint returns
    (:meth:`repro.live.serve.LiveServer.snapshot`): the engine state
    merged with the streaming-layer fields.  Streaming fields are
    optional so a bare engine snapshot renders too.
    """
    speedup = snapshot.get("speedup")
    pacing = (
        "as-fast-as-possible"
        if speedup is None
        else f"speedup x{speedup:g}"
    )
    state = (
        "RUNNING" if snapshot.get("running")
        else "FINISHED" if snapshot.get("finished")
        else "STOPPED"
    )
    lines = [
        (
            f"live engine {state}  "
            f"{snapshot.get('active_sessions', 0)} sessions  "
            f"sim t={snapshot.get('sim_time_s', 0.0):.1f}s"
            f"/{snapshot.get('duration_s', 0.0):g}s  {pacing}"
        ),
        (
            f"events: {snapshot.get('events_total', 0)} total, "
            f"{snapshot.get('events_per_s', 0.0):.0f}/s"
            + (
                f"  behind {snapshot['behind_s']:.2f}s"
                if snapshot.get("behind_s", 0.0) > 0.05
                else ""
            )
        ),
    ]
    by_kind = snapshot.get("events_by_kind") or {}
    if by_kind:
        lines.append(
            "  " + "  ".join(
                f"{kind}={by_kind[kind]}" for kind in sorted(by_kind)
            )
        )
    lines.append(
        f"alarms: {snapshot.get('alarms_fired', 0)} fired, "
        f"{snapshot.get('alarms_suppressed', 0)} rate-limited"
    )
    by_rule = snapshot.get("alarms_by_rule") or {}
    if by_rule:
        lines.append(
            "  " + "  ".join(
                f"{rule}={by_rule[rule]}" for rule in sorted(by_rule)
            )
        )
    if "subscribers" in snapshot:
        lines.append(
            f"streaming: {snapshot['subscribers']} subscriber(s), "
            f"{snapshot.get('frames_flushed', 0)} frames flushed, "
            f"{snapshot.get('frames_dropped', 0)} dropped "
            f"(slow consumers)"
        )
    return lines
