"""Prometheus text-format export behind ``python -m repro export-metrics``.

Progress snapshots and the run-history index already hold everything a
monitoring system wants -- units cached, queue depth, stalled leases,
per-worker throughput, last-run stage latencies.  This module renders
that state in the Prometheus *text exposition format* (version 0.0.4:
``# HELP`` / ``# TYPE`` comments followed by ``name{labels} value``
samples), because that format is the lingua franca scrapers,
``node_exporter`` textfile collectors, and humans with ``grep`` all
read.

Two delivery modes, both stdlib-only:

* **one-shot**: ``repro export-metrics <scenario> --output metrics.prom``
  writes a file suitable for the node_exporter textfile collector or a
  CI artifact (``-`` writes stdout);
* **endpoint**: ``--serve PORT`` runs a `http.server`-based
  ``/metrics`` endpoint that re-collects on every scrape.

Collection is the same read-only polling ``repro top`` does -- it can
never perturb the campaign being measured.  :func:`validate_exposition`
is a deliberately strict parser of the subset this module emits, so
tests and CI can assert output well-formedness without promtool.
"""

from __future__ import annotations

import re
import time
from typing import Callable

__all__ = [
    "HEALTH_BODY",
    "HEALTH_CONTENT_TYPE",
    "HEALTH_PATH",
    "METRIC_PREFIX",
    "collect_live_metrics",
    "collect_metrics",
    "render_exposition",
    "serve_metrics",
    "validate_exposition",
]

#: Every exported metric name starts with this.
METRIC_PREFIX = "repro_"

#: The liveness probe every repro HTTP surface answers identically --
#: the metrics endpoint here and the live streaming server
#: (:mod:`repro.live.serve`) both mount it, so one readiness check
#: works against either.
HEALTH_PATH = "/healthz"
HEALTH_BODY = b"ok\n"
HEALTH_CONTENT_TYPE = "text/plain; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|NaN|Inf))$"
)
_LABEL_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"$'
)


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return format(number, ".10g")


class Metric:
    """One exported metric family: name, help text, gauge samples."""

    def __init__(self, name: str, help_text: str):
        self.name = METRIC_PREFIX + _sanitize(name)
        self.help = help_text
        self.samples: list[tuple[dict, float]] = []

    def add(self, labels: dict, value) -> "Metric":
        if value is None:
            return self
        self.samples.append((dict(labels), float(value)))
        return self


def collect_metrics(
    cache,
    scenario,
    clock: Callable[[], float] = time.time,
) -> list[Metric]:
    """Gather one scrape's worth of gauges for one scenario.

    Campaign/queue/progress gauges come from the same
    :func:`repro.obs.top.scenario_status` poll ``repro top`` renders;
    last-run gauges come from the newest
    :mod:`repro.obs.history` entry for the scenario (absent until a
    traced run has finished).
    """
    from repro.obs.history import load_history
    from repro.obs.top import scenario_status

    status = scenario_status(cache, scenario, clock=clock)
    base = {"scenario": status["scenario"]}

    units = Metric(
        "campaign_units", "Planned units by state for one campaign."
    )
    for state, value in (
        ("planned", status["total_units"]),
        ("cached", status["cached_units"]),
        ("remaining", status["remaining_units"]),
    ):
        units.add({**base, "state": state}, value)
    complete = Metric(
        "campaign_complete",
        "1 once every planned unit of the campaign is cached.",
    ).add(base, 1 if status["complete"] else 0)

    queue = Metric(
        "queue_entries", "Distributed work-queue rows by state."
    )
    queue.add({**base, "state": "queued"}, status["queue"]["queued"])
    queue.add({**base, "state": "leased"}, status["queue"]["leased"])
    queue.add({**base, "state": "stalled"}, len(status["stalled_leases"]))

    metrics = [units, complete, queue]

    snapshots = (status.get("workers") or []) + (status.get("runners") or [])
    if snapshots:
        done = Metric(
            "progress_done_units",
            "Units a participant reports done (computed plus reused).",
        )
        failed = Metric(
            "progress_failed_units",
            "Units a participant reports failed.",
        )
        rate = Metric(
            "progress_rate_units_per_s",
            "A participant's observed unit throughput.",
        )
        age = Metric(
            "progress_snapshot_age_seconds",
            "Seconds since a participant last published progress.",
        )
        idle = Metric(
            "progress_participant_idle",
            "1 when a participant is idle or its snapshot went stale.",
        )
        for snap in snapshots:
            labels = {
                **base,
                "source": snap.get("source", "?"),
                "role": snap.get("role", "?"),
            }
            done.add(labels, snap.get("done_units", 0))
            failed.add(labels, snap.get("failed_units", 0))
            rate.add(labels, snap.get("rate_units_per_s", 0.0))
            age.add(labels, snap.get("age_s", 0.0))
            idle.add(labels, 1 if snap.get("idle") else 0)
        metrics.extend([done, failed, rate, age, idle])

    entries = load_history(cache.root, scenario=status["scenario"])
    if entries:
        latest = entries[-1]
        summary = latest.get("summary") or {}
        run_labels = {**base, "run_id": str(latest.get("run_id"))}
        metrics.append(
            Metric(
                "last_run_wall_seconds",
                "Wall seconds of the scenario's newest recorded run.",
            ).add(run_labels, summary.get("wall_s"))
        )
        metrics.append(
            Metric(
                "last_run_cache_hit_ratio",
                "Cache hit ratio of the scenario's newest recorded run.",
            ).add(run_labels, summary.get("cache_hit_rate"))
        )
        metrics.append(
            Metric(
                "last_run_throughput_units_per_s",
                "Unit throughput of the scenario's newest recorded run.",
            ).add(run_labels, summary.get("throughput_units_per_s"))
        )
        stage_seconds = Metric(
            "last_run_stage_seconds",
            "Per-stage latency quantiles of the newest recorded run.",
        )
        for stage, stats in sorted((summary.get("stages") or {}).items()):
            for quantile, key in (("0.5", "p50_s"), ("0.9", "p90_s")):
                stage_seconds.add(
                    {**run_labels, "stage": stage, "quantile": quantile},
                    stats.get(key),
                )
        metrics.append(stage_seconds)

    return metrics


def collect_live_metrics(snapshot: dict) -> list[Metric]:
    """Gauges for one live-engine snapshot (see ``LiveEngine.snapshot``).

    The live server's ``/metrics`` endpoint renders these through the
    same :func:`render_exposition` / :func:`validate_exposition` pair
    as the campaign exporter, so the live surface inherits the strict
    well-formedness CI already pins.  ``snapshot`` may carry the
    streaming-layer fields (``subscribers``, ``frames_sent``,
    ``frames_dropped``) merged in by :mod:`repro.live.serve`; they are
    optional so a bare engine snapshot also renders.
    """
    running = Metric(
        "live_engine_running", "1 while the live engine is dispatching."
    ).add({}, 1 if snapshot.get("running") else 0)
    sessions = Metric(
        "live_active_sessions", "Admitted patient sessions."
    ).add({}, snapshot.get("active_sessions", 0))
    sim_time = Metric(
        "live_sim_time_seconds", "Simulated seconds since engine start."
    ).add({}, snapshot.get("sim_time_s", 0.0))
    behind = Metric(
        "live_behind_seconds",
        "How late dispatch runs relative to the clock's wall target.",
    ).add({}, snapshot.get("behind_s", 0.0))
    events = Metric(
        "live_events", "Events dispatched since engine start, by kind."
    )
    for kind, count in sorted(
        (snapshot.get("events_by_kind") or {}).items()
    ):
        events.add({"kind": kind}, count)
    rate = Metric(
        "live_events_per_second",
        "Observed dispatch throughput (events over wall seconds).",
    ).add({}, snapshot.get("events_per_s", 0.0))
    alarms = Metric(
        "live_alarms", "Monitor alarms by disposition."
    )
    alarms.add({"state": "fired"}, snapshot.get("alarms_fired", 0))
    alarms.add(
        {"state": "suppressed"}, snapshot.get("alarms_suppressed", 0)
    )
    by_rule = Metric(
        "live_alarms_fired_by_rule", "Fired alarms by originating rule."
    )
    for rule, count in sorted(
        (snapshot.get("alarms_by_rule") or {}).items()
    ):
        by_rule.add({"rule": rule}, count)

    metrics = [
        running, sessions, sim_time, behind, events, rate, alarms, by_rule,
    ]

    if "subscribers" in snapshot:
        metrics.append(
            Metric(
                "live_subscribers", "Connected streaming subscribers."
            ).add({}, snapshot["subscribers"])
        )
    if "frames_sent" in snapshot or "frames_dropped" in snapshot:
        frames = Metric(
            "live_frames",
            "Streaming frames by disposition (dropped = slow consumer).",
        )
        frames.add({"state": "sent"}, snapshot.get("frames_sent", 0))
        frames.add({"state": "dropped"}, snapshot.get("frames_dropped", 0))
        metrics.append(frames)
    return metrics


def render_exposition(metrics: list[Metric]) -> str:
    """Render metric families as Prometheus text exposition format."""
    lines: list[str] = []
    for metric in metrics:
        if not metric.samples:
            continue
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} gauge")
        for labels, value in metric.samples:
            if labels:
                label_text = ",".join(
                    f'{_sanitize(key)}="{_escape_label(val)}"'
                    for key, val in sorted(labels.items())
                )
                lines.append(
                    f"{metric.name}{{{label_text}}} {_fmt_value(value)}"
                )
            else:
                lines.append(f"{metric.name} {_fmt_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def validate_exposition(text: str) -> list[str]:
    """Check Prometheus text-format well-formedness; return metric names.

    A strict parser for the subset :func:`render_exposition` emits:
    every sample line must parse as ``name{labels} value``, every
    sample's name must have a preceding ``# TYPE`` declaration, and
    label pairs must be well-quoted.  Raises :class:`ValueError` with
    the offending line on the first violation -- which is exactly what
    a CI assertion wants.
    """
    typed: set[str] = set()
    names: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_OK.match(parts[2]):
                raise ValueError(
                    f"line {lineno}: malformed comment: {line!r}"
                )
            if parts[1] == "TYPE":
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        if name not in typed:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        labels = match.group("labels")
        if labels:
            for pair in re.split(r",(?=[a-zA-Z_])", labels):
                if not _LABEL_RE.match(pair):
                    raise ValueError(
                        f"line {lineno}: malformed label pair {pair!r}"
                    )
        if name not in names:
            names.append(name)
    if not names:
        raise ValueError("exposition contains no samples")
    return names


def serve_metrics(cache, scenario, port: int, host: str = "127.0.0.1"):
    """A ``/metrics`` HTTP endpoint that re-collects on every scrape.

    Also answers :data:`HEALTH_PATH` (``/healthz``) with a constant
    200, so orchestrators can probe liveness without paying for a
    collection pass.  Returns the started :class:`http.server.ThreadingHTTPServer`; the
    caller owns its lifecycle (``serve_forever`` / ``shutdown``), which
    lets the CLI block on it and tests drive one scrape then stop.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            path = self.path.split("?")[0]
            if path == HEALTH_PATH:
                self.send_response(200)
                self.send_header("Content-Type", HEALTH_CONTENT_TYPE)
                self.send_header("Content-Length", str(len(HEALTH_BODY)))
                self.end_headers()
                self.wfile.write(HEALTH_BODY)
                return
            if path != "/metrics":
                self.send_error(404, "only /metrics and /healthz are served")
                return
            try:
                body = render_exposition(
                    collect_metrics(cache, scenario)
                ).encode("utf-8")
            except Exception as exc:  # collection must not kill the server
                self.send_error(500, f"collection failed: {exc}")
                return
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):  # quiet: scrapes are periodic
            pass

    server = ThreadingHTTPServer((host, port), _MetricsHandler)
    server.daemon_threads = True
    return server
