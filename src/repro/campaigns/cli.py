"""The ``python -m repro`` command-line interface.

Its subcommands operate the campaign subsystem::

    python -m repro list                         # what can be run
    python -m repro run attack-success-shielded  # run (resumes from cache)
    python -m repro status attack-success-shielded
    python -m repro compare attack-success-unshielded attack-success-shielded
    python -m repro validate                     # golden-figure check
    python -m repro cache stats                  # cache usage / cleanup
    python -m repro report attack-success-shielded  # trace diagnostics
    python -m repro worker fleet-attack-prevalence  # drain the work queue
    python -m repro top fleet-attack-prevalence     # live campaign view
    python -m repro export-metrics fleet-attack-prevalence  # Prometheus
    python -m repro history fleet-attack-prevalence # recorded runs
    python -m repro diff <run-a> <run-b>            # regression check
    python -m repro live --serve 8080               # real-time ward monitor

Each verb is one row of the ``_VERBS`` table at the bottom of this
module: its name, help, positionals, the shared argument groups it
takes (``_GROUPS``, where every shared flag is defined once), and its
own flags.  Every verb that prints a result -- ``list``, ``run``,
``status``, ``compare``, ``validate``, ``cache stats``, ``report``,
``top``, ``history`` and ``diff`` -- takes ``--format
{text,markdown,json}`` and returns ``(payload, report, footer)``, which
:func:`_emit` prints: the payload as JSON, or the report's tables
(:class:`repro.experiments.report.ExperimentReport`) then the footer
lines, so figures drop straight into terminals, PR descriptions, or
downstream tooling.

``run --distributed`` plans a campaign into the SQLite cache's work
queue and waits while ``worker`` processes -- any number, on any
machine sharing the cache root -- claim, evaluate, and persist units
under expiring leases; the reduced numbers are bit-identical to a
serial run (see docs/distributed.md).

``validate`` judges scenarios against the registry's golden-figure
expectation table (see docs/validation.md) and exits non-zero when a
paper claim is refuted -- with ``--adaptive`` it lets the runner's
adaptive rounds (:meth:`~repro.campaigns.runner.CampaignRunner.run_adaptive`)
choose trial counts to hit a stated precision instead of running the
fixed budget.

Killing a ``run`` (or ``validate``) mid-campaign is safe: completed
work units are already on disk, and the next invocation completes from
cache with bit-identical final numbers (same seeds) to an uninterrupted
run.

``run``, ``compare`` and ``worker`` accept ``--trace`` (or
``REPRO_TRACE=1``): the run writes a structured JSONL trace -- manifest
plus one span per work unit -- to ``<cache>/runs/<run_id>/trace.jsonl``,
which ``report`` reduces to per-stage latency percentiles, cache hit
rate, worker utilization, and the slowest units.  Tracing never changes
results or cache contents (see docs/observability.md).

Live observability rides the same cache root: runners and workers
publish throttled progress snapshots (default on; ``--no-progress`` or
``REPRO_PROGRESS=0`` silences them), ``top`` renders them alongside
queue depth and stalled leases, ``export-metrics`` exposes the same
state in Prometheus text format, and every traced run auto-records
into ``<cache>/runs/history.jsonl`` for ``history`` and the
regression-flagging ``diff``.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

from repro.campaigns import registry
from repro.campaigns.cache import default_cache_dir
from repro.campaigns.kinds import BUDGETS, KINDS
from repro.campaigns.store import SQLiteStore
from repro.campaigns.runner import CampaignResult, CampaignRunner
from repro.campaigns.spec import Scenario
from repro.experiments.report import ExperimentReport
from repro.obs.log import (
    LOG_LEVELS,
    configure_logging,
    console,
    get_logger,
)
from repro.obs.report import find_runs, load_trace, summarize_run
from repro.obs.trace import Tracer, resolve_tracing, runs_root
from repro.stats.adaptive import AdaptivePolicy
from repro.stats.validation import (
    ScenarioValidation,
    ValidationReport,
    validate_scenario,
)

__all__ = ["main"]

_log = get_logger("cli")


@contextmanager
def _or_exit(context: str = "", errors=ValueError):
    """Turn ``errors`` raised in the block into the CLI's
    ``error: <context><message>`` exit (status 1)."""
    try:
        yield
    except errors as exc:
        raise SystemExit(f"error: {context}{exc}") from None


def _resolve(name: str) -> Scenario:
    try:
        return registry.get(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None


def _parse_locations(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(
            f"error: --locations must be comma-separated integers, got {raw!r}"
        ) from None


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    changes: dict = {}
    if args.trials is not None:
        changes["n_trials"] = args.trials
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.chunk_size is not None:
        changes["chunk_size"] = args.chunk_size
    if args.locations is not None:
        changes["location_indices"] = _parse_locations(args.locations)
    if getattr(args, "patients", None) is not None:
        changes["n_patients"] = args.patients
    if not changes:
        return scenario
    with _or_exit():
        return scenario.override(**changes)


def _cache_root(args: argparse.Namespace) -> Path:
    """The cache root a verb works on: ``--cache-dir``, else the default."""
    root = getattr(args, "cache_dir", None)
    return Path(root) if root is not None else default_cache_dir()


def _tracer(args: argparse.Namespace, name: str) -> Tracer | None:
    """A tracer under the cache root when tracing is on
    (``--trace``/``--no-trace`` > ``REPRO_TRACE`` > off)."""
    with _or_exit():  # junk REPRO_TRACE
        traced = resolve_tracing(getattr(args, "trace", None))
    return Tracer(_cache_root(args), name) if traced else None


def _runner(scenario: Scenario, args: argparse.Namespace) -> CampaignRunner:
    tracer = _tracer(args, scenario.name)
    with _or_exit():  # e.g. --workers -1, junk REPRO_PROGRESS
        return CampaignRunner(
            scenario,
            cache_dir=args.cache_dir,
            workers=args.workers,
            persist=not args.no_cache,
            profile=getattr(args, "profile", False),
            tracer=tracer,
            progress=getattr(args, "progress", None),
        )


def _result_report(result: CampaignResult) -> ExperimentReport:
    scenario = result.scenario
    kind = KINDS[scenario.kind]
    report = ExperimentReport(
        scenario.title or scenario.name, headers=kind.report_headers
    )
    for row in kind.report_rows(scenario, result.points):
        report.add(*row)
    return report


def _emit(
    fmt: str,
    payload,
    report: list,
    footer=(),
    code: int = 0,
    *,
    stream: bool = False,
) -> int:
    """Print one verb's result in ``--format`` and return its exit code.

    ``json`` prints the payload alone (compact, one document per poll,
    when ``stream``ing); text and markdown print each report block -- a
    table, or a plain line that reads the same in both -- then the
    footer lines.
    """
    if fmt == "json":
        print(
            json.dumps(payload, indent=None if stream else 2, sort_keys=True),
            flush=stream,
        )
        return code
    for block in report:
        if isinstance(block, ExperimentReport):
            block = (
                block.render_markdown() if fmt == "markdown" else block.render()
            )
        print(block, flush=stream)
    for line in footer:
        console(line)
    return code


def _budget_scenario(scenario: Scenario, budget: str) -> Scenario:
    """Apply a ``validate --budget`` preset to a registered scenario."""
    changes = KINDS[scenario.kind].budget(scenario, budget)
    return scenario.override(**changes) if changes else scenario


def _validation_report(validation: ScenarioValidation) -> ExperimentReport:
    """One scenario's expectation verdicts as a renderable table."""
    scenario = validation.scenario
    mode = "adaptive" if validation.adaptive else "fixed"
    report = ExperimentReport(
        f"{scenario.name} [{mode}] -- {validation.verdict.upper()}",
        headers=("expectation", "verdict", "measured", "note"),
    )
    for outcome in validation.outcomes:
        judged = [c for c in outcome.cells if c.n > 0]
        if judged:
            estimates = [c.estimate for c in judged]
            ns = [c.n for c in judged]
            measured = f"{min(estimates):.3f}..{max(estimates):.3f}"
            measured += (
                f" (n={min(ns)})" if min(ns) == max(ns)
                else f" (n={min(ns)}-{max(ns)})"
            )
        else:
            measured = "(no cells)"
        verdict = outcome.verdict.upper()
        if outcome.confirmed:
            verdict += "*"
        note = outcome.expectation.note
        if outcome.skipped_axes:
            skipped = ", ".join(str(a) for a in outcome.skipped_axes)
            note = f"[skipped axes: {skipped}] {note}"
        report.add(outcome.expectation.describe(), verdict, measured, note)
    return report


def _validation_footer(validation: ScenarioValidation) -> str:
    parts = [
        f"trials: {validation.trials_used}",
    ]
    if validation.adaptive:
        parts.append(f"fixed budget would be {validation.fixed_trials}")
        parts.append(f"rounds: {validation.rounds}")
        if not validation.converged:
            parts.append("some cells hit max-trials before converging")
    parts.append(
        f"units: {validation.computed_units} computed, "
        f"{validation.cached_units} from cache"
    )
    return " -- ".join(parts)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace):
    scenarios = registry.all_scenarios()
    report = ExperimentReport(
        "registered scenarios", headers=("name", "kind", "grid", "summary")
    )
    for s in scenarios:
        report.add(s.name, s.kind, f"{s.grid_size()} pts", s.summary())
    payload = [
        {
            "name": s.name,
            "kind": s.kind,
            "title": s.title,
            "grid": s.grid_size(),
            "n_trials": s.n_trials,
            "tags": list(s.tags),
            "hash": s.scenario_hash(),
        }
        for s in scenarios
    ]
    return payload, [report], ["\nrun one with:  python -m repro run <name>"]


def _cmd_run(args: argparse.Namespace):
    scenario = _apply_overrides(_resolve(args.scenario), args)
    if args.distributed:
        if args.no_cache:
            raise SystemExit(
                "error: --distributed needs the shared cache "
                "(drop --no-cache)"
            )
        if args.force:
            raise SystemExit(
                "error: --force is not supported with --distributed; "
                "prune the scenario's cache namespace instead "
                "(python -m repro cache prune --scenario ...)"
            )
        if args.profile:
            raise SystemExit(
                "error: --profile profiles in-process evaluation; "
                "with --distributed the units run in worker processes "
                "(profile a worker run instead)"
            )
        if args.workers is not None:
            _log.warning(
                "--workers is ignored with --distributed: parallelism "
                "comes from how many `python -m repro worker` processes "
                "share the cache root"
            )
    runner = _runner(scenario, args)
    if args.distributed:
        with _or_exit(errors=(ValueError, RuntimeError)):
            result = runner.run_distributed(wait_timeout_s=args.wait_timeout)
    else:
        result = runner.run(force=args.force)
    where = "in memory" if args.no_cache else f"cache {runner.cache.root}"
    footer = [
        f"\nunits: {result.total_units} total, "
        f"{result.cached_units} from cache, "
        f"{result.computed_units} computed ({where})"
    ]
    if runner.profile_path is not None:
        footer.append(f"profile: {runner.profile_path}")
    elif args.profile:
        footer.append("profile: nothing to profile (every unit was cached)")
    if runner.tracer is not None:
        footer.append(
            f"trace: {runner.tracer.path} "
            f"(inspect with: python -m repro report {scenario.name})"
        )
    return result.to_payload(), [_result_report(result)], footer


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.campaigns.worker import (
        HeartbeatError,
        default_worker_id,
        run_worker,
    )

    scenario = _apply_overrides(_resolve(args.scenario), args)
    worker_id = args.worker_id or default_worker_id()
    tracer = _tracer(args, f"{scenario.name}-worker-{worker_id}")
    try:
        with _or_exit():  # e.g. junk REPRO_PROGRESS
            stats = run_worker(
                scenario,
                cache_dir=args.cache_dir,
                worker_id=worker_id,
                lease_s=args.lease,
                poll_s=args.poll,
                idle_timeout_s=(
                    args.idle_timeout if args.idle_timeout > 0 else None
                ),
                max_units=args.max_units,
                tracer=tracer,
                progress=args.progress,
            )
    except HeartbeatError as exc:
        # The shared store died under the heartbeat thread; the claim
        # was abandoned (best effort).  Exit distinctly so supervisors
        # can tell "store unreachable" (4) from "no work left" (3) and
        # a clean drain (0).
        print(f"error: {exc}", file=sys.stderr)
        return 4
    console(
        f"worker {stats.worker_id}: {stats.claimed} claim(s), "
        f"{stats.computed} computed, {stats.reused} already cached, "
        f"{stats.lease_lost} lease(s) lost"
    )
    if tracer is not None:
        console(f"trace: {tracer.path}")
    if stats.idle_timeout:
        console(
            "exited on idle timeout with uncached units remaining "
            "(another worker may hold live leases)"
        )
        return 3
    return 0


def _cmd_status(args: argparse.Namespace):
    scenario = _apply_overrides(_resolve(args.scenario), args)
    with _or_exit():  # e.g. junk REPRO_WORKERS or REPRO_PROGRESS
        runner = CampaignRunner(scenario, cache_dir=args.cache_dir)
    status = runner.status()
    state = (
        "complete"
        if status.complete
        else f"{status.pending_units} unit(s) pending"
    )
    return status.__dict__, [], [
        f"{status.scenario} [{status.scenario_hash}]: "
        f"{status.cached_units}/{status.total_units} units cached -- {state}"
    ]


def _cmd_compare(args: argparse.Namespace):
    scenario_a = _apply_overrides(_resolve(args.scenario_a), args)
    scenario_b = _apply_overrides(_resolve(args.scenario_b), args)
    if scenario_a.kind != scenario_b.kind:
        raise SystemExit(
            f"error: cannot compare a {scenario_a.kind!r} scenario with a "
            f"{scenario_b.kind!r} one"
        )
    kind = KINDS[scenario_a.kind]
    headline_a = kind.headline(scenario_a)
    headline_b = kind.headline(scenario_b)
    if headline_a != headline_b:
        # Different tasks measure different quantities; failing here
        # beats running both scenarios and dying on the headline key.
        raise SystemExit(
            f"error: cannot compare scenarios whose tasks measure "
            f"different headline metrics ({headline_a!r} vs {headline_b!r})"
        )
    result_a = _runner(scenario_a, args).run()
    result_b = _runner(scenario_b, args).run()
    key = result_a.value_key
    axes_b = {p["axis"] for p in result_b.points}
    shared = [p["axis"] for p in result_a.points if p["axis"] in axes_b]
    if not shared:
        raise SystemExit("error: the scenarios share no grid points")

    report = ExperimentReport(
        f"{scenario_a.name} vs {scenario_b.name}",
        headers=("point", scenario_a.name, scenario_b.name, "delta"),
    )
    rows = []
    for axis in shared:
        point_a = result_a.point(axis)
        point_b = result_b.point(axis)
        delta = point_b[key] - point_a[key]
        report.add(
            point_a["label"],
            f"{point_a[key]:.3f}",
            f"{point_b[key]:.3f}",
            f"{delta:+.3f}",
        )
        rows.append({
            "axis": axis,
            "label": point_a["label"],
            scenario_a.name: point_a[key],
            scenario_b.name: point_b[key],
            "delta": delta,
        })
    payload = {
        "value_key": key,
        "a": result_a.to_payload(),
        "b": result_b.to_payload(),
        "comparison": rows,
    }
    return payload, [report]


def _cmd_validate(args: argparse.Namespace):
    names = args.scenarios or registry.names_with_expectations()
    if not names:
        raise SystemExit("error: no scenarios have registered expectations")
    policy_fields: dict = {}
    if args.precision is not None:
        policy_fields["precision"] = args.precision
    if args.confidence is not None:
        policy_fields["confidence"] = args.confidence
    if args.interval is not None:
        policy_fields["method"] = args.interval
    if args.round_size is not None:
        policy_fields["round_size"] = args.round_size
    if args.min_trials is not None:
        policy_fields["min_trials"] = args.min_trials
    if args.max_trials is not None:
        policy_fields["max_trials"] = args.max_trials
    with _or_exit():
        policy = AdaptivePolicy(**policy_fields)

    report = ValidationReport(strict=args.strict)
    for name in names:
        scenario = _budget_scenario(_resolve(name), args.budget)
        expectations = registry.expectations_for(name)
        if not expectations:
            raise SystemExit(
                f"error: scenario {name!r} has no registered expectations"
            )
        with _or_exit():  # e.g. bad --workers
            validation = validate_scenario(
                scenario,
                expectations,
                adaptive=args.adaptive,
                policy=policy,
                cache_dir=args.cache_dir,
                workers=args.workers,
                persist=not args.no_cache,
                confidence=args.confidence,
            )
        report.scenarios.append(validation)

    blocks: list = []
    for validation in report.scenarios:
        blocks += [
            _validation_report(validation),
            _validation_footer(validation) + "\n",
        ]
    footer = [report.summary()]
    if not report.passed and report.verdict != "fail":
        footer.append("(inconclusive under --strict: more trials would settle it)")
    return report.to_payload(), blocks, footer, 0 if report.passed else 1


def _cmd_cache_stats(args: argparse.Namespace):
    stats = SQLiteStore(_cache_root(args)).stats()
    report = ExperimentReport(
        f"cache at {stats.location}",
        headers=("scenario", "hash", "entries", "size"),
    )
    for s in stats.scenarios:
        report.add(
            s.name or "(no manifest)",
            s.scenario_hash,
            str(s.entries),
            _human_bytes(s.bytes),
        )
    payload = {
        "entries": stats.entries,
        "bytes": stats.bytes,
        "location": stats.location,
        "scenarios": [
            {
                "hash": s.scenario_hash,
                "name": s.name,
                "entries": s.entries,
                "bytes": s.bytes,
            }
            for s in stats.scenarios
        ],
    }
    return payload, [report], [
        f"\ntotal: {stats.entries} unit(s), {_human_bytes(stats.bytes)} "
        f"across {len(stats.scenarios)} scenario namespace(s)"
    ]


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    if bool(args.scenario) == bool(args.all):
        raise SystemExit(
            "error: pass exactly one of --scenario NAME or --all"
        )
    store = SQLiteStore(_cache_root(args))
    if args.all:
        console(f"pruned {store.prune()} unit(s) (everything)")
        return 0
    # A name may own several namespaces (overridden trials, seeds, old
    # schema versions); prune every namespace whose manifest carries
    # it.  Resolution reads only the manifests -- never the unit
    # entries, which at fleet counts would turn a name lookup into a
    # full scan.
    names = store.namespace_names()
    matches = [
        scenario_hash
        for scenario_hash, name in names.items()
        if name == args.scenario
    ]
    if not matches:
        known = sorted({name for name in names.values() if name})
        raise SystemExit(
            f"error: no cached namespace is named {args.scenario!r}; "
            f"cached scenarios: {', '.join(known) or '(none)'}"
        )
    removed = store.prune(matches)
    console(
        f"pruned {removed} unit(s) from {len(matches)} namespace(s) "
        f"of {args.scenario!r}"
    )
    return 0


def _fmt_seconds(seconds: float) -> str:
    if seconds < 1.0:
        return f"{seconds * 1000:.1f} ms"
    return f"{seconds:.2f} s"


def _report_table(summary: dict) -> ExperimentReport:
    """One traced run's diagnostics as a renderable table."""
    report = ExperimentReport(
        f"{summary['scenario']} -- run {summary['run_id']}",
        headers=("metric", "value", "detail", "note"),
    )
    cache = summary["cache"]
    rate = cache["hit_rate"]
    report.add(
        "cache hit rate",
        "n/a" if rate is None else f"{rate:.0%}",
        f"{cache['hits']} hit / {cache['computed']} computed",
        f"{cache['total']} unit span(s)",
    )
    for stage, stats in summary["stages"].items():
        report.add(
            f"{stage} latency",
            f"p50 {_fmt_seconds(stats['p50_s'])}",
            f"p90 {_fmt_seconds(stats['p90_s'])} / "
            f"p99 {_fmt_seconds(stats['p99_s'])}",
            f"{stats['count']} unit(s), total {_fmt_seconds(stats['total_s'])}",
        )
    workers = summary["workers"]
    utilization = workers["utilization"]
    wall = workers["execute_wall_s"]
    report.add(
        "worker utilization",
        "n/a" if utilization is None else f"{utilization:.0%}",
        f"{len(workers['observed_pids'])} pid(s) observed, "
        f"{workers['effective']} effective",
        ""
        if wall is None
        else f"busy {_fmt_seconds(workers['busy_s'])} "
        f"/ wall {_fmt_seconds(wall)}",
    )
    per_worker = workers.get("per_worker") or {}
    if len(per_worker) > 1:
        # A distributed (or pooled) run: show how the units actually
        # spread across the fleet.
        for label in sorted(per_worker):
            stats = per_worker[label]
            report.add(
                f"worker {label}",
                f"{stats['units']} unit(s)",
                f"busy {_fmt_seconds(stats['busy_s'])}",
                "",
            )
    report.add(
        "result bytes",
        _human_bytes(summary["bytes"]["results"]),
        "computed-unit payloads",
        "",
    )
    for entry in summary["slowest"]:
        coords = entry["coords"] or {}
        detail = ", ".join(
            f"{key}={value}" for key, value in coords.items() if key != "kind"
        )
        report.add(
            "slowest unit",
            _fmt_seconds(entry["exec_s"]),
            detail or str(entry["key"]),
            f"pid {entry['pid']}",
        )
    return report


def _cmd_report(args: argparse.Namespace):
    root = _cache_root(args)
    runs = find_runs(root, scenario=args.scenario)
    if not runs:
        what = f"of {args.scenario!r} " if args.scenario else ""
        raise SystemExit(
            f"error: no traced runs {what}under "
            f"{runs_root(root)}; run with --trace (or REPRO_TRACE=1) first"
        )
    if args.list_runs:
        title = "traced runs" + (
            f" of {args.scenario}" if args.scenario else ""
        )
        listing = ExperimentReport(
            title, headers=("run id", "scenario", "role", "started")
        )
        for r in runs:
            listing.add(
                r.run_id,
                str(r.manifest.get("scenario") or "?"),
                str(r.manifest.get("role") or "runner"),
                str(r.manifest.get("started_at") or "?"),
            )
        payload = [
            {
                "run_id": r.run_id,
                "scenario": r.manifest.get("scenario"),
                "role": r.manifest.get("role", "runner"),
                "started_at": r.manifest.get("started_at"),
            }
            for r in runs
        ]
        return payload, [listing], [
            "\nreport one with:  python -m repro report --run-id <id>"
        ]
    if args.run_id is not None:
        matches = [r for r in runs if r.run_id == args.run_id]
        if not matches:
            known = ", ".join(r.run_id for r in runs[-5:])
            what = f" of {args.scenario!r}" if args.scenario else ""
            raise SystemExit(
                f"error: no traced run {args.run_id!r}{what}; "
                f"most recent: {known}"
            )
        info = matches[0]
    else:
        info = runs[-1]
    with _or_exit(f"unreadable trace {info.path}: ", (OSError, ValueError)):
        manifest, events = load_trace(info.path)
    summary = summarize_run(manifest, events, slowest=args.slowest)
    footer = [
        f"\nmanifest: kind={manifest.get('kind')} "
        f"seed={manifest.get('seed')} "
        f"workers={manifest.get('workers')} "
        f"cache={manifest.get('cache_backend')}"
    ]
    if manifest.get("forced_serial"):
        footer.append("note: --profile forced serial evaluation for this run")
    if summary["summary"] is None:
        footer.append(
            "note: no summary event -- the run was interrupted mid-trace"
        )
    footer.append(f"trace: {info.path}")
    return summary, [_report_table(summary)], footer


def _watch_cache(args: argparse.Namespace):
    """The read-only cache the live verbs (top, export-metrics) poll."""
    from repro.campaigns.cache import ResultCache

    return ResultCache(_cache_root(args))


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll a campaign cache (or, with ``--live URL``, a running live
    engine's /status) until it completes, printing each snapshot."""
    import time

    from repro.obs import top

    if args.interval <= 0:
        raise SystemExit(
            f"error: --interval must be positive, got {args.interval}"
        )
    if args.live is not None:
        import urllib.request

        base = args.live.rstrip("/")
        if not base.startswith("http"):
            base = "http://" + base
        url = base + "/status"

        def fetch() -> dict:
            with _or_exit(
                f"cannot poll live status at {url}: ", (OSError, ValueError)
            ), urllib.request.urlopen(url, timeout=5.0) as resp:
                return json.loads(resp.read().decode("utf-8"))

        render, done = top.render_live_status, "finished"
    else:
        if args.scenario is None:
            raise SystemExit(
                "error: a scenario name is required without --live"
            )
        scenario = _apply_overrides(_resolve(args.scenario), args)
        cache = _watch_cache(args)

        def fetch() -> dict:
            return top.scenario_status(cache, scenario)

        render, done = top.render_status, "complete"
    # A TTY gets an ANSI-refreshed screen; pipes and CI logs get one
    # plain block per poll, separated so the stream stays greppable.
    redraw = sys.stdout.isatty() and not args.once
    first = True
    while True:
        snapshot = fetch()
        if args.format != "json":
            if redraw:
                sys.stdout.write("\x1b[2J\x1b[H")
            elif not first:
                print("---")
        _emit(
            args.format, snapshot, ["\n".join(render(snapshot))], stream=True
        )
        first = False
        if args.once or snapshot.get(done):
            return 0
        time.sleep(args.interval)


def _cmd_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.alarms import AlarmPipeline, LogNotifier
    from repro.live.clock import AcceleratedClock, TestClock, WallClock
    from repro.live.engine import LiveConfig, LiveEngine
    from repro.live.events import EventLog
    from repro.live.serve import run_live
    from repro.obs.top import render_live_status

    with _or_exit():
        config = LiveConfig(
            n_patients=args.patients,
            seed=args.seed,
            duration_s=args.duration,
            telemetry_interval_s=args.telemetry_interval,
            attack_bursts=args.bursts,
            burst_trials=args.burst_trials,
            attack_command=args.command,
        )
        if args.drain:
            clock = TestClock()
        elif args.speedup == 1.0:
            clock = WallClock()
        else:
            clock = AcceleratedClock(args.speedup)

    event_log = EventLog() if args.log_events else None
    pipeline = AlarmPipeline(notifiers=[LogNotifier()])
    engine = LiveEngine(
        config, clock=clock, pipeline=pipeline, event_log=event_log
    )

    if args.serve is not None:
        def on_started(server):
            console(
                f"live monitor on http://{server.host}:{server.port} "
                f"(/events /status /metrics /healthz; Ctrl-C to stop)"
            )
    else:
        on_started = None
    with _or_exit("cannot serve live stream: ", OSError):  # port taken
        snapshot = asyncio.run(
            run_live(
                engine,
                serve=args.serve is not None,
                host=args.host,
                port=args.serve or 0,
                linger_s=args.linger,
                on_started=on_started,
            )
        )

    if event_log is not None:
        path = event_log.write(args.log_events)
        console(
            f"wrote {len(event_log.lines)} event/alarm line(s) to {path} "
            f"(digest {event_log.digest()[:16]})"
        )
    for line in render_live_status(snapshot):
        console(line)
    return 0


def _cmd_export_metrics(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        collect_metrics,
        render_exposition,
        serve_metrics,
    )

    scenario = _apply_overrides(_resolve(args.scenario), args)
    cache = _watch_cache(args)
    if args.serve is not None:
        with _or_exit("cannot serve metrics: ", OSError):  # port taken
            server = serve_metrics(
                cache, scenario, args.serve, host=args.host
            )
        host, port = server.server_address[:2]
        console(
            f"serving Prometheus metrics on http://{host}:{port}/metrics "
            f"(Ctrl-C to stop)"
        )
        try:
            server.serve_forever()
        finally:
            server.server_close()
        return 0
    text = render_exposition(collect_metrics(cache, scenario))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        series = sum(
            1 for line in text.splitlines() if not line.startswith("#")
        )
        console(f"wrote {series} metric sample(s) to {path}")
    return 0


def _cmd_history(args: argparse.Namespace):
    from repro.obs.history import history_path, load_history

    root = _cache_root(args)
    entries = load_history(root, scenario=args.scenario)
    if args.limit is not None and args.limit > 0:
        entries = entries[-args.limit:]
    if not entries and args.format != "json":
        what = f"of {args.scenario!r} " if args.scenario else ""
        raise SystemExit(
            f"error: no recorded runs {what}in {history_path(root)}; "
            f"traced runs (--trace / REPRO_TRACE=1) record automatically"
        )
    title = "recorded runs" + (
        f" of {args.scenario}" if args.scenario else ""
    )
    report = ExperimentReport(
        title,
        headers=("run id", "started", "units", "timing"),
    )
    for entry in entries:
        summary = entry.get("summary") or {}
        hit_rate = summary.get("cache_hit_rate")
        wall = summary.get("wall_s")
        throughput = summary.get("throughput_units_per_s")
        units = (
            f"{summary.get('units', '?')}"
            + ("" if hit_rate is None else f" ({hit_rate:.0%} hit)")
        )
        timing = (
            ("n/a" if wall is None else f"wall {_fmt_seconds(float(wall))}")
            + ("" if throughput is None else f", {throughput:.2f} u/s")
            + (" *interrupted*" if summary.get("interrupted") else "")
        )
        report.add(
            str(entry.get("run_id")),
            str(entry.get("started_at") or "?"),
            units,
            timing,
        )
    return entries, [report], [
        "\ndiff two with:  python -m repro diff <run-a> <run-b>"
    ]


def _fmt_diff_value(name: str, value) -> str:
    if value is None:
        return "n/a"
    if name.endswith("_rate") or name.endswith("_ratio"):
        return f"{float(value):.2%}"
    return f"{float(value):.4g}"


def _cmd_diff(args: argparse.Namespace):
    from repro.obs.history import (
        diff_runs,
        find_entry,
        history_path,
        load_history,
    )

    root = _cache_root(args)
    entries = {}
    for label, run_id in (("baseline", args.run_a), ("candidate", args.run_b)):
        entry = find_entry(root, run_id)
        if entry is None:
            known = ", ".join(
                str(e.get("run_id")) for e in load_history(root)[-5:]
            )
            raise SystemExit(
                f"error: run {run_id!r} is not in {history_path(root)}; "
                f"most recent: {known or '(none recorded)'}"
            )
        entries[label] = entry
    with _or_exit():
        diff = diff_runs(
            entries["baseline"], entries["candidate"],
            threshold=args.threshold,
        )
    report = ExperimentReport(
        f"{diff['baseline']} -> {diff['candidate']}",
        headers=("metric", "baseline", "candidate", "change"),
    )
    for metric in diff["metrics"]:
        name = metric["name"]
        ratio = metric["ratio"]
        if ratio is None:
            change = "n/a"
        else:
            change = f"{(ratio - 1.0) * 100:+.1f}%"
            if metric["regressed"]:
                change += "  REGRESSED"
        report.add(
            name,
            _fmt_diff_value(name, metric["baseline"]),
            _fmt_diff_value(name, metric["candidate"]),
            change,
        )
    regressions = diff["regressions"]
    if regressions:
        footer = (
            f"\n{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0%}: {', '.join(regressions)}"
        )
    else:
        footer = f"\nno regressions beyond {args.threshold:.0%}"
    return diff, [report], [footer], int(bool(regressions) and args.strict)


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n:.1f} GiB"


# ----------------------------------------------------------------------
# Argument parsing: one table row per verb
# ----------------------------------------------------------------------


def _arg(*flags: str, **options) -> tuple:
    """One ``add_argument`` call, declared as table data."""
    return flags, options


#: The shared argument groups.  Every flag here has this one definition;
#: a verb takes a group by naming it in its ``_VERBS`` row.
_GROUPS = {
    "overrides": (
        _arg("--trials", type=int,
             help="override trials per grid point (changes the cache "
                  "namespace)"),
        _arg("--seed", type=int, help="override the root seed"),
        _arg("--chunk-size", type=int,
             help="shard each grid point's trials into chunks of this size"),
        _arg("--locations",
             help="comma-separated location indices (attack/passive "
                  "scenarios)"),
        _arg("--patients", type=int,
             help="override the cohort size (fleet scenarios only)"),
    ),
    "execution": (
        _arg("--workers", type=int,
             help="worker processes (default: REPRO_WORKERS, else serial)"),
        _arg("--no-cache", action="store_true",
             help="run fully in memory: no cache reads or writes"),
    ),
    "trace": (
        _arg("--trace", action=argparse.BooleanOptionalAction,
             help="write a structured JSONL trace (manifest + one span per "
                  "unit) to <cache>/runs/<run_id>/trace.jsonl; --no-trace "
                  "overrides REPRO_TRACE=1 (never changes results)"),
        _arg("--progress", action=argparse.BooleanOptionalAction,
             help="publish live progress snapshots through the cache for "
                  "`python -m repro top` (default on; --no-progress or "
                  "REPRO_PROGRESS=0 silences them; never changes results)"),
    ),
    "cache": (
        _arg("--cache-dir",
             help="result cache root (default: REPRO_CACHE_DIR, else "
                  ".repro-cache)"),
    ),
    "log": (
        _arg("--log-level", choices=LOG_LEVELS,
             help="diagnostic verbosity on stderr (default: REPRO_LOG, "
                  "else warning)"),
    ),
    "format": (
        _arg("--format", choices=("text", "markdown", "json"),
             default="text", help="output format (default: text)"),
    ),
    "serve": (
        _arg("--serve", type=int, metavar="PORT",
             help="serve over HTTP on this port (0 picks a free one): "
                  "live mounts /events /status /metrics /healthz, "
                  "export-metrics a /metrics endpoint that re-collects "
                  "per scrape"),
        _arg("--host", default="127.0.0.1",
             help="bind address for --serve (default: 127.0.0.1)"),
    ),
}

#: Help for each positional a row names; a ``?`` or ``*`` suffix in the
#: row is the positional's nargs.
_POSITIONALS = {
    "scenario": "registered scenario name",
    "scenarios": "scenario names (default: every scenario with "
                 "expectations)",
    "scenario_a": "baseline scenario name",
    "scenario_b": "candidate scenario name",
    "run_a": "baseline run id (see `repro history`)",
    "run_b": "candidate run id",
}


class _Verb(NamedTuple):
    #: ``"cache stats"`` nests under the ``"cache"`` row.
    name: str
    #: Returns an exit code, or ``(payload, report, footer[, code])``
    #: for :func:`_emit`; ``None`` for a row that only groups verbs.
    func: Callable | None
    help: str
    positionals: tuple[str, ...] = ()
    #: Space-separated ``_GROUPS`` keys.
    groups: str = ""
    #: The verb's own ``_arg`` declarations.
    args: tuple = ()


_VERBS = (
    _Verb("list", _cmd_list, "list registered scenarios", groups="format"),
    _Verb(
        "run", _cmd_run, "run a scenario (incremental: resumes from cache)",
        ("scenario",), "overrides execution trace cache log format", (
            _arg("--force", action="store_true",
                 help="recompute every unit, overwriting cache entries"),
            _arg("--profile", action="store_true",
                 help="profile pending-unit evaluation with cProfile and "
                      "write profiles/<scenario>.pstats next to the cache "
                      "root (forces serial evaluation of the profiled "
                      "units)"),
            _arg("--distributed", action="store_true",
                 help="coordinate through the SQLite work queue: plan and "
                      "enqueue units, wait for `python -m repro worker` "
                      "processes to drain them, then reduce (bit-identical "
                      "to a serial run)"),
            _arg("--wait-timeout", type=float,
                 help="with --distributed: give up after this many seconds "
                      "without campaign completion (default: wait forever)"),
        ),
    ),
    _Verb(
        "worker", _cmd_worker,
        "drain a scenario's distributed work queue: claim -> evaluate -> "
        "persist -> complete under an expiring lease",
        ("scenario",), "overrides trace cache log", (
            _arg("--worker-id",
                 help="fleet-unique worker identity (default: "
                      "<hostname>-<pid>)"),
            _arg("--lease", type=float, default=60.0,
                 help="lease duration in seconds; a crashed worker's unit "
                      "is re-queued once its lease expires (default: 60)"),
            _arg("--poll", type=float, default=0.5,
                 help="seconds between claim attempts when the queue is "
                      "empty but units are still leased elsewhere "
                      "(default: 0.5)"),
            _arg("--idle-timeout", type=float, default=600.0,
                 help="exit (status 3) after this many seconds without "
                      "claimable work while units remain uncached; 0 or "
                      "less polls forever (default: 600)"),
            _arg("--max-units", type=int,
                 help="stop after this many claims (default: run until the "
                      "campaign is fully cached)"),
        ),
    ),
    _Verb(
        "status", _cmd_status, "cache completeness of a scenario",
        ("scenario",), "overrides cache log format",
    ),
    _Verb(
        "compare", _cmd_compare,
        "run two scenarios and diff their shared grid points",
        ("scenario_a", "scenario_b"),
        "overrides execution trace cache log format",
    ),
    _Verb(
        "validate", _cmd_validate,
        "judge scenarios against the golden-figure expectation table",
        ("scenarios*",), "execution cache log format", (
            _arg("--adaptive", action="store_true",
                 help="adaptive-precision execution: stop each cell at its "
                      "CI target instead of running the fixed trial "
                      "budget"),
            _arg("--budget", choices=tuple(BUDGETS), default="default",
                 help="fixed-budget preset: smoke (4 trials, 3 cells -- CI "
                      "gate), default (registered budget), full (100 "
                      "trials per cell)"),
            _arg("--precision", type=float,
                 help="target CI half-width for every metric (default: "
                      "the precision each scenario kind declares for "
                      "each of its metrics)"),
            _arg("--confidence", type=float,
                 help="confidence level for intervals and verdicts "
                      "(default 0.95)"),
            _arg("--interval", choices=("wilson", "jeffreys"),
                 help="proportion-interval construction (default "
                      "jeffreys)"),
            _arg("--round-size", type=int,
                 help="adaptive trials per cell per round (default 6)"),
            _arg("--min-trials", type=int,
                 help="adaptive floor per cell before stopping (default 6)"),
            _arg("--max-trials", type=int,
                 help="adaptive budget cap per cell (default 100)"),
            _arg("--strict", action="store_true",
                 help="treat inconclusive verdicts (CI straddles a bound) "
                      "as failures"),
        ),
    ),
    _Verb("cache", None, "inspect and clean the result cache"),
    _Verb(
        "cache stats", _cmd_cache_stats,
        "entries, bytes, and per-scenario counts", groups="cache log format",
    ),
    _Verb(
        "cache prune", _cmd_cache_prune, "drop cached scenario namespaces",
        groups="cache log", args=(
            _arg("--scenario",
                 help="prune every cached namespace of this scenario name"),
            _arg("--all", action="store_true",
                 help="prune the whole cache root"),
        ),
    ),
    _Verb(
        "report", _cmd_report,
        "diagnostics from a traced run: latency percentiles, cache hit "
        "rate, worker utilization, slowest units",
        ("scenario?",), "cache log format", (
            _arg("--run-id",
                 help="report a specific run (default: the most recent "
                      "trace)"),
            _arg("--list-runs", action="store_true",
                 help="list the matching traced runs instead of reporting "
                      "one"),
            _arg("--slowest", type=int, default=5,
                 help="how many slowest units to list (default: 5)"),
        ),
    ),
    _Verb(
        "live", _cmd_live,
        "real-time clinical monitor: stream a cohort's vitals, attack "
        "encounters, and alarms (optionally over SSE with --serve)",
        groups="serve log", args=(
            _arg("--patients", type=int, default=100,
                 help="monitored cohort size (default: 100)"),
            _arg("--seed", type=int, default=0,
                 help="cohort/run seed; same seed replays byte-identically "
                      "(default: 0)"),
            _arg("--duration", type=float, default=60.0,
                 help="simulated horizon in seconds (default: 60)"),
            _arg("--telemetry-interval", type=float, default=1.0,
                 help="simulated seconds between vitals ticks (default: 1)"),
            _arg("--speedup", type=float, default=1.0,
                 help="simulated seconds per wall second (default: 1 = "
                      "real time)"),
            _arg("--drain", action="store_true",
                 help="no pacing at all: dispatch the whole schedule as "
                      "fast as one core can (replay/benchmark mode)"),
            _arg("--bursts", type=int, default=1,
                 help="attack bursts to inject over the horizon "
                      "(default: 1)"),
            _arg("--burst-trials", type=int, default=5,
                 help="unauthorized commands per burst (default: 5)"),
            _arg("--command", choices=("therapy", "interrogate"),
                 default="therapy",
                 help="attack command each burst sends (default: therapy)"),
            _arg("--linger", type=float, default=0.0,
                 help="keep serving this many wall seconds after the "
                      "horizon so late subscribers drain (default: 0)"),
            _arg("--log-events", metavar="PATH",
                 help="write the canonical event/alarm log as JSONL to "
                      "PATH (two runs of one seed write identical bytes)"),
        ),
    ),
    _Verb(
        "top", _cmd_top,
        "live campaign view: cached units, queue depth, leases (stalled "
        "ones flagged), per-participant progress snapshots",
        ("scenario?",), "overrides cache log format", (
            _arg("--live", metavar="URL",
                 help="watch a running `repro live --serve` engine at URL "
                      "(polls its /status) instead of a campaign cache"),
            _arg("--interval", type=float, default=2.0,
                 help="seconds between polls (default: 2)"),
            _arg("--once", action="store_true",
                 help="print one snapshot and exit (CI / scripting mode)"),
        ),
    ),
    _Verb(
        "export-metrics", _cmd_export_metrics,
        "export campaign/queue/progress state in Prometheus text format: "
        "one-shot file (--output) or HTTP /metrics (--serve)",
        ("scenario",), "overrides serve cache log", (
            _arg("--output", default="-",
                 help="write the exposition to this file (default: '-', "
                      "stdout)"),
        ),
    ),
    _Verb(
        "history", _cmd_history,
        "recorded runs from <cache>/runs/history.jsonl (traced runs record "
        "automatically at finish)",
        ("scenario?",), "cache log format", (
            _arg("--limit", type=int,
                 help="show only the newest N entries (default: all)"),
        ),
    ),
    _Verb(
        "diff", _cmd_diff,
        "compare two recorded runs: stage latency percentiles, cache hit "
        "rate, throughput; flags regressions beyond --threshold",
        ("run_a", "run_b"), "cache log format", (
            _arg("--threshold", type=float, default=0.10,
                 help="relative regression threshold (default: 0.10 = "
                      "10%%)"),
            _arg("--strict", action="store_true",
                 help="exit non-zero when any metric regresses beyond the "
                      "threshold"),
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run, resume, and compare named reproduction campaigns.",
    )
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for verb in _VERBS:
        parent, _, name = verb.name.rpartition(" ")
        p = subparsers[parent].add_parser(name, help=verb.help)
        if verb.func is None:
            subparsers[name] = p.add_subparsers(
                dest=f"{name}_command", required=True
            )
            continue
        for spec in verb.positionals:
            dest = spec.rstrip("?*")
            p.add_argument(
                dest, nargs=spec[len(dest):] or None, help=_POSITIONALS[dest]
            )
        declared = [a for g in verb.groups.split() for a in _GROUPS[g]]
        for flags, options in (*verb.args, *declared):
            p.add_argument(*flags, **options)
        p.set_defaults(func=verb.func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging(getattr(args, "log_level", None))
    except ValueError as exc:  # junk REPRO_LOG
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = args.func(args)
        return result if isinstance(result, int) else _emit(args.format, *result)
    except KeyboardInterrupt:
        _log.warning(
            "interrupted -- completed units are cached; "
            "re-run to resume from where this stopped"
        )
        return 130
    except sqlite3.DatabaseError as exc:  # e.g. a junk results.sqlite
        print(
            f"error: cache store {_cache_root(args) / SQLiteStore.FILENAME} "
            f"is unreadable: {exc}",
            file=sys.stderr,
        )
        return 1
