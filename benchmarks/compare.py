#!/usr/bin/env python
"""Perf-primitive regression gate.

Runs the ``benchmarks/test_perf_primitives.py`` suite with
``pytest-benchmark``, exports the raw results to ``BENCH_<label>.json``,
and compares each primitive's best (minimum) time against a stored baseline
(``benchmarks/BENCH_baseline.json`` by default).  Exits nonzero when any
primitive regresses by more than the threshold (25% by default), so CI
can gate merges on sweep throughput.

Usage::

    PYTHONPATH=src python benchmarks/compare.py                  # gate
    PYTHONPATH=src python benchmarks/compare.py --label pr42     # custom label
    PYTHONPATH=src python benchmarks/compare.py --update-baseline

``--update-baseline`` rewrites the stored baseline from the fresh run
(use after an intentional perf change, and commit the result).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_BASELINE = BENCH_DIR / "BENCH_baseline.json"
#: The gated suites: DSP primitives, the physiological telemetry hot
#: paths (ECG synthesis, codec, batch eavesdropping, inference), the
#: fleet hot paths (cohort synthesis, shard reduction, SQLite cache
#: throughput), the hot numpy kernels (jam colouring, FSK decisions,
#: ECG scatter-add, HR autocorrelation, beat suppression), the
#: observability layer (always-on metrics hooks, span emission,
#: traced-vs-untraced campaign overhead), the live monitor (unpaced
#: engine drain throughput, streaming fan-out at 100 subscribers), and
#: cold start (a fresh interpreter importing the worker).
GATED_SUITES = (
    BENCH_DIR / "test_perf_primitives.py",
    BENCH_DIR / "test_perf_physio.py",
    BENCH_DIR / "test_perf_fleet.py",
    BENCH_DIR / "test_perf_accel.py",
    BENCH_DIR / "test_perf_obs.py",
    BENCH_DIR / "test_perf_live.py",
    BENCH_DIR / "test_perf_startup.py",
)


def run_benchmarks(label: str) -> Path:
    """Run the gated perf suites, exporting pytest-benchmark JSON."""
    out_path = BENCH_DIR / f"BENCH_{label}.json"
    command = [
        sys.executable,
        "-m",
        "pytest",
        *[str(path) for path in GATED_SUITES],
        "-q",
        "--benchmark-only",
        f"--benchmark-json={out_path}",
    ]
    result = subprocess.run(command, cwd=REPO_ROOT)
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed (exit {result.returncode})")
    return out_path


def load_mins(path: Path) -> dict[str, float]:
    """Best (min) seconds per benchmark name from a pytest-benchmark export.

    The minimum is the standard noise-robust statistic for shared CI
    boxes: background load only ever makes a run slower.
    """
    data = json.loads(path.read_text())
    out = {}
    for bench in data.get("benchmarks", []):
        stats = bench["stats"]
        value = stats["min"] if "min" in stats else stats["mean"]
        out[bench["name"]] = float(value)
    return out


def compare(
    baseline: dict[str, float], current: dict[str, float], threshold: float
) -> list[str]:
    """Regression report lines for every benchmark beyond the threshold."""
    failures = []
    for name in sorted(baseline):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        base = baseline[name]
        now = current[name]
        if base <= 0:
            continue
        ratio = now / base
        marker = "REGRESSION" if ratio > 1.0 + threshold else "ok"
        print(
            f"  {name:45s} baseline {base * 1e3:9.3f} ms  "
            f"current {now * 1e3:9.3f} ms  x{ratio:5.2f}  {marker}"
        )
        if ratio > 1.0 + threshold:
            failures.append(
                f"{name}: {now * 1e3:.3f} ms vs baseline "
                f"{base * 1e3:.3f} ms (x{ratio:.2f} > x{1.0 + threshold:.2f})"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"  {name:45s} (new benchmark, no baseline)")
    return failures


def markdown_table(
    baseline: dict[str, float], current: dict[str, float], threshold: float
) -> str:
    """Per-benchmark speedup/regression table as GitHub-flavoured markdown.

    ``speedup`` is baseline/current (>1 means this run is faster); CI
    uploads the rendered table as an artifact next to the raw export so
    reviewers read the perf delta without parsing JSON.
    """
    lines = [
        "| benchmark | baseline (ms) | current (ms) | speedup | status |",
        "|---|---:|---:|---:|---|",
    ]
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        now = current.get(name)
        if base is None:
            lines.append(
                f"| {name} | - | {now * 1e3:.3f} | - | new |"
            )
            continue
        if now is None:
            lines.append(f"| {name} | {base * 1e3:.3f} | - | - | missing |")
            continue
        if base <= 0:
            continue
        speedup = base / now
        status = "regression" if now / base > 1.0 + threshold else "ok"
        lines.append(
            f"| {name} | {base * 1e3:.3f} | {now * 1e3:.3f} "
            f"| {speedup:.2f}x | {status} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--label", default="current", help="suffix for BENCH_<label>.json"
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="stored baseline JSON to compare against",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="compare an existing export instead of running the suite",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the stored baseline from this run and exit 0",
    )
    parser.add_argument(
        "--markdown",
        type=Path,
        default=None,
        help="also write a speedup/regression table (markdown) here",
    )
    args = parser.parse_args(argv)

    export = args.json or run_benchmarks(args.label)
    current = load_mins(export)
    if not current:
        print("no benchmarks found in export", file=sys.stderr)
        return 2

    if args.update_baseline:
        # Store only what compare() needs -- the raw export carries full
        # machine info and every timing sample (megabytes).
        slim = {
            "benchmarks": [
                {"name": name, "stats": {"min": best}}
                for name, best in sorted(current.items())
            ]
        }
        args.baseline.write_text(json.dumps(slim, indent=2) + "\n")
        print(f"baseline updated: {args.baseline} ({len(current)} benchmarks)")
        return 0

    if not args.baseline.exists():
        print(
            f"no baseline at {args.baseline}; run with --update-baseline first",
            file=sys.stderr,
        )
        return 2

    baseline = load_mins(args.baseline)
    print(f"comparing {export.name} against {args.baseline.name} "
          f"(threshold +{args.threshold:.0%}):")
    failures = compare(baseline, current, args.threshold)
    if args.markdown is not None:
        args.markdown.write_text(
            markdown_table(baseline, current, args.threshold)
        )
        print(f"\nmarkdown table written to {args.markdown}")
    if failures:
        print("\nperf regressions detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nall perf primitives within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
