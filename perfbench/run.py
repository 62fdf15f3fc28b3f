"""Whole-campaign benchmark of the IMD-shield reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload physio-leakage --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One invocation runs one workload (``all`` runs the four serially, one
process each).  It measures set-up in fresh processes, then repeats the
workload until ``--seconds`` have passed, checks every repetition's
outputs, and prints one human line per figure followed, as its last
line, by a JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Between repetitions it times a fixed reference pass that uses nothing
from ``repro`` (see :func:`reference_pass`).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of
the tracing shim in ``layers.py``.  See README.md in this directory.

The benchmark imports ``repro`` from ``src/`` of the checkout it sits
in and exits with status 2, printing no result, when that is missing.
A failed output check exits with status 1 after printing the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
#: Inside the checkout, ignored by git; one fresh directory per run.
SCRATCH = ROOT / ".perfbench-tmp"

WORKLOADS = ("physio-leakage", "fleet-privacy", "attack-queue", "live-ward")

#: One BLAS thread: the workloads are serial, and a thread pool sized
#: to the host adds start-up cost and run-to-run noise.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Environment knobs that change how ``repro`` executes; cleared so
#: every run resolves the same defaults.
HERMETIC_ENV = (
    "REPRO_WORKERS",
    "REPRO_TRACE",
    "REPRO_PROGRESS",
    "REPRO_ACCEL",
    "REPRO_TRANSPORT",
    "REPRO_CACHE_BACKEND",
    "REPRO_CACHE_DIR",
    "REPRO_LOG",
)

#: End-to-end metrics (``--trace 0``) and their units.  ``wall_ref``
#: counts reference passes; see :func:`wall_in_reference_passes`.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}

#: Fresh-process set-up probes per run, by size.
SETUP_PROBES = {"full": 3, "tiny": 1}

#: Seconds of one reference pass on the 2-vCPU VM in its fast state;
#: ``setup_s`` is reported at this speed.
REFERENCE_S = 0.035


def make_hermetic() -> None:
    """Clear and pin this process's environment; children inherit it."""
    for name in HERMETIC_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="measure for this long (at least one repetition)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny is for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def setup_probe(args) -> None:
    """Child side of ``setup_s``: import, fill the registry, plan; then
    two reference passes, which gauge the host's speed at that moment."""
    start = perf_counter()
    import workloads

    workloads.plan(args.workload, args.seed, args.size)
    setup = perf_counter() - start
    reference = (reference_pass() + reference_pass()) / 2
    print(f"{setup!r} {reference!r}")


def measure_setup(args) -> tuple[float, float]:
    """Set-up over fresh processes: the median probe's wall seconds,
    and the median probe in reference passes times ``REFERENCE_S``."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    samples = []
    for _ in range(SETUP_PROBES[args.size]):
        probe = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, reference = probe.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(reference)))
    print("setup probes " + " ".join(f"{s:.4f}/{r:.4f}" for s, r in samples))
    return (
        statistics.median(s for s, _ in samples),
        REFERENCE_S * statistics.median(s / r for s, r in samples),
    )


def environment_line() -> str:
    import numpy
    from repro.accel import resolve_backend

    return (
        f"env accel={resolve_backend()} python={platform.python_version()} "
        f"numpy={numpy.__version__} nproc={os.cpu_count()}"
    )


def load_pins(size: str, workload: str, seed: int) -> dict:
    """Pinned digests for this run; only seed 0 is pinned."""
    if seed != 0:
        return {}
    return json.loads(PINS.read_text())[size][workload]


def check_digests(reps, pins: dict) -> list[str]:
    """Every repetition's digests equal the first's, and the pins."""
    problems = []
    first = reps[0].digests
    for index, rep in enumerate(reps[1:], start=1):
        if rep.digests != first:
            problems.append(f"repetition {index} digests differ from repetition 0")
    for label, digest in pins.items():
        if first.get(label) != digest:
            problems.append(
                f"{label}: digest {first.get(label)} != pinned {digest}"
            )
    return problems


def reference_pass() -> float:
    """Seconds for one fixed pass of interpreter loops, small numpy
    calls and FFTs, the kinds of work the workloads spend their time in.

    It uses nothing from ``repro``, so a change to the program leaves it
    alone.  The 2-vCPU VM it was tuned on switches between fast and
    slow states every few seconds; a slow state stretches interpreter
    loops and small numpy calls by about 1.6-1.8x, FFTs by 1.35x and the
    workloads by 1.5-1.7x.  This mix stretches about as much as the
    workloads, so a repetition timed in the passes around it keeps most
    of a change to the program and loses most of the host's drift.
    """
    import numpy

    row = numpy.random.default_rng(0).standard_normal(256)
    block = numpy.random.default_rng(1).standard_normal((32, 4096))
    start = perf_counter()
    total, table = 0, {}
    for i in range(100_000):
        total += i * i % 7
        table[i & 1023] = total
    for _ in range(2_000):
        numpy.diff(row * 2.0).argmax()
    for _ in range(6):
        spectrum = numpy.fft.rfft(block, axis=1)
        numpy.sort(numpy.fft.irfft(spectrum, axis=1), axis=1)
    return perf_counter() - start


#: Reference passes around a repetition that differ by more than this
#: share mean the host changed state during it.
STEADY_SHARE = 0.15


def wall_in_reference_passes(reps, refs) -> float:
    """Median over repetitions of wall time / mean of the reference
    passes before and after it.

    Only repetitions during which the host held its speed -- the two
    passes agree within ``STEADY_SHARE`` -- count, unless there are
    none.
    """
    ratios, steady = [], []
    for rep, before, after in zip(reps, refs, refs[1:]):
        ratio = rep.wall_s / ((before + after) / 2)
        ratios.append(ratio)
        if abs(before - after) <= STEADY_SHARE * min(before, after):
            steady.append(ratio)
    return statistics.median(steady or ratios)


def run_reps(args, scratch: Path) -> tuple[list, list[float]]:
    """Repeat the workload for about ``--seconds``.

    Returns ``(repetition, trace)`` pairs, ``trace`` being ``None`` when
    untraced, and the reference passes timed before the first
    repetition and after each.  With ``--trace 1`` repetitions alternate
    untraced / traced, starting untraced, and at least one of each runs.
    """
    import workloads
    from layers import LayerTrace

    reps, refs = [], [reference_pass()]
    start = perf_counter()
    minimum = 2 if args.trace else 1
    while True:
        gc.collect()  # every repetition starts from a collected heap
        trace = LayerTrace() if args.trace and len(reps) % 2 else None
        if trace is None:
            rep = workloads.run_once(
                args.workload, args.seed, args.size, scratch
            )
        else:
            with trace:
                rep = workloads.run_once(
                    args.workload, args.seed, args.size, scratch
                )
        reps.append((rep, trace))
        refs.append(reference_pass())
        elapsed = perf_counter() - start
        # Stop before a repetition that would likely overrun the window.
        if len(reps) >= minimum and elapsed * (1 + 1 / len(reps)) > args.seconds:
            return reps, refs


def timed_s(rep) -> float:
    """Everything a repetition timed: the cold run plus any warm pass."""
    return rep.wall_s + rep.warm_s


def end_to_end_metrics(reps, refs, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_ref": wall_in_reference_passes(reps, refs),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
    }


def per_layer_metrics(pairs) -> dict[str, float]:
    """Means over the traced repetitions (means keep sums exact)."""
    per_rep = []
    for rep, trace in pairs:
        if trace is None:
            continue
        values = trace.metrics()
        values["trace.wall_s"] = timed_s(rep)
        values["trace.unattributed_s"] = timed_s(rep) - trace.top_level_s
        values["hub.delivered_ratio"] = rep.delivered_ratio
        per_rep.append(values)
    metrics = {
        name: statistics.fmean(values[name] for values in per_rep)
        for name in per_rep[0]
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(
        timed_s(rep) for rep, trace in pairs if trace is None
    )
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace}"
    )
    print(environment_line(), flush=True)
    setup_wall_s, setup_s = (0.0, 0.0) if args.trace else measure_setup(args)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        pairs, refs = run_reps(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    reps = [rep for rep, _ in pairs]
    attempted = sum(rep.attempted for rep in reps)
    problems = check_digests(
        reps, load_pins(args.size, args.workload, args.seed)
    )
    if problems:
        failed = attempted
    else:
        failed = sum(rep.attempted for rep in reps if rep.problems)
    for index, rep in enumerate(reps):
        problems.extend(f"repetition {index}: {p}" for p in rep.problems)
    print("repetition wall_s " + " ".join(f"{r.wall_s:.4f}" for r in reps))
    print("reference_s " + " ".join(f"{s:.4f}" for s in refs))
    for label, digest in reps[0].digests.items():
        print(f"digest {label} {digest}")
    for problem in problems:
        print(f"problem {problem}")
    human = {
        "repetitions": (len(reps), "count"),
        "error_rate": (failed / attempted if attempted else 1.0, "ratio"),
    }
    if args.trace:
        metrics = per_layer_metrics(pairs)
    else:
        metrics = end_to_end_metrics(reps, refs, setup_s)
        ops_per_s = statistics.median(r.attempted / r.wall_s for r in reps)
        human["wall_s"] = (statistics.median(r.wall_s for r in reps), "s")
        human["ops_per_s"] = (ops_per_s, "1/s")
        human["reference_s"] = (statistics.median(refs), "s")
        human["setup_wall_s"] = (setup_wall_s, "s")
        if args.workload == "attack-queue":
            human["warm_s"] = (statistics.median(r.warm_s for r in reps), "s")
        if args.workload == "live-ward":
            human["events_per_s"] = (ops_per_s, "1/s")
    for name, (value, unit) in human.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, serially; one merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        child = subprocess.run(command, capture_output=True, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            sys.stderr.write(child.stderr)
            return child.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
        status = max(status, child.returncode)
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    make_hermetic()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
