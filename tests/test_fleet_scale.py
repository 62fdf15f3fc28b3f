"""Population-scale acceptance: 10,000 patients through the SQLite cache.

The fleet subsystem's reason to exist: a cohort two orders of magnitude
past the figure grids must (1) complete through the campaign runner on
the SQLite backend, (2) keep peak memory bounded by the shard size --
the streaming-reduction contract, checked here as sub-linear RSS growth
between a 2k and a 10k cohort, (3) resume bit-identically after a
SIGKILL mid-run, and (4) reduce serial == parallel.
"""

import json
import os
import resource
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.statistical]

_REPO = Path(__file__).resolve().parent.parent

_RUN_ARGS = [
    "run", "fleet-attack-prevalence",
    "--patients", "10000", "--trials", "1", "--chunk-size", "200",
    "--cache-backend", "sqlite",
]


def _spawn(cache_dir: Path, *extra: str, patients: str = "10000"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    args = list(_RUN_ARGS)
    args[args.index("--patients") + 1] = patients
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args,
         "--cache-dir", str(cache_dir), *extra],
        cwd=_REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _cached_units(cache_dir: Path) -> int:
    path = cache_dir / "results.sqlite"
    if not path.exists():
        return 0
    try:
        with sqlite3.connect(path, timeout=5.0) as conn:
            return conn.execute("SELECT COUNT(*) FROM units").fetchone()[0]
    except sqlite3.Error:
        return 0


def _population_point(stdout: str) -> dict:
    payload = json.loads(stdout)
    (point,) = payload["points"]
    return point


class TestTenThousandPatients:
    def test_sigkill_resume_and_serial_parallel_parity(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        pristine = tmp_path / "pristine"

        # 1. Start the 10k run and SIGKILL it once a few shards are in
        #    the SQLite cache (mid-run by construction: 50 shards).
        victim = _spawn(interrupted)
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if _cached_units(interrupted) >= 3:
                victim.kill()  # SIGKILL: no cleanup, WAL must cope
                break
            time.sleep(0.01)
        victim.wait(timeout=60)
        was_killed = victim.returncode == -signal.SIGKILL
        partial = _cached_units(interrupted)
        assert partial > 0, "no shards were flushed before the kill"

        # 2. Resume against the survivor DB; control in a fresh one.
        resumed = _spawn(interrupted, "--format", "json")
        control = _spawn(pristine, "--format", "json")
        resumed_out, _ = resumed.communicate(timeout=600)
        control_out, _ = control.communicate(timeout=600)
        assert resumed.returncode == 0
        assert control.returncode == 0

        resumed_point = _population_point(resumed_out)
        control_point = _population_point(control_out)
        assert resumed_point == control_point  # bit-identical reduction
        if was_killed:
            assert json.loads(resumed_out)["units"]["from_cache"] >= partial

        # 3. Parallel execution over the warm-plus-fresh cache mix must
        #    also agree, and a warm re-read computes nothing.
        parallel = _spawn(pristine, "--format", "json", "--workers", "4")
        parallel_out, _ = parallel.communicate(timeout=600)
        assert parallel.returncode == 0
        parallel_payload = json.loads(parallel_out)
        assert parallel_payload["units"]["computed"] == 0
        (parallel_point,) = parallel_payload["points"]
        assert parallel_point == control_point

    def test_parallel_from_cold_matches_serial(self, tmp_path):
        serial = _spawn(tmp_path / "serial", "--format", "json",
                        patients="2000")
        parallel = _spawn(tmp_path / "parallel", "--format", "json",
                          "--workers", "4", patients="2000")
        serial_out, _ = serial.communicate(timeout=600)
        parallel_out, _ = parallel.communicate(timeout=600)
        assert serial.returncode == 0
        assert parallel.returncode == 0
        assert _population_point(serial_out) == _population_point(
            parallel_out
        )

    def test_rss_is_bounded_by_shard_not_cohort(self, tmp_path):
        """Streaming reduction: 5x the patients, ~same peak memory.

        ``ru_maxrss`` of a fresh subprocess is dominated by the
        interpreter + numpy + package imports (scipy loads only on the
        first call that needs it); the campaign's own working set must
        stay at the shard scale, so the 10k cohort may not cost more
        than a modest margin over the 2k cohort.
        """

        def peak_rss_mb(patients: str, cache: Path) -> float:
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            proc = _spawn(cache, patients=patients)
            out, err = proc.communicate(timeout=900)
            assert proc.returncode == 0, err
            after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            # ru_maxrss(CHILDREN) is a high-water mark across children;
            # run the larger cohort second so a regression (growth with
            # cohort size) is always visible in `after`.
            return max(before, after) / 1024.0

        small = peak_rss_mb("2000", tmp_path / "small")
        large = peak_rss_mb("10000", tmp_path / "large")
        assert large <= small * 1.5 + 64.0, (
            f"peak RSS grew with cohort size: {small:.0f} MB -> "
            f"{large:.0f} MB"
        )
