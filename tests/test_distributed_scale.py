"""Distributed acceptance: 10,000 patients across crash-prone workers.

The ISSUE's acceptance bar: a 10k-patient fleet campaign run by 2+
``python -m repro worker`` processes against one SQLite cache root must
reduce bit-identically to the serial run -- including after one worker
is SIGKILLed mid-campaign, whose in-flight unit must be re-queued by
lease expiry and completed by a surviving worker.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.statistical]

_REPO = Path(__file__).resolve().parent.parent

_OVERRIDES = [
    "fleet-attack-prevalence",
    "--patients", "10000", "--trials", "1", "--chunk-size", "200",
]


def _spawn(verb: str, cache_dir: Path, *extra: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", verb, *_OVERRIDES,
         "--cache-dir", str(cache_dir), *extra],
        cwd=_REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _query_one(cache_dir: Path, sql: str) -> int:
    path = cache_dir / "results.sqlite"
    if not path.exists():
        return 0
    try:
        with sqlite3.connect(path, timeout=5.0) as conn:
            return conn.execute(sql).fetchone()[0]
    except sqlite3.Error:
        return 0


def _population_point(stdout: str) -> dict:
    payload = json.loads(stdout)
    (point,) = payload["points"]
    return point


class TestDistributedTenThousandPatients:
    def test_sigkill_worker_lease_requeue_and_serial_parity(self, tmp_path):
        serial_dir = tmp_path / "serial"
        dist_dir = tmp_path / "dist"

        # 1. The serial golden (one process, no queue).
        serial = _spawn("run", serial_dir, "--format", "json")

        # 2. A first worker with short leases; SIGKILL it once it is
        #    demonstrably mid-campaign: at least one unit persisted and
        #    one lease in flight (a unit being evaluated right now).
        victim = _spawn("worker", dist_dir, "--worker-id", "doomed",
                        "--lease", "3", "--poll", "0.05",
                        "--idle-timeout", "300")
        deadline = time.monotonic() + 180.0
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                pytest.fail(
                    "worker exited before it could be killed: "
                    + victim.communicate()[1]
                )
            cached = _query_one(dist_dir, "SELECT COUNT(*) FROM units")
            leased = _query_one(dist_dir, "SELECT COUNT(*) FROM leases")
            if cached >= 1 and leased >= 1:
                victim.kill()  # SIGKILL: no lease release, no cleanup
                break
            time.sleep(0.01)
        victim.wait(timeout=60)
        assert victim.returncode == -signal.SIGKILL
        # The dead worker's claim survives it: an orphan lease that only
        # expiry-based reaping can clear.
        assert _query_one(dist_dir, "SELECT COUNT(*) FROM leases") >= 1
        partial = _query_one(dist_dir, "SELECT COUNT(*) FROM units")

        # 3. Two survivors plus a coordinator share the same cache
        #    root.  The coordinator only plans/waits/reduces; the
        #    survivors must re-claim the orphaned unit once its 3 s
        #    lease expires and finish the remaining ~50 units.
        w2 = _spawn("worker", dist_dir, "--worker-id", "survivor-2",
                    "--lease", "10", "--poll", "0.05",
                    "--idle-timeout", "300")
        w3 = _spawn("worker", dist_dir, "--worker-id", "survivor-3",
                    "--lease", "10", "--poll", "0.05",
                    "--idle-timeout", "300")
        coordinator = _spawn("run", dist_dir, "--distributed",
                             "--wait-timeout", "600", "--format", "json")
        coord_out, coord_err = coordinator.communicate(timeout=900)
        assert coordinator.returncode == 0, coord_err
        for worker in (w2, w3):
            out, err = worker.communicate(timeout=300)
            assert worker.returncode == 0, err

        serial_out, serial_err = serial.communicate(timeout=900)
        assert serial.returncode == 0, serial_err

        # 4. Bit-identical population point, distributed vs serial.
        assert _population_point(coord_out) == _population_point(serial_out)
        payload = json.loads(coord_out)
        assert payload["units"]["total"] == 50
        # The campaign made progress both before and after the kill.
        assert 0 < partial < 50

        # 5. The queue drained completely: no rows, no leases left.
        assert _query_one(dist_dir, "SELECT COUNT(*) FROM queue") == 0
        assert _query_one(dist_dir, "SELECT COUNT(*) FROM leases") == 0
        assert _query_one(dist_dir, "SELECT COUNT(*) FROM units") == 50
