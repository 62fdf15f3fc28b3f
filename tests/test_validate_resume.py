"""Interrupt/resume for adaptive validation: SIGKILL mid-round, resume from cache.

Adaptive validation's resume contract: stopping decisions are pure
functions of cached round-unit results, so a ``repro validate
--adaptive`` run killed (SIGKILL -- no cleanup, no atexit) part-way
through its rounds must, when re-run against the same cache, land on
bit-identical per-cell trial counts, estimates, and verdicts to a run
that was never interrupted.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = [pytest.mark.slow, pytest.mark.statistical]

_REPO = Path(__file__).resolve().parent.parent

#: A run big enough that the kill reliably lands mid-flight: a tight
#: precision target on the passive grid forces many rounds of waveform
#: batches (a few seconds of work), and every completed unit is flushed
#: to the cache as it finishes.
_VALIDATE_ARGS = [
    "validate", "passive-ber-by-location",
    "--adaptive", "--precision", "0.003", "--round-size", "6",
    "--max-trials", "200",
]


def _spawn(cache_dir: Path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *_VALIDATE_ARGS,
         "--cache-dir", str(cache_dir), *extra],
        cwd=_REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _cell_fingerprint(payload: dict) -> list[tuple]:
    """The stopping decisions: per-cell trials and estimates, per-claim
    verdicts."""
    (scenario,) = payload["scenarios"]
    cells = []
    for expectation in scenario["expectations"]:
        for cell in expectation["cells"]:
            cells.append(
                (cell["axis"], cell["n"], cell["estimate"], cell["verdict"])
            )
    return cells


class TestSigkillResume:
    def test_killed_mid_round_resumes_to_identical_stopping_decisions(
        self, tmp_path, cached_unit_count
    ):
        interrupted_cache = tmp_path / "interrupted"
        pristine_cache = tmp_path / "pristine"

        # 1. Start the adaptive validate and SIGKILL it as soon as the
        #    first completed units hit the cache (mid-round by
        #    construction: the round holds 18 location cells).
        victim = _spawn(interrupted_cache)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if cached_unit_count(interrupted_cache):
                victim.kill()  # SIGKILL: no Python-level cleanup runs
                break
            time.sleep(0.01)
        victim.wait(timeout=60)
        # Overwhelmingly the kill lands first (the run takes seconds);
        # if the machine raced the process to completion the resume
        # assertions below still hold, just less interestingly.
        was_killed = victim.returncode == -signal.SIGKILL
        partial = cached_unit_count(interrupted_cache)
        assert partial > 0, "no units were flushed before the kill"

        # 2. Resume against the survivor cache; run the control in a
        #    fresh one.  Both to completion.
        resumed = _spawn(interrupted_cache, "--format", "json")
        control = _spawn(pristine_cache, "--format", "json")
        resumed_out, _ = resumed.communicate(timeout=300)
        control_out, _ = control.communicate(timeout=300)
        assert resumed.returncode == 0
        assert control.returncode == 0

        resumed_payload = json.loads(resumed_out)
        control_payload = json.loads(control_out)

        # 3. Bit-identical stopping decisions: same per-cell trial
        #    counts, same estimates, same verdicts, same round count.
        assert _cell_fingerprint(resumed_payload) == _cell_fingerprint(
            control_payload
        )
        (resumed_scenario,) = resumed_payload["scenarios"]
        (control_scenario,) = control_payload["scenarios"]
        assert resumed_scenario["rounds"] == control_scenario["rounds"]
        assert (
            resumed_scenario["trials_used"] == control_scenario["trials_used"]
        )
        assert resumed_payload["verdict"] == control_payload["verdict"]

        if was_killed:
            # The resumed run must actually have reused the survivor
            # units rather than recomputing the world.
            assert resumed_scenario["units"]["from_cache"] >= partial

        # 4. And a third pass over the now-complete cache is pure
        #    statistics: zero computed units.
        warm = _spawn(interrupted_cache, "--format", "json")
        warm_out, _ = warm.communicate(timeout=300)
        assert warm.returncode == 0
        (warm_scenario,) = json.loads(warm_out)["scenarios"]
        assert warm_scenario["units"]["computed"] == 0
        assert _cell_fingerprint(json.loads(warm_out)) == _cell_fingerprint(
            control_payload
        )
