"""Cold-start benchmark: a fresh interpreter importing the worker.

Every ``repro worker`` draining a queue, every CLI verb and the live
ward pays the package's import cost before doing any work.  This entry
times ``python -c "import repro.campaigns.worker"`` end to end, so a new
eager import of a heavyweight dependency anywhere on that import graph
shows up in ``compare.py``'s gate, including one that
``tests/test_import_cost.py`` does not name.
"""

import os
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent


def test_perf_startup_import_worker(benchmark):
    """Fresh-interpreter ``import repro.campaigns.worker``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, "-c", "import repro.campaigns.worker"]

    def run():
        return subprocess.run(command, cwd=_REPO, env=env).returncode

    returncode = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert returncode == 0
