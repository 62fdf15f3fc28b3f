"""Cold start: the package's entry points load no scipy module.

``import scipy.signal`` alone costs about a second, and most processes
the system starts -- ``repro worker``, the CLI's reporting verbs, the
live ward -- never call scipy.  So no module under ``src/repro`` imports
scipy at module level; the functions that need it import it on first
call.  Judging a claim needs no scipy at all: the interval quantiles
are computed in :mod:`repro.stats.intervals`.  Each probe runs in a
fresh interpreter, because this test session has scipy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parent.parent

#: Printed to stderr at interpreter exit, after the probed code ran.
_REPORT = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write('scipy modules: ' + ' '.join("
    "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) + '\\n'))\n"
)


def _scipy_modules_after(code: str, cwd: Path = _REPO) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT + code],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = [
        ln for ln in proc.stderr.splitlines() if ln.startswith("scipy modules:")
    ]
    return line.split()[2:]


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.campaigns",
        "repro.campaigns.cli",
        "repro.campaigns.worker",
        "repro.live.engine",
    ],
)
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}\n") == []


def test_cli_list_loads_no_scipy():
    """``python -m repro list``: every scenario registered, none run."""
    code = (
        "import runpy\n"
        "sys.argv = ['repro', 'list']\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )
    assert _scipy_modules_after(code) == []


def test_judging_claims_loads_no_scipy():
    """Every interval a verdict or a stopping rule needs, at a confidence
    outside the legacy z table too."""
    code = (
        "import numpy as np\n"
        "from repro.fleet.metrics import QuantileSketch\n"
        "from repro.stats import (Expectation, MeanEstimator,\n"
        "    SequentialEstimator, evaluate_expectation, jeffreys_interval,\n"
        "    mean_interval, normal_quantile)\n"
        "from repro.stats.expectations import CellStats\n"
        "cells = [CellStats(1, 'cell 1', {\n"
        "    'p': SequentialEstimator(3, 40),\n"
        "    'ber': MeanEstimator(30, 14.7, 7.5, bounds=(0.0, 1.0))})]\n"
        "for claim in (\n"
        "    Expectation(metric='p', kind='upper_bound', value=0.5),\n"
        "    Expectation(metric='ber', kind='ci_overlap', value=0.5,\n"
        "                tolerance=0.05)):\n"
        "    evaluate_expectation(claim, cells, confidence=0.999)\n"
        "jeffreys_interval(3, 40)\n"
        "mean_interval(5, 2.5, 1.3)\n"
        "normal_quantile(0.8)\n"
        "sketch = QuantileSketch(0.0, 200.0, 100)\n"
        "sketch.add_many(np.linspace(10.0, 90.0, 500))\n"
        "sketch.quantile_interval(0.5, 0.999)\n"
    )
    assert _scipy_modules_after(code) == []


def test_cli_validate_loads_no_scipy(tmp_path):
    """``python -m repro validate``: an attack scenario run and judged."""
    code = (
        "import runpy\n"
        "sys.argv = ['repro', 'validate', 'attack-success-shielded',\n"
        "            '--budget', 'smoke', '--cache-dir', 'cache']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )
    assert _scipy_modules_after(code, cwd=tmp_path) == []
