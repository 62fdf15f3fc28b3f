"""Cold start: the package's entry points load no scipy module.

``import scipy.signal`` alone costs about a second, and most processes
the system starts -- ``repro worker``, the CLI's reporting verbs, the
live ward -- never call scipy.  So no module under ``src/repro`` imports
scipy at module level; the functions that need it import it on first
call.  Each probe runs in a fresh interpreter, because this test
session has scipy loaded already.
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


def _scipy_modules_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT + code],
        cwd=_REPO,
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
