"""Import-order independence and the cold-start fence.

Circular imports only bite when a subpackage is imported *first*; the
test suite normally imports things in a fixed order, so each candidate
is probed in a fresh interpreter.

The cold-start fence keeps start-up lean, with no timing assertion:
the package runs with scipy's import blocked, no subpackage pulls
scipy in, and ``repro.experiments`` loads only the modules a caller
names.
"""

import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro",
    "repro.sim",
    "repro.hw",
    "repro.ib",
    "repro.xen",
    "repro.ibmon",
    "repro.resex",
    "repro.benchex",
    "repro.faults",
    "repro.finance",
    "repro.workloads",
    "repro.experiments",
    "repro.analysis",
    "repro.telemetry",
    "repro.parallel",
    "repro.supervise",
    "repro.service",
    "repro.cli",
]


def _run(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    return proc.stdout


@pytest.mark.parametrize("modname", SUBPACKAGES)
def test_subpackage_imports_first(modname):
    _run(f"import {modname}")


def test_runs_with_scipy_blocked():
    out = _run(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import repro.cli, repro.service, repro.experiments.cluster\n"
        "from repro.experiments import run_scenario\n"
        "result = run_scenario('perfbench', sim_s=0.01)\n"
        "print(result.sim_time_ns)\n"
    )
    assert int(out) > 0


def test_no_subpackage_imports_scipy():
    out = _run(
        "".join(f"import {name}\n" for name in SUBPACKAGES)
        + "import sys\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert out.strip() == "[]"


def test_experiments_loads_only_what_is_named():
    out = _run(
        "import sys\n"
        "from repro.experiments import build_scenario\n"
        "print([m for m in ('repro.experiments.figures', 'repro.parallel.engine')"
        " if m in sys.modules])\n"
    )
    assert out.strip() == "[]"
