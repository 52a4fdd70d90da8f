"""Golden-run byte-identity: the fence around every fast-path change.

The fixtures under ``tests/golden/`` were captured by
``tools/capture_golden.py`` and are the *reference semantics* of the
simulator: a fully traced managed run (which pins the complete
telemetry record stream of every layer, including the kernel's
events-processed counters — so event count, order and timing are all
immovable), a chaos-campaign ResilienceReport (which pins the
fault-injection path end to end), a service replay, and every credit
slice of seeded programs on PCPUs shared by up to three VCPUs.

Any PR may make the simulator faster; no PR may make these outputs
differ by a single byte without regenerating the fixtures and saying
so in the commit message.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _load_capture_golden():
    spec = importlib.util.spec_from_file_location(
        "capture_golden", _TOOLS / "capture_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("capture_golden", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def capture_golden():
    return _load_capture_golden()


def test_managed_trace_is_byte_identical(capture_golden):
    golden = (GOLDEN_DIR / capture_golden.TRACE_NAME).read_text()
    produced = capture_golden.golden_trace_bytes()
    assert produced == golden, (
        "the managed-run Chrome trace drifted from the golden fixture; "
        "if the behaviour change is intentional, regenerate with "
        "`PYTHONPATH=src python tools/capture_golden.py` and say so in "
        "the commit message"
    )


def test_chaos_report_is_byte_identical(capture_golden):
    golden = (GOLDEN_DIR / capture_golden.CHAOS_NAME).read_text()
    produced = capture_golden.golden_chaos_bytes()
    assert produced == golden, (
        "the fig9 link-flap ResilienceReport drifted from the golden "
        "fixture; if the behaviour change is intentional, regenerate "
        "with `PYTHONPATH=src python tools/capture_golden.py` and say "
        "so in the commit message"
    )


def test_service_replay_is_byte_identical(capture_golden):
    golden = (GOLDEN_DIR / capture_golden.SERVICE_NAME).read_text()
    produced = capture_golden.golden_service_bytes()
    assert produced == golden, (
        "the service_smoke replay response log drifted from the golden "
        "fixture; if the behaviour change is intentional, regenerate "
        "with `PYTHONPATH=src python tools/capture_golden.py` and say "
        "so in the commit message"
    )


def test_credit_slices_are_byte_identical(capture_golden):
    golden = (GOLDEN_DIR / capture_golden.CREDIT_NAME).read_text()
    produced = capture_golden.golden_credit_bytes()
    assert produced == golden, (
        "the credit scheduler's slices on crowded PCPUs drifted from the "
        "golden fixture; if the behaviour change is intentional, "
        "regenerate with `PYTHONPATH=src python tools/capture_golden.py` "
        "and say so in the commit message"
    )


def test_golden_runs_are_repeatable(capture_golden):
    """Two in-process runs at the same seed produce the same bytes —
    the determinism claim underlying the fixtures themselves."""
    assert (
        capture_golden.golden_chaos_bytes()
        == capture_golden.golden_chaos_bytes()
    )
