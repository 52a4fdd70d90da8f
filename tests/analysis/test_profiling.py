"""Profiler layer buckets are derived from the module's package path."""

import inspect

import pytest

from repro.analysis.profiling import BUCKETS, bucket_of, profile_call
from repro.sim.shard import Mailbox


@pytest.mark.parametrize(
    "module, bucket",
    [
        ("sim/core.py", "kernel"),
        ("sim/resources.py", "kernel"),
        ("sim/frames.py", "barrier"),
        ("sim/checkpoint.py", "barrier"),
        ("hw/fabric.py", "fabric"),
        ("ib/hca.py", "fabric"),
        ("xen/credit.py", "xen"),
        ("resex/controller.py", "resex"),
        ("ibmon/monitor.py", "resex"),
        ("benchex/server.py", "apps"),
        ("finance/workload.py", "apps"),
        ("workloads/traces.py", "apps"),
        ("experiments/scenarios.py", "runtime"),
        ("service/gateway.py", "runtime"),
    ],
)
def test_bucket_follows_the_package(module, bucket):
    assert bucket_of(f"/checkout/src/repro/{module}") == bucket


def test_shard_module_splits_mailbox_from_barrier():
    lines, start = inspect.getsourcelines(Mailbox)
    path = inspect.getsourcefile(Mailbox)
    assert bucket_of(path, start + 1) == "mailbox"
    assert bucket_of(path, start + len(lines) + 1) == "barrier"


def test_outside_the_package_is_other():
    assert bucket_of("/usr/lib/python3/heapq.py") == "other"
    assert bucket_of("/checkout/tests/sim/test_core.py") == "other"


def test_buckets_partition_a_scenario_run():
    from repro.experiments.scenarios import run_scenario

    _, report = profile_call(lambda: run_scenario("fig1", seed=7, sim_s=0.005))
    assert tuple(report.buckets) == BUCKETS
    assert report.profiled_s == pytest.approx(sum(report.buckets.values()))
    for layer in ("kernel", "fabric", "xen", "apps"):
        assert report.buckets[layer] > 0, (layer, report.buckets)
