"""Capture the golden-run fixtures that fence the simulator fast path.

Any PR that touches the event loop, the fabric solver, the telemetry
bus or the schedulers must leave these outputs *byte-identical*: the
paper's headline claims depend on bit-for-bit deterministic runs, so
"faster" is only acceptable when it is also "equivalent".

Four fixtures are captured, all at fixed seeds:

* ``trace_managed_s02_seed7.json`` — the Chrome trace of a fully
  traced managed run (2 MB interferer + IOShares, 0.2 s, seed 7).
  This pins the complete telemetry record stream of every layer,
  including the kernel's events-processed/queue-depth counters, so any
  change to event count, ordering or timing shows up as a byte diff.
* ``chaos_fig9_linkflap_s1_seed11.json`` — the ResilienceReport of a
  fig9 chaos run under the link-flap campaign (1.0 s, seed 11).  This
  pins the fault-injection path end to end: campaign scheduling,
  injector actuation, latency attribution and recovery metrics.
* ``service_replay_smoke_seed7.json`` — the full response log and
  digest of the ``service_smoke`` sim-mode service replay (500 seeded
  requests, seed 7).  This pins the served surface: trace synthesis,
  request validation, orchestrator serialization order and every
  world response field (the ISSUE's determinism contract).
* ``credit_slices_seed7.json`` — every ``credit`` span and instant of
  seeded guest programs on three PCPUs carrying 1, 2 and 3 VCPUs, plus
  the final kernel event count.  The scenario runs put at most one
  VCPU on each PCPU; this one pins quantum preemption, the pick among
  several eligible VCPUs, the vtime clamp on wake, caps of 100/30/7 %
  with unequal weights, a frozen window, a mid-period cap change,
  polls on fired and pending events and bursts longer than a period.

Usage::

    PYTHONPATH=src python tools/capture_golden.py          # regenerate
    PYTHONPATH=src python -m pytest tests/test_golden_runs.py

Only regenerate after an *intentional* behaviour change, and say so in
the commit message; the paired test exists precisely to make silent
regeneration impossible to miss in review.
"""

from __future__ import annotations

import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

TRACE_NAME = "trace_managed_s02_seed7.json"
CHAOS_NAME = "chaos_fig9_linkflap_s1_seed11.json"
SERVICE_NAME = "service_replay_smoke_seed7.json"
CREDIT_NAME = "credit_slices_seed7.json"

#: Axes of the traced golden run.
TRACE_SIM_S = 0.2
TRACE_SEED = 7

#: Axes of the chaos golden run.
CHAOS_SIM_S = 1.0
CHAOS_SEED = 11
CHAOS_CAMPAIGN = "link-flap"

#: Axes of the service-replay golden run.
SERVICE_PRESET = "service_smoke"
SERVICE_SEED = 7

#: Axes of the credit-scheduler golden run.
CREDIT_SEED = 7
CREDIT_SIM_MS = 300
#: ``(cap_percent, weight)`` of each VCPU, one list per PCPU.
CREDIT_LAYOUT = (
    ((100, 256),),
    ((30, 256), (100, 512)),
    ((7, 128), (30, 256), (100, 768)),
)


def golden_trace_bytes() -> str:
    """The managed-scenario Chrome trace as canonical JSON text."""
    from repro.analysis import to_chrome_trace_json
    from repro.benchex import BenchExConfig
    from repro.experiments import run_scenario
    from repro.telemetry import TelemetryBus
    from repro.units import MiB

    bus = TelemetryBus()
    run_scenario(
        "golden-managed",
        interferer=BenchExConfig(name="interferer", buffer_bytes=2 * MiB),
        policy="ioshares",
        sim_s=TRACE_SIM_S,
        seed=TRACE_SEED,
        telemetry=bus,
    )
    return to_chrome_trace_json(bus) + "\n"


def golden_chaos_bytes() -> str:
    """The fig9 link-flap ResilienceReport as canonical JSON text."""
    from repro.experiments import run_chaos_scenario

    chaos = run_chaos_scenario(
        "fig9",
        campaign=CHAOS_CAMPAIGN,
        sim_s=CHAOS_SIM_S,
        seed=CHAOS_SEED,
    )
    return json.dumps(chaos.report.to_dict(), indent=2, sort_keys=True) + "\n"


def golden_service_bytes() -> str:
    """The service_smoke replay: digest + full response log.

    This pins the entire served surface — trace synthesis, parameter
    validation, the orchestrator's serialization order, every world
    response field and the sim backend's virtual-clock stepping.  Any
    of those drifting shows up as a digest (and log) diff.
    """
    from repro.service import run_service_replay

    result = run_service_replay(SERVICE_PRESET, seed=SERVICE_SEED)
    doc = {
        "preset": SERVICE_PRESET,
        "seed": SERVICE_SEED,
        "digest": result.digest,
        "responses": result.lines,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def golden_credit_bytes() -> str:
    """Every credit-scheduler record of a crowded seeded run.

    Each VCPU runs its own seeded guest program: compute bursts (some
    longer than the 10 ms period), polls on a completion that fires
    later, polls on one already processed or merely triggered, and
    idle gaps.  A control process freezes VCPU 3 for a window and
    changes two caps mid-period, then restores them.
    """
    import random

    from repro.sim import Environment
    from repro.telemetry import TelemetryBus
    from repro.units import MS, US
    from repro.xen.credit import PCPUScheduler
    from repro.xen.vcpu import VCPU

    env = Environment()
    bus = env.telemetry = TelemetryBus()
    vcpus = []
    for pcpu_id, layout in enumerate(CREDIT_LAYOUT):
        sched = PCPUScheduler(env, pcpu_id)
        for cap, weight in layout:
            vcpu = VCPU(env, len(vcpus), weight=weight, cap_percent=cap)
            sched.attach(vcpu)
            vcpus.append(vcpu)

    def fire_later(event, delay):
        yield env.timeout(delay)
        event.succeed(delay)

    def guest(vcpu):
        rng = random.Random(CREDIT_SEED * 1000 + vcpu.vcpu_id)
        while True:
            r = rng.random()
            if r < 0.35:
                yield vcpu.compute(rng.randint(5 * US, 3 * MS))
            elif r < 0.45:
                yield vcpu.compute(rng.randint(11 * MS, 25 * MS))
            elif r < 0.65:
                done = env.event()
                env.process(fire_later(done, rng.randint(1 * US, 4 * MS)))
                yield vcpu.poll_until(done, rng.choice((200, 1 * US)))
            elif r < 0.72:
                done = env.event()
                done.succeed()
                yield done
                yield vcpu.poll_until(done)
            elif r < 0.78:
                done = env.event()
                done.succeed()
                yield vcpu.poll_until(done)
            else:
                yield env.timeout(rng.randint(1 * US, 6 * MS))

    def control():
        yield env.timeout(23 * MS + 417 * US)
        vcpus[3].frozen = True
        yield env.timeout(18 * MS)
        vcpus[3].frozen = False
        if vcpus[3].has_work():
            vcpus[3]._needs_vtime_clamp = True
            vcpus[3].scheduler.notify_work()
        yield env.timeout(15 * MS + 3 * US)
        vcpus[1].cap_percent = 7
        vcpus[5].cap_percent = 30
        yield env.timeout(31 * MS)
        vcpus[1].cap_percent = 30
        vcpus[5].cap_percent = 100

    for vcpu in vcpus:
        env.process(guest(vcpu))
    env.process(control())
    env.run(until=CREDIT_SIM_MS * MS)
    lines = [
        json.dumps([r.kind, r.name, r.lane, r.ts_ns, r.dur_ns, dict(r.args)])
        for r in bus.select(cat="credit")
    ]
    doc = {"events_processed": env.events_processed, "records": lines}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, produce in ((TRACE_NAME, golden_trace_bytes),
                          (CHAOS_NAME, golden_chaos_bytes),
                          (SERVICE_NAME, golden_service_bytes),
                          (CREDIT_NAME, golden_credit_bytes)):
        path = GOLDEN_DIR / name
        text = produce()
        changed = not path.exists() or path.read_text() != text
        path.write_text(text)
        print(f"{'updated' if changed else 'unchanged'}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
