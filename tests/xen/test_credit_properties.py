"""Property-based tests on credit-scheduler invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.telemetry import TelemetryBus
from repro.units import MS, US
from repro.xen.credit import PCPUScheduler
from repro.xen.vcpu import VCPU


@given(
    cap=st.integers(min_value=1, max_value=100),
    bursts=st.lists(
        st.integers(min_value=1 * US, max_value=5 * MS), min_size=1, max_size=10
    ),
)
@settings(max_examples=60, deadline=None)
def test_cap_is_never_exceeded_per_period(cap, bursts):
    """In any accounting period a VCPU consumes at most cap% + one
    final-poll-check of slack."""
    env = Environment()
    # Every slice that consumed CPU emits one credit span stamped with
    # its start and ``ran_ns``: the per-slice accounting to check.
    env.telemetry = TelemetryBus(kernel_sample_every=0)
    sched = PCPUScheduler(env, 0)
    vcpu = VCPU(env, 0, cap_percent=cap)
    sched.attach(vcpu)

    def app(env):
        for burst in bursts:
            yield vcpu.compute(burst)

    env.process(app(env))
    env.run(until=200 * MS)

    usage_by_period = {}
    for span in env.telemetry.select(kind="span", cat="credit"):
        period = span.ts_ns // sched.period_ns
        ran = span.args_dict()["ran_ns"]
        usage_by_period[period] = usage_by_period.get(period, 0) + ran
    assert usage_by_period, "no credit slice ran"

    budget = sched.period_ns * cap // 100
    for period, used in usage_by_period.items():
        # Slack: a quantum may straddle a period edge by the final poll
        # check; compute quanta are clipped exactly.
        assert used <= budget + 1000, (period, used, budget)


@given(
    cap=st.integers(min_value=10, max_value=100),
    work_ms=st.integers(min_value=5, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_throughput_matches_cap(cap, work_ms):
    """CPU-bound work completes in ~work/cap wall time."""
    env = Environment()
    sched = PCPUScheduler(env, 0)
    vcpu = VCPU(env, 0, cap_percent=cap)
    sched.attach(vcpu)
    work = work_ms * MS

    def app(env):
        yield vcpu.compute(work)

    proc = env.process(app(env))
    env.run(until=proc)
    expected = work * 100 / cap
    # Within one period of the ideal completion time.
    assert expected - 10 * MS <= env.now <= expected + 10 * MS


@given(
    weights=st.lists(st.sampled_from([128, 256, 512]), min_size=2, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_weighted_shares_converge(weights):
    """Long-run CPU shares are proportional to weights while all VCPUs
    stay busy."""
    env = Environment()
    sched = PCPUScheduler(env, 0)
    vcpus = []
    for i, w in enumerate(weights):
        v = VCPU(env, i, weight=w)
        sched.attach(v)
        vcpus.append(v)

        def app(env, v=v):
            yield v.compute(10_000 * MS)  # effectively unbounded

        env.process(app(env))

    env.run(until=200 * MS)
    total_weight = sum(weights)
    for v, w in zip(vcpus, weights):
        expected = 200 * MS * w / total_weight
        assert abs(v.cumulative_ns - expected) <= 0.08 * 200 * MS, (
            v.vcpu_id,
            v.cumulative_ns,
            expected,
        )


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_total_cpu_time_conserved(data):
    """Sum of per-VCPU consumption equals scheduler busy time, and never
    exceeds wall time (one PCPU)."""
    env = Environment()
    sched = PCPUScheduler(env, 0)
    n = data.draw(st.integers(min_value=1, max_value=4))
    vcpus = []
    for i in range(n):
        cap = data.draw(st.integers(min_value=10, max_value=100))
        v = VCPU(env, i, cap_percent=cap)
        sched.attach(v)
        vcpus.append(v)
        bursts = data.draw(
            st.lists(
                st.integers(min_value=1 * US, max_value=2 * MS),
                min_size=1,
                max_size=5,
            )
        )

        def app(env, v=v, bursts=bursts):
            for b in bursts:
                yield v.compute(b)

        env.process(app(env))

    env.run(until=100 * MS)
    total = sum(v.cumulative_ns for v in vcpus)
    assert total == sched.busy_ns
    assert total <= 100 * MS
