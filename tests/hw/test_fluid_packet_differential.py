"""Randomized differential tests: fluid fabric vs exact packet model.

The fluid max-min model is the simulator's fast path (O(1) events per
transfer); :class:`PacketLink` is the exact per-MTU round-robin model
it abstracts.  These tests drive both with identical randomized
workloads — including mid-transfer joins and leaves, which exercise the
incremental reconvergence path in ``FluidFabric._reallocate`` — and
check that:

* per-flow completion times agree to within the round-robin
  discretization error (one MTU service time per competing flow);
* flows whose fluid completion times are well separated complete in
  the same order under both models;
* the incremental (component-restricted) solver yields rates that are
  bit-identical to a from-scratch global ``maxmin_rates`` solve at
  every churn point;
* tracing a run does not perturb it (the telemetry fast path is
  observation-only).

Runs under the pinned ``thorough`` Hypothesis profile; the per-test
``max_examples`` below put the differential suite at 500+ derandomized
examples total while keeping the packet-model event cost bounded
(sizes are capped at a few dozen MTUs).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import FluidFabric
from repro.hw.fabric import PacketLink, maxmin_rates
from repro.sim import Environment
from repro.telemetry import TelemetryBus
from repro.units import SEC, GiB, KiB

CAPACITY = float(GiB)  # bytes/s
MTU = 1 * KiB
#: Service time of one full MTU at CAPACITY, in ns (ceil like PacketLink).
MTU_NS = -(-MTU * SEC // int(CAPACITY))

_sizes = st.lists(
    st.integers(min_value=1, max_value=32 * KiB), min_size=2, max_size=5
)
_gaps = st.lists(
    st.integers(min_value=0, max_value=20 * MTU_NS), min_size=0, max_size=5
)


def _run_fluid(sizes, gaps):
    """Fluid completion times (ns) per flow, submitted with ``gaps``."""
    env = Environment()
    fabric = FluidFabric(env)
    link = fabric.add_link("l", CAPACITY)
    transfers = []

    def submitter(env):
        for i, size in enumerate(sizes):
            transfers.append(fabric.submit([link], size, f"t{i}"))
            gap = gaps[i] if i < len(gaps) else 0
            if gap:
                yield env.timeout(gap)
        if False:  # pragma: no cover - make this a generator
            yield

    env.process(submitter(env))
    env.run()
    return [t.completed_at for t in transfers]


def _run_packet(sizes, gaps):
    """Exact per-MTU completion times (ns) for the same workload."""
    env = Environment()
    link = PacketLink(env, CAPACITY, mtu_bytes=MTU)
    done_at = [None] * len(sizes)

    def submitter(env):
        for i, size in enumerate(sizes):
            ev = link.submit(size, f"t{i}")
            ev.callbacks.append(
                lambda _ev, i=i: done_at.__setitem__(i, env.now)
            )
            gap = gaps[i] if i < len(gaps) else 0
            if gap:
                yield env.timeout(gap)
        if False:  # pragma: no cover - make this a generator
            yield

    env.process(submitter(env))
    env.run()
    return done_at


@given(sizes=_sizes, gaps=_gaps)
@settings(max_examples=250, derandomize=True, deadline=None)
def test_completion_times_agree_within_round_robin_error(sizes, gaps):
    """Fluid vs packet per-flow completion time differs by at most the
    round-robin discretization: each competing flow can delay (or be
    delayed by) one MTU per rotation, so the bound is one MTU service
    time per flow (plus per-packet integer-ceil slack)."""
    fluid = _run_fluid(sizes, gaps)
    packet = _run_packet(sizes, gaps)
    n = len(sizes)
    npackets_total = sum(-(-s // MTU) for s in sizes)
    # (n+1) MTU slots of rotation skew + 1ns ceil rounding per packet.
    bound = (n + 1) * MTU_NS + npackets_total + 2
    for i, (tf, tp) in enumerate(zip(fluid, packet)):
        assert tp is not None, f"flow {i} never completed in packet model"
        assert abs(tf - tp) <= bound, (
            f"flow {i} (size {sizes[i]}): fluid {tf} vs packet {tp} ns "
            f"(bound {bound})"
        )


@given(sizes=_sizes, gaps=_gaps)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_well_separated_flows_complete_in_the_same_order(sizes, gaps):
    """If two flows finish more than the discretization bound apart in
    the fluid model, the exact model must agree on their order."""
    fluid = _run_fluid(sizes, gaps)
    packet = _run_packet(sizes, gaps)
    n = len(sizes)
    npackets_total = sum(-(-s // MTU) for s in sizes)
    margin = 2 * ((n + 1) * MTU_NS + npackets_total + 2)
    for i in range(n):
        for j in range(n):
            if fluid[i] + margin < fluid[j]:
                assert packet[i] < packet[j], (
                    f"order flip: fluid has {i} << {j} "
                    f"({fluid[i]} vs {fluid[j]}) but packet has "
                    f"{packet[i]} vs {packet[j]}"
                )


_topo_sizes = st.lists(
    st.integers(min_value=1, max_value=64 * KiB), min_size=1, max_size=8
)
_path_picks = st.lists(
    st.integers(min_value=0, max_value=5), min_size=1, max_size=8
)
_churn_gaps = st.lists(
    st.integers(min_value=0, max_value=50_000), min_size=1, max_size=8
)


def _assert_rates_match_global_solve(fabric):
    """Every active transfer's incremental rate equals a from-scratch
    global progressive-filling solve, bit for bit."""
    active = list(fabric._active)
    if not active:
        return
    expected = maxmin_rates(active, lambda link: link.capacity_bytes_per_ns)
    for t in active:
        assert t.rate == expected[t], (
            f"{t!r}: incremental rate {t.rate!r} != global {expected[t]!r}"
        )


@given(
    sizes=_topo_sizes,
    picks=_path_picks,
    gaps=_churn_gaps,
    degrade_step=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_incremental_reconvergence_matches_global_solve(
    sizes, picks, gaps, degrade_step
):
    """Join, leave and capacity-change churn on a multi-link fabric:
    after every event the component-restricted re-solve must leave the
    whole fabric in exactly the state a global solve produces.  This is
    the fence for the incremental solver: progressive filling
    decomposes over connected components, so "incremental" may never
    mean "approximate"."""
    env = Environment()
    fabric = FluidFabric(env)
    links = [fabric.add_link(f"l{i}", CAPACITY * (1 + i % 3)) for i in range(3)]
    # Paths of one or two links, chosen by the drawn pick: 0..2 are the
    # single links, 3..5 are the two-link pairs — so examples mix
    # disjoint components with overlapping paths.
    paths = [
        (links[0],),
        (links[1],),
        (links[2],),
        (links[0], links[1]),
        (links[1], links[2]),
        (links[0], links[2]),
    ]
    checked = {"joins": 0, "leaves": 0}

    def on_done(_ev):
        checked["leaves"] += 1
        _assert_rates_match_global_solve(fabric)

    def submitter(env):
        for i, size in enumerate(sizes):
            pick = picks[i % len(picks)]
            t = fabric.submit(list(paths[pick]), size, f"t{i}")
            t.done.callbacks.append(on_done)
            checked["joins"] += 1
            _assert_rates_match_global_solve(fabric)
            if i == degrade_step:
                fabric.set_link_degradation("l1", 0.25)
                _assert_rates_match_global_solve(fabric)
            yield env.timeout(gaps[i % len(gaps)])
        fabric.set_link_degradation("l1", 1.0)
        _assert_rates_match_global_solve(fabric)

    env.process(submitter(env))
    env.run()
    assert checked["joins"] == len(sizes)
    assert checked["leaves"] == len(sizes)
    for t in fabric.active_transfers:  # pragma: no cover - sanity
        raise AssertionError(f"transfer left active: {t!r}")


@given(sizes=_sizes, gaps=_gaps)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_tracing_does_not_perturb_the_simulation(sizes, gaps):
    """A recording telemetry bus must be observation-only: the traced
    run's completion log is identical to the untraced run's."""
    untraced = _run_fluid(sizes, gaps)

    env = Environment()
    env.telemetry = TelemetryBus()
    fabric = FluidFabric(env)
    link = fabric.add_link("l", CAPACITY)
    transfers = []

    def submitter(env):
        for i, size in enumerate(sizes):
            transfers.append(fabric.submit([link], size, f"t{i}"))
            gap = gaps[i] if i < len(gaps) else 0
            if gap:
                yield env.timeout(gap)
        if False:  # pragma: no cover - make this a generator
            yield

    env.process(submitter(env))
    env.run()
    assert [t.completed_at for t in transfers] == untraced
    # The trace actually recorded the flows (one span per transfer).
    spans = [r for r in env.telemetry.records if r.cat == "fabric"]
    assert len(spans) == len(sizes)
