"""Property fence for the conservative shard-synchronization kernel.

Hypothesis-driven invariants of :mod:`repro.sim.shard`, independent of
the cluster model (a scripted toy world with echo replies stands in):

* **Conservative horizon** — no cross-domain message is ever delivered
  earlier than its send time plus the lookahead, under any partition.
* **Barrier monotonicity** — :func:`window_boundaries` is strictly
  increasing, gap-bounded by the lookahead, and ends exactly at the
  run horizon.
* **Order independence** — the merged outcome does not depend on the
  order shards execute their windows in (the stand-in for worker
  completion order): any per-window permutation produces the same
  bytes as the identity order, which produces the same bytes as the
  serial run.
* **Optimal partition** — a weighted :class:`ShardMap` is contiguous,
  covering and never empty, and its heaviest shard equals the brute
  force optimum; unweighted and equal-weight maps are the count split.

One class leaves the toy world: :class:`TestClusterBalance` fences the
cluster's per-domain cost model against measured event counts and the
resulting 2-shard balance of ``cluster_scale``.

Runs under the pinned derandomized profiles of ``tests/conftest.py``.
"""

import dataclasses
import gc
import itertools
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import ConfigError, ShardSyncError
from repro.experiments.cluster import (
    CLUSTER_SPECS,
    cluster_spec,
    predicted_domain_events,
    run_cluster,
)
from repro.sim import Environment
from repro.sim.shard import (
    Mailbox,
    Message,
    ShardMap,
    run_sharded,
    window_boundaries,
)

LOOKAHEAD = 100
UNTIL = 1_500


class EchoWorld:
    """Scripted multi-domain toy world.

    ``schedule`` rows are ``(send_at, src, dst, extra_latency, ttl)``:
    domain ``src`` mails ``dst`` at ``send_at`` with ``LOOKAHEAD +
    extra_latency`` of delay; a receiver with ``ttl > 0`` echoes back
    immediately (a send issued *during* message delivery — the hard
    case for barrier bookkeeping).  Every delivery is logged with its
    full identity, so sorted logs are comparable across partitions.
    """

    def __init__(self, domains, schedule):
        self.env = Environment()
        self.mailbox = Mailbox(self.env, LOOKAHEAD)
        self.log = []
        self.horizon_violations = 0
        for d in domains:
            self.mailbox.register(d, self._on_msg)
        for tag, (at, src, dst, extra, ttl) in enumerate(schedule):
            if src in domains and src != dst:
                self.env.process(self._sender(at, src, dst, extra, ttl, tag))

    def _sender(self, at, src, dst, extra, ttl, tag):
        if at:
            yield self.env.timeout(at)
        self.mailbox.send(
            src, dst, LOOKAHEAD + extra, "ping", (tag, ttl, self.env.now)
        )

    def _on_msg(self, msg):
        tag, ttl, sent_at = msg.payload
        if self.env.now - sent_at < LOOKAHEAD:
            self.horizon_violations += 1
        self.log.append((self.env.now, msg.origin, msg.dest, tag, ttl))
        if ttl > 0:
            self.mailbox.send(
                msg.dest, msg.origin, LOOKAHEAD,
                "ping", (tag, ttl - 1, self.env.now),
            )

    def finalize(self):
        return {"log": self.log, "violations": self.horizon_violations}


#: Egress cadence of :class:`EpochEchoWorld` — deliberately coprime-ish
#: with ``LOOKAHEAD`` so epoch boundaries and barrier instants interleave.
EPOCH = 250


class EpochEchoWorld:
    """Echo world that funnels every send through an epoch-batched
    egress stage — the :class:`ClusterWorld` relay shape, and the one
    model that can honestly register a ``covers_deliveries`` horizon.

    ``schedule`` rows are ``(send_at, src, dst, ttl)``: at ``send_at``
    domain ``src`` queues a ping to ``dst``; the ping departs at the
    next ``EPOCH`` boundary with ``LOOKAHEAD`` of latency.  A receiver
    with ``ttl > 0`` queues an echo the same way, so a delivery into an
    otherwise heap-idle shard still produces a future send — the case
    the covered horizon must bound without help from the barrier
    loop's earliest-delivery cap.
    """

    def __init__(self, domains, schedule):
        self.env = Environment()
        self.mailbox = Mailbox(self.env, LOOKAHEAD)
        self.mailbox.horizon_fn = self._send_horizon
        self.log = []
        self.horizon_violations = 0
        self._egress = {}
        for d in domains:
            self.mailbox.register(d, self._on_msg)
        for tag, (at, src, dst, ttl) in enumerate(schedule):
            if src in domains and src != dst:
                self.env.process(self._sender(at, src, dst, ttl, tag))

    def _sender(self, at, src, dst, ttl, tag):
        if at:
            yield self.env.timeout(at)
        self._queue(src, dst, ttl, tag)

    def _queue(self, src, dst, ttl, tag):
        boundary = (self.env.now // EPOCH + 1) * EPOCH
        batch = self._egress.get(boundary)
        if batch is None:
            self._egress[boundary] = [(src, dst, ttl, tag)]
            flush = self.env.timeout(boundary - self.env.now)
            flush.callbacks.append(lambda _ev, b=boundary: self._flush(b))
        else:
            batch.append((src, dst, ttl, tag))

    def _flush(self, boundary):
        for src, dst, ttl, tag in self._egress.pop(boundary):
            self.mailbox.send(
                src, dst, LOOKAHEAD, "ping", (tag, ttl, self.env.now)
            )

    def _send_horizon(self):
        nxt = (self.env.now // EPOCH + 1) * EPOCH
        if self._egress:
            armed = min(self._egress)
            if armed < nxt:
                return armed
        return nxt

    def _on_msg(self, msg):
        tag, ttl, sent_at = msg.payload
        if self.env.now - sent_at < LOOKAHEAD:
            self.horizon_violations += 1
        self.log.append((self.env.now, msg.origin, msg.dest, tag, ttl))
        if ttl > 0:
            self._queue(msg.dest, msg.origin, ttl - 1, tag)

    def finalize(self):
        return {"log": self.log, "violations": self.horizon_violations}


def _merge(parts):
    log = sorted(entry for part in parts for entry in part["log"])
    return {
        "log": log,
        "violations": sum(part["violations"] for part in parts),
    }


def _run(
    n_domains, shards, schedule, backend="inline", inline_order=None,
    coalesce=True,
):
    result, stats = run_sharded(
        lambda doms: EchoWorld(
            range(n_domains) if doms is None else doms, schedule
        ),
        n_domains=n_domains,
        shards=shards,
        until_ns=UNTIL,
        lookahead_ns=LOOKAHEAD,
        merge=_merge,
        backend=backend,
        inline_order=inline_order,
        coalesce=coalesce,
    )
    return result, stats


def _schedules(n_domains):
    return st.lists(
        st.tuples(
            st.integers(0, 600),               # send_at
            st.integers(0, n_domains - 1),     # src
            st.integers(0, n_domains - 1),     # dst
            st.integers(0, 150),               # extra latency
            st.integers(0, 2),                 # echo depth
        ),
        max_size=12,
    )


#: (n_domains, shards, schedule) with 1 <= shards <= n_domains.
world_cases = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(1, n), _schedules(n)
    )
)


class TestConservativeSync:
    @given(case=world_cases)
    @settings(max_examples=150)
    def test_sharded_equals_serial_and_horizon_holds(self, case):
        n_domains, shards, schedule = case
        serial, _ = _run(n_domains, 1, schedule, backend="serial")
        assert serial["violations"] == 0
        sharded, stats = _run(n_domains, shards, schedule)
        assert sharded["violations"] == 0
        assert sharded["log"] == serial["log"]
        if shards > 1:
            # Elision may skip quiet barriers but never invents one.
            assert 1 <= stats.barriers <= stats.windows
            assert stats.max_stride >= 1

    @given(case=world_cases)
    @settings(max_examples=100)
    def test_coalescing_is_unobservable(self, case):
        """Barrier elision changes the execution shape only: per-window
        barriers (coalesce=False) produce the same bytes, with every
        window paying its exchange."""
        n_domains, shards, schedule = case
        coalesced, stats_on = _run(n_domains, shards, schedule)
        plain, stats_off = _run(n_domains, shards, schedule, coalesce=False)
        assert plain == coalesced
        assert stats_off.barriers == stats_off.windows
        assert stats_off.max_stride == 1
        if shards > 1:
            assert stats_on.barriers <= stats_off.barriers

    @given(
        case=st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, n),
                st.lists(
                    st.tuples(
                        st.integers(0, 600),            # send_at
                        st.integers(0, n - 1),          # src
                        st.integers(0, n - 1),          # dst
                        st.integers(0, 2),              # echo depth
                    ),
                    max_size=12,
                ),
            )
        )
    )
    @settings(max_examples=150)
    def test_covered_horizon_equals_serial(self, case):
        """A model-promised (covers-deliveries) horizon never lets the
        stride outrun a send triggered by a delivery ingested at the
        barrier: epoch-batched sharded == serial, coalescing on or off."""
        n_domains, shards, schedule = case

        def build(doms):
            return EpochEchoWorld(
                range(n_domains) if doms is None else doms, schedule
            )

        kwargs = dict(
            n_domains=n_domains,
            shards=shards,
            until_ns=UNTIL,
            lookahead_ns=LOOKAHEAD,
            merge=_merge,
        )
        serial, _ = run_sharded(build, backend="serial", shards=1, **{
            k: v for k, v in kwargs.items() if k != "shards"
        })
        assert serial["violations"] == 0
        coalesced, stats = run_sharded(build, backend="inline", **kwargs)
        assert coalesced == serial
        plain, _ = run_sharded(
            build, backend="inline", coalesce=False, **kwargs
        )
        assert plain == serial
        if shards > 1:
            assert 1 <= stats.barriers <= stats.windows

    def test_heap_idle_shard_with_covered_horizon_pinned(self):
        """Regression: a heap-idle shard (peek = infinity) whose only
        activity is a send-triggering delivery ingested at a barrier.
        ``send_horizon`` used to report ``max(peek, horizon_fn())``
        with ``covers_deliveries=True``; the inflated bound skipped the
        earliest-delivery cap, the stride overshot, and the echo (due
        at 600) was exchanged after the peer's clock had advanced to
        750 — a ShardSyncError, or silent divergence from serial."""
        schedule = [
            (0, 0, 1, 1),    # ping; echo due back at t=600 via epoch 500
            (700, 0, 1, 0),  # advances domain 0's clock past the echo
        ]

        def build(doms):
            return EpochEchoWorld(
                range(2) if doms is None else doms, schedule
            )

        kwargs = dict(
            n_domains=2,
            until_ns=UNTIL,
            lookahead_ns=LOOKAHEAD,
            merge=_merge,
        )
        serial, _ = run_sharded(build, backend="serial", shards=1, **kwargs)
        assert [entry[0] for entry in serial["log"]] == [350, 600, 850]
        for backend in ("inline", "fork"):
            for coalesce in (True, False):
                sharded, _ = run_sharded(
                    build, backend=backend, shards=2, coalesce=coalesce,
                    **kwargs,
                )
                assert sharded == serial, (backend, coalesce)

    @given(case=world_cases, rotations=st.lists(st.integers(0, 4), max_size=8))
    @settings(max_examples=150)
    def test_merge_is_execution_order_independent(self, case, rotations):
        """Permuting which shard runs its window first never changes
        the merged outcome — completion order is not an input."""
        n_domains, shards, schedule = case

        def permute(k, order):
            if not rotations:
                return list(reversed(order))
            r = rotations[k % len(rotations)] % len(order)
            return order[r:] + order[:r]

        identity, _ = _run(n_domains, shards, schedule)
        permuted, _ = _run(
            n_domains, shards, schedule, inline_order=permute
        )
        assert permuted == identity

    @given(
        until=st.integers(0, 10_000),
        lookahead=st.integers(1, 3_000),
    )
    @settings(max_examples=300)
    def test_window_boundaries_monotonic_and_exact(self, until, lookahead):
        bounds = window_boundaries(until, lookahead)
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(0 < b <= until for b in bounds)
        if until > 0:
            assert bounds[-1] == until
            gaps = [b2 - b1 for b1, b2 in zip([0] + bounds, bounds)]
            assert all(gap <= lookahead for gap in gaps)
        else:
            assert bounds == []

    def test_round_horizon_has_no_zero_length_terminal_window(self):
        """A horizon that is an exact multiple of the lookahead ends on
        the last full window's boundary — no duplicated terminal
        boundary, no zero-length window inflating the count."""
        bounds = window_boundaries(1_000, 200)
        assert bounds == [200, 400, 600, 800, 1_000]
        assert len(bounds) == 1_000 // 200
        assert len(set(bounds)) == len(bounds)
        # Ragged horizon: one extra short window, exactly to the end.
        assert window_boundaries(1_100, 200) == [200, 400, 600, 800,
                                                 1_000, 1_100]
        assert window_boundaries(199, 200) == [199]

    @given(
        shape=st.integers(1, 64).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n))
        )
    )
    @settings(max_examples=300)
    def test_shard_map_partitions_contiguously(self, shape):
        n_domains, shards = shape
        smap = ShardMap(n_domains, shards)
        seen = []
        for s in range(shards):
            block = smap.domains_of(s)
            assert block  # never an empty shard
            assert list(block) == list(range(block[0], block[-1] + 1))
            for d in block:
                assert smap.shard_of(d) == s
            seen.extend(block)
        assert seen == list(range(n_domains))
        sizes = [len(smap.domains_of(s)) for s in range(shards)]
        assert max(sizes) - min(sizes) <= 1


def _count_split(n_domains, shards):
    """The contiguous map by domain count: sizes differing by at most
    one, the larger shards first."""
    base, rem = divmod(n_domains, shards)
    starts = [s * base + min(s, rem) for s in range(shards + 1)]
    return tuple(
        tuple(range(starts[s], starts[s + 1])) for s in range(shards)
    )


def _brute_force_bottleneck(weights, shards):
    n = len(weights)
    best = None
    for cuts in itertools.combinations(range(1, n), shards - 1):
        bounds = (0, *cuts, n)
        heaviest = max(
            sum(weights[bounds[i]:bounds[i + 1]]) for i in range(shards)
        )
        best = heaviest if best is None else min(best, heaviest)
    return best


class TestWeightedShardMap:
    @given(
        case=st.lists(st.integers(0, 10_000), min_size=1, max_size=8).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(1, len(w)))
        )
    )
    @settings(max_examples=300)
    def test_weighted_map_is_an_optimal_contiguous_partition(self, case):
        weights, shards = case
        n_domains = len(weights)
        smap = ShardMap(n_domains, shards, tuple(float(w) for w in weights))
        seen = []
        for s in range(shards):
            block = smap.domains_of(s)
            assert block  # never an empty shard
            assert list(block) == list(range(block[0], block[-1] + 1))
            for d in block:
                assert smap.shard_of(d) == s
            seen.extend(block)
        assert seen == list(range(n_domains))
        assert smap.domain_to_shard() == [
            smap.shard_of(d) for d in range(n_domains)
        ]
        # Integer weights sum exactly, so the optimum compares exactly.
        heaviest = max(
            sum(weights[d] for d in smap.domains_of(s)) for s in range(shards)
        )
        assert heaviest == _brute_force_bottleneck(weights, shards)

    def test_unweighted_and_equal_weight_maps_are_the_count_split(self):
        for n_domains in range(1, 65):
            for shards in range(1, n_domains + 1):
                legacy = _count_split(n_domains, shards)
                assert ShardMap(n_domains, shards).blocks() == legacy
                equal = ShardMap(n_domains, shards, (2.5,) * n_domains)
                assert equal.blocks() == legacy, (n_domains, shards)

    def test_heavy_first_domain_gets_a_shard_to_itself(self):
        weights = (6.6,) + (1.0,) * 15
        assert ShardMap(16, 2, weights).blocks() == (
            tuple(range(5)), tuple(range(5, 16))
        )
        assert ShardMap(16, 4, weights).blocks() == (
            (0,), tuple(range(1, 6)), tuple(range(6, 11)),
            tuple(range(11, 16)),
        )

    @pytest.mark.parametrize(
        "weights", [(1.0, 2.0), (1.0, -1.0, 1.0), (1.0, float("nan"), 1.0)]
    )
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ConfigError, match="weight"):
            ShardMap(3, 2, weights)


class TestMailboxGuards:
    def test_latency_below_lookahead_rejected(self):
        mailbox = Mailbox(Environment(), LOOKAHEAD)
        mailbox.register(0, lambda msg: None)
        with pytest.raises(ShardSyncError):
            mailbox.send(0, 1, LOOKAHEAD - 1, "ping")

    def test_self_send_rejected(self):
        mailbox = Mailbox(Environment(), LOOKAHEAD)
        mailbox.register(0, lambda msg: None)
        with pytest.raises(ShardSyncError):
            mailbox.send(0, 0, LOOKAHEAD, "ping")

    def test_stale_ingest_rejected(self):
        """A message arriving behind the destination clock is the
        conservative horizon breaking — loudly, not silently."""
        env = Environment()
        mailbox = Mailbox(env, LOOKAHEAD)
        mailbox.register(0, lambda msg: None)
        env.timeout(50)
        env.run()
        assert env.now == 50
        stale = Message(
            origin=1, seq=0, dest=0, deliver_at=10, kind="ping", payload=()
        )
        with pytest.raises(ShardSyncError):
            mailbox.ingest([stale])

    def test_misrouted_ingest_rejected(self):
        mailbox = Mailbox(Environment(), LOOKAHEAD)
        mailbox.register(0, lambda msg: None)
        lost = Message(
            origin=0, seq=0, dest=7, deliver_at=200, kind="ping", payload=()
        )
        with pytest.raises(ShardSyncError):
            mailbox.ingest([lost])

    def test_same_instant_delivery_orders_by_origin_then_seq(self):
        env = Environment()
        mailbox = Mailbox(env, LOOKAHEAD)
        order = []
        mailbox.register(0, lambda msg: order.append(msg.order_key))
        # Ingest in scrambled arrival order; delivery must sort.
        mailbox.ingest(
            [
                Message(2, 0, 0, LOOKAHEAD, "p", ()),
                Message(1, 1, 0, LOOKAHEAD, "p", ()),
                Message(1, 0, 0, LOOKAHEAD, "p", ()),
            ]
        )
        env.run()
        assert order == [(1, 0), (1, 1), (2, 0)]


class TestForkBackendToyWorld:
    def test_fork_matches_inline_on_echo_world(self):
        schedule = [
            (0, 0, 1, 0, 2),
            (120, 1, 2, 30, 1),
            (120, 2, 0, 0, 0),
            (400, 0, 2, 150, 2),
        ]
        inline, _ = _run(3, 3, schedule, backend="inline")
        forked, stats = _run(3, 3, schedule, backend="fork")
        assert forked == inline
        assert stats.backend == "fork"
        assert stats.messages_exchanged > 0

    def test_fork_reports_per_shard_compute_and_wait(self):
        schedule = [(0, 0, 1, 0, 2), (400, 2, 0, 150, 2)]
        _, stats = _run(3, 3, schedule, backend="fork")
        assert len(stats.compute_s) == len(stats.wait_s) == 3
        assert all(t >= 0.0 for t in stats.compute_s + stats.wait_s)
        doc = stats.to_dict()
        assert (doc["compute_s"], doc["wait_s"]) == (
            stats.compute_s, stats.wait_s
        )
        # Host timings never decide equality.
        assert dataclasses.replace(stats, compute_s=[], wait_s=[]) == stats
        assert stats != dataclasses.replace(stats, barriers=stats.barriers + 1)

    def test_worker_failure_surfaces_as_shard_sync_error(self):
        class ExplodingWorld(EchoWorld):
            def _on_msg(self, msg):
                raise RuntimeError("boom in shard worker")

        with pytest.raises(ShardSyncError, match="boom"):
            run_sharded(
                lambda doms: ExplodingWorld(doms, [(0, 0, 1, 0, 0)]),
                n_domains=2,
                shards=2,
                until_ns=UNTIL,
                lookahead_ns=LOOKAHEAD,
                merge=_merge,
                backend="fork",
            )


class _Cycle:
    pass


def _caller_garbage():
    """A reference cycle only the cyclic collector can free."""
    a, b = _Cycle(), _Cycle()
    a.peer, b.peer = b, a
    return weakref.ref(a)


class TestSerialCollector:
    """The serial path freezes the built world for its run and thaws it
    when the run ends, also when it raises, so garbage the caller made
    before the run is still collected afterwards."""

    @staticmethod
    def _run_with_garbage(world_cls, merge=_merge):
        was_enabled = gc.isenabled()
        gc.disable()  # no automatic collection may free the cycle early
        try:
            ref = _caller_garbage()
            try:
                return run_sharded(
                    lambda doms: world_cls(range(3), [(0, 0, 1, 0, 2)]),
                    n_domains=3, shards=1, until_ns=UNTIL,
                    lookahead_ns=LOOKAHEAD, merge=merge, backend="serial",
                )
            finally:
                assert gc.get_freeze_count() == 0
                gc.collect()
                assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_run_is_frozen_and_thawed(self):
        class FreezeProbe(EchoWorld):
            def finalize(self):
                return gc.get_freeze_count()

        frozen, _ = self._run_with_garbage(FreezeProbe, merge=lambda parts: parts[0])
        assert frozen > 0

    def test_a_raising_run_is_thawed(self):
        class ExplodingWorld(EchoWorld):
            def _on_msg(self, msg):
                raise RuntimeError("boom in the serial run")

        with pytest.raises(RuntimeError, match="boom"):
            self._run_with_garbage(ExplodingWorld)


class TestRunShardedValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            _run(2, 2, [], backend="threads")

    def test_serial_backend_requires_one_shard(self):
        with pytest.raises(ConfigError):
            _run(2, 2, [], backend="serial")

    def test_more_shards_than_domains_rejected(self):
        with pytest.raises(ConfigError):
            ShardMap(2, 3)


class TestClusterBalance:
    """The cost-weighted partition on the real cluster model: its cost
    model tracks measured per-domain work, and the 2-shard split of
    ``cluster_scale`` is balanced.  The count split put the monitored
    stack and seven more racks on shard 0: 1.33x shard 1's events in
    this run, 1.70x at 0.05 sim-s."""

    def test_two_shard_cluster_scale_is_balanced(self):
        stats = run_cluster(
            "cluster_scale", seed=7, sim_s=0.02, shards=2, backend="inline"
        ).shard_stats
        events = stats.events_per_shard
        assert max(events) / min(events) <= 1.15, events
        assert len(stats.compute_s) == len(stats.wait_s) == 2
        assert all(c > 0.0 for c in stats.compute_s)
        assert stats.wait_s == [0.0, 0.0]  # inline: nothing waits

    @pytest.mark.parametrize("preset", sorted(CLUSTER_SPECS))
    def test_cost_model_predicts_per_domain_shares(self, preset):
        spec = cluster_spec(preset)
        n_domains = spec.domain_plan().n_domains
        measured = run_cluster(
            spec, seed=7, sim_s=0.05, shards=n_domains, backend="inline"
        ).shard_stats.events_per_shard
        predicted = predicted_domain_events(spec, 0.05)
        for d in range(n_domains):
            share = predicted[d] / sum(predicted)
            actual = measured[d] / sum(measured)
            assert abs(share / actual - 1.0) <= 0.20, (d, predicted, measured)
