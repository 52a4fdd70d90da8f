"""IBMon tests: estimates vs HCA ground truth, classification, raciness."""

import pytest

from repro.benchex import BenchExConfig, BenchExPair, run_pairs
from repro.errors import IntrospectionError
from repro.experiments.platform import Testbed
from repro.ibmon import IBMon
from repro.units import MS, KiB


def run_with_ibmon(cfg, n=120, sample_interval=250_000):
    bed = Testbed.paper_testbed(seed=9)
    s, c = bed.node("server-host"), bed.node("client-host")
    pair = BenchExPair(bed, s, c, cfg)
    ibmon = IBMon(s, sample_interval_ns=sample_interval)
    ibmon.watch_domain(pair.server_dom.domid)
    ibmon.start()
    run_pairs(bed, [pair])
    ibmon.sample_now()  # catch the tail
    return bed, pair, ibmon


class TestEstimation:
    def test_mtus_estimate_matches_ground_truth(self):
        """IBMon's MTUsSent must track the HCA's exact per-domain count."""
        cfg = BenchExConfig(name="rep", request_limit=120, warmup_requests=0)
        bed, pair, ibmon = run_with_ibmon(cfg)
        stats = ibmon.drain(pair.server_dom.domid)
        truth = bed.node("server-host").hca.mtus_sent_by_domain[
            pair.server_dom.domid
        ]
        assert stats.estimated_mtus == pytest.approx(truth, rel=0.03)

    def test_buffer_size_inference(self):
        cfg = BenchExConfig(name="rep", request_limit=60, warmup_requests=0)
        _, pair, ibmon = run_with_ibmon(cfg)
        stats = ibmon.drain(pair.server_dom.domid)
        assert stats.buffer_size_estimate == 64 * KiB

    def test_large_buffer_instance(self):
        cfg = BenchExConfig(
            name="big", buffer_bytes=512 * KiB, request_limit=40, warmup_requests=0
        )
        bed, pair, ibmon = run_with_ibmon(cfg)
        stats = ibmon.drain(pair.server_dom.domid)
        assert stats.buffer_size_estimate == 512 * KiB
        truth = bed.node("server-host").hca.mtus_sent_by_domain[
            pair.server_dom.domid
        ]
        assert stats.estimated_mtus == pytest.approx(truth, rel=0.05)

    def test_qp_number_detection(self):
        """Paper SIII: IBMon detects the QP number used by the app."""
        cfg = BenchExConfig(name="rep", request_limit=40, warmup_requests=0)
        _, pair, ibmon = run_with_ibmon(cfg)
        stats = ibmon.drain(pair.server_dom.domid)
        assert len(stats.qp_nums) >= 1

    def test_drain_resets_accumulators(self):
        cfg = BenchExConfig(name="rep", request_limit=60, warmup_requests=0)
        _, pair, ibmon = run_with_ibmon(cfg)
        first = ibmon.drain(pair.server_dom.domid)
        assert first.estimated_mtus > 0
        second = ibmon.drain(pair.server_dom.domid)
        assert second.estimated_mtus == 0

    def test_recv_completions_not_counted_as_sent(self):
        """Only send-side completions count toward MTUsSent: the server
        sends exactly what it receives here (same size both ways), so an
        estimate that double counted would be ~2x ground truth."""
        cfg = BenchExConfig(name="rep", request_limit=100, warmup_requests=0)
        bed, pair, ibmon = run_with_ibmon(cfg)
        stats = ibmon.drain(pair.server_dom.domid)
        truth = bed.node("server-host").hca.mtus_sent_by_domain[
            pair.server_dom.domid
        ]
        assert stats.estimated_mtus < truth * 1.5


class TestDaemonBehaviour:
    def test_unwatched_domain_rejected(self):
        bed = Testbed.paper_testbed(seed=1)
        ibmon = IBMon(bed.node("server-host"))
        with pytest.raises(IntrospectionError):
            ibmon.drain(42)

    def test_invalid_interval(self):
        bed = Testbed.paper_testbed(seed=1)
        with pytest.raises(IntrospectionError):
            IBMon(bed.node("server-host"), sample_interval_ns=0)

    def test_sampling_consumes_dom0_cpu(self):
        cfg = BenchExConfig(name="rep", request_limit=60, warmup_requests=0)
        bed, pair, ibmon = run_with_ibmon(cfg)
        dom0 = bed.node("server-host").hypervisor.dom0
        assert dom0.vcpu.cumulative_ns > 0
        assert ibmon.samples_taken > 10

    def test_coarse_sampling_still_counts_everything(self):
        """Counts come from the monotonic producer index, so even a slow
        sampler misses nothing (only entry *contents* are racy)."""
        cfg = BenchExConfig(name="rep", request_limit=80, warmup_requests=0)
        bed, pair, ibmon = run_with_ibmon(cfg, sample_interval=5 * MS)
        stats = ibmon.drain(pair.server_dom.domid)
        truth = bed.node("server-host").hca.mtus_sent_by_domain[
            pair.server_dom.domid
        ]
        assert stats.estimated_mtus == pytest.approx(truth, rel=0.10)

    def test_two_vms_monitored_independently(self):
        bed = Testbed.paper_testbed(seed=4)
        s, c = bed.node("server-host"), bed.node("client-host")
        small = BenchExPair(
            bed, s, c, BenchExConfig(name="small", request_limit=80, warmup_requests=0)
        )
        big = BenchExPair(
            bed,
            s,
            c,
            BenchExConfig(
                name="big",
                buffer_bytes=256 * KiB,
                request_limit=30,
                warmup_requests=0,
            ),
        )
        ibmon = IBMon(s)
        ibmon.watch_domain(small.server_dom.domid)
        ibmon.watch_domain(big.server_dom.domid)
        ibmon.start()
        run_pairs(bed, [small, big])
        ibmon.sample_now()
        s_stats = ibmon.drain(small.server_dom.domid)
        b_stats = ibmon.drain(big.server_dom.domid)
        assert s_stats.buffer_size_estimate == 64 * KiB
        assert b_stats.buffer_size_estimate == 256 * KiB
        # The big VM moved more MTUs despite fewer requests.
        assert b_stats.estimated_mtus > s_stats.estimated_mtus


class TestLateDiscovery:
    """IBMon rescans for CQs only when the HCA's CQ table has grown, so
    rings created, or domains watched, after sampling starts must still
    be found and counted from the start of the ring."""

    def test_cqs_created_after_sampling_starts_are_counted(self):
        bed = Testbed.paper_testbed(seed=9)
        s, c = bed.node("server-host"), bed.node("client-host")
        cfg = BenchExConfig(name="rep", request_limit=120, warmup_requests=0)
        pair = BenchExPair(bed, s, c, cfg)
        domid = pair.server_dom.domid
        # A bystander's ring already exists, so the first scans see a
        # non-empty CQ table that holds nothing of the watched guest.
        s.hca.create_cq(s.create_guest("bystander"))
        ibmon = IBMon(s)
        ibmon.watch_domain(domid)
        ibmon.start()
        bed.env.run(until=MS)  # four samples before the guest has a CQ
        assert ibmon.samples_taken >= 3
        assert not any(
            cq.page.address_space.domid == domid for cq in s.hca.cqs.values()
        )
        assert ibmon.drain(domid).completions == 0
        run_pairs(bed, [pair])  # creates the QPs/CQs, then posts sends
        ibmon.sample_now()
        stats = ibmon.drain(domid)
        truth = s.hca.mtus_sent_by_domain[domid]
        assert truth > 0
        assert stats.completions > 0
        assert stats.estimated_mtus == pytest.approx(truth, rel=0.03)

    def test_domain_watched_after_its_cqs_exist(self):
        bed = Testbed.paper_testbed(seed=4)
        s, c = bed.node("server-host"), bed.node("client-host")
        first = BenchExPair(
            bed, s, c, BenchExConfig(name="first", request_limit=60, warmup_requests=0)
        )
        late = BenchExPair(
            bed, s, c, BenchExConfig(name="late", request_limit=60, warmup_requests=0)
        )
        ibmon = IBMon(s)
        ibmon.watch_domain(first.server_dom.domid)
        ibmon.start()
        run_pairs(bed, [first, late])
        # Every sample so far scanned the full CQ table for ``first``.
        assert ibmon.samples_taken > 10
        ibmon.watch_domain(late.server_dom.domid)
        ibmon.sample_now()
        stats = ibmon.drain(late.server_dom.domid)
        truth = s.hca.mtus_sent_by_domain[late.server_dom.domid]
        assert truth > 0
        assert stats.estimated_mtus == pytest.approx(truth, rel=0.03)
