"""End-to-end verbs tests: SEND/RECV, RDMA write/read, errors, ordering."""

import pytest

from repro.errors import QPError
from repro.ib import Access, Opcode, QPState, WCOpcode, WCStatus
from repro.units import MS, SEC, US, KiB

GB_PER_S = float(1024**3)


def run(rig, gen, until=None):
    proc = rig.env.process(gen)
    if until is None:
        rig.env.run(until=proc)
    else:
        rig.env.run(until=until)
    return proc


class TestControlPath:
    def test_context_setup_costs_time(self, rig):
        run(rig, rig.setup_contexts())
        # Two round trips (hypercall + backend op each) happened.
        assert rig.env.now >= 2 * (10 * US)

    def test_qp_connection_state_machine(self, rig):
        run(rig, rig.setup_connected_qps())
        assert rig.server_qp.state is QPState.RTS
        assert rig.client_qp.state is QPState.RTS
        assert rig.server_qp.peer is rig.client_qp
        assert rig.client_qp.peer is rig.server_qp

    def test_reg_mr_via_frontend(self, rig):
        def scenario():
            yield from rig.setup_contexts()
            mr = yield from rig.reg("server", 64 * KiB)
            assert mr.nbytes == 64 * KiB
            assert mr in rig.server_ctx.mrs

        run(rig, scenario())

    def test_backend_counts_ops(self, rig):
        run(rig, rig.setup_connected_qps())
        # open x2 + cq x2 + qp x2 = 6 backend ops.
        assert rig.server_node.backend.ops_served >= 3
        assert rig.client_node.backend.ops_served >= 3


class TestSendRecv:
    def test_send_delivers_recv_completion(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", 4 * KiB)
            rmr = yield from rig.reg("server", 4 * KiB)
            yield from rig.server_ctx.post_recv(rig.server_qp, rmr)
            t0 = rig.env.now
            yield from rig.client_ctx.post_send(rig.client_qp, smr)
            cqes, polled = yield from rig.server_ctx.poll_cq_blocking(rig.server_cq)
            result["latency"] = rig.env.now - t0
            result["cqes"] = cqes

        run(rig, scenario())
        (c,) = result["cqes"]
        assert c.opcode is WCOpcode.RECV
        assert c.status is WCStatus.SUCCESS
        assert c.byte_len == 4 * KiB
        # 4 KiB wire = ~3.8us + fixed overheads: single-digit microseconds.
        assert 3 * US < result["latency"] < 20 * US

    def test_sender_gets_send_completion_after_ack(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", KiB)
            rmr = yield from rig.reg("server", KiB)
            yield from rig.server_ctx.post_recv(rig.server_qp, rmr)
            yield from rig.client_ctx.post_send(rig.client_qp, smr)
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["cqes"] = cqes

        run(rig, scenario())
        (c,) = result["cqes"]
        assert c.opcode is WCOpcode.SEND
        assert c.status is WCStatus.SUCCESS

    def test_rnr_send_waits_for_recv_post(self, rig):
        """SEND before any recv is posted: completes only after post_recv."""
        result = {}

        def sender():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", KiB)
            yield from rig.client_ctx.post_send(rig.client_qp, smr)
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["send_done_at"] = rig.env.now

        def receiver():
            # Post the recv late.
            yield rig.env.timeout(5 * MS)
            rmr = yield from rig.reg("server", KiB)
            yield from rig.server_ctx.post_recv(rig.server_qp, rmr)
            result["recv_posted_at"] = rig.env.now

        rig.env.process(sender())
        rig.env.process(receiver())
        rig.env.run(until=50 * MS)
        assert result["send_done_at"] > result["recv_posted_at"]

    def test_send_larger_than_recv_buffer_errors(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", 8 * KiB)
            rmr = yield from rig.reg("server", KiB)
            yield from rig.server_ctx.post_recv(rig.server_qp, rmr, length=KiB)
            yield from rig.client_ctx.post_send(rig.client_qp, smr, length=8 * KiB)
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["cqes"] = cqes

        run(rig, scenario())
        (c,) = result["cqes"]
        assert c.status is WCStatus.LOC_PROT_ERR
        assert rig.client_qp.state is QPState.ERROR

    def test_fifo_ordering_per_qp(self, rig):
        """RC guarantees in-order delivery: recv CQEs match post order."""
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", KiB)
            rmr = yield from rig.reg("server", KiB)
            for i in range(5):
                yield from rig.server_ctx.post_recv(
                    rig.server_qp, rmr, wr_id=100 + i
                )
            for i in range(5):
                yield from rig.client_ctx.post_send(
                    rig.client_qp, smr, wr_id=200 + i
                )
            got = []
            while len(got) < 5:
                cqes, _ = yield from rig.server_ctx.poll_cq_blocking(
                    rig.server_cq
                )
                got.extend(cqes)
            result["order"] = [c.wr_id for c in got]

        run(rig, scenario())
        assert result["order"] == [100, 101, 102, 103, 104]


class TestRDMA:
    def test_rdma_write_silent_at_responder(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", 4 * KiB)
            tmr = yield from rig.reg("server", 4 * KiB)
            yield from rig.client_ctx.post_send(
                rig.client_qp,
                smr,
                opcode=Opcode.RDMA_WRITE,
                remote_rkey=tmr.rkey,
            )
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["sender_cqes"] = cqes
            result["responder_pending"] = rig.server_cq.pending

        run(rig, scenario())
        assert result["sender_cqes"][0].status is WCStatus.SUCCESS
        assert result["responder_pending"] == 0

    def test_rdma_write_with_imm_generates_recv_cqe(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", 4 * KiB)
            tmr = yield from rig.reg("server", 4 * KiB)
            yield from rig.client_ctx.post_send(
                rig.client_qp,
                smr,
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                remote_rkey=tmr.rkey,
                imm_data=0xBEEF,
            )
            cqes, _ = yield from rig.server_ctx.poll_cq_blocking(rig.server_cq)
            result["cqes"] = cqes

        run(rig, scenario())
        (c,) = result["cqes"]
        assert c.opcode is WCOpcode.RECV_RDMA_WITH_IMM
        assert c.imm_data == 0xBEEF

    def test_rdma_write_bad_rkey_fails(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", KiB)
            yield from rig.client_ctx.post_send(
                rig.client_qp,
                smr,
                opcode=Opcode.RDMA_WRITE,
                remote_rkey=0xBAD,
            )
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["cqes"] = cqes

        run(rig, scenario())
        assert result["cqes"][0].status is WCStatus.LOC_PROT_ERR

    def test_rdma_write_without_remote_write_permission_fails(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", KiB)
            tmr = yield from rig.reg(
                "server",
                KiB,
                access=Access.LOCAL_READ | Access.LOCAL_WRITE | Access.REMOTE_READ,
            )
            yield from rig.client_ctx.post_send(
                rig.client_qp,
                smr,
                opcode=Opcode.RDMA_WRITE,
                remote_rkey=tmr.rkey,
            )
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["cqes"] = cqes

        run(rig, scenario())
        assert result["cqes"][0].status is WCStatus.LOC_PROT_ERR

    def test_rdma_read_pulls_data(self, rig):
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            lmr = yield from rig.reg("client", 16 * KiB)
            rmr = yield from rig.reg("server", 16 * KiB)
            t0 = rig.env.now
            yield from rig.client_ctx.post_send(
                rig.client_qp,
                lmr,
                opcode=Opcode.RDMA_READ,
                remote_rkey=rmr.rkey,
            )
            cqes, _ = yield from rig.client_ctx.poll_cq_blocking(rig.client_cq)
            result["cqes"] = cqes
            result["latency"] = rig.env.now - t0

        run(rig, scenario())
        (c,) = result["cqes"]
        assert c.opcode is WCOpcode.RDMA_READ
        assert c.status is WCStatus.SUCCESS
        # 16 KiB wire ~15us + request oneway + overheads.
        assert result["latency"] > 15 * US


class TestThroughputAndInterference:
    def test_large_transfer_wire_time(self, rig):
        """2 MiB should take ~2ms on a 1 GiB/s link."""
        result = {}

        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", 2048 * KiB)
            rmr = yield from rig.reg("server", 2048 * KiB)
            yield from rig.server_ctx.post_recv(rig.server_qp, rmr)
            t0 = rig.env.now
            yield from rig.client_ctx.post_send(rig.client_qp, smr)
            yield from rig.server_ctx.poll_cq_blocking(rig.server_cq)
            result["latency"] = rig.env.now - t0

        run(rig, scenario())
        wire = 2048 * KiB * SEC / GB_PER_S  # ~2.0ms
        assert result["latency"] == pytest.approx(wire, rel=0.05)

    def test_per_domain_accounting(self, rig):
        def scenario():
            yield from rig.setup_connected_qps()
            smr = yield from rig.reg("client", 64 * KiB)
            rmr = yield from rig.reg("server", 64 * KiB)
            yield from rig.server_ctx.post_recv(rig.server_qp, rmr)
            yield from rig.client_ctx.post_send(rig.client_qp, smr)
            yield from rig.server_ctx.poll_cq_blocking(rig.server_cq)

        run(rig, scenario())
        hca = rig.client_node.hca
        domid = rig.client_dom.domid
        assert hca.bytes_sent_by_domain[domid] == 64 * KiB
        assert hca.mtus_sent_by_domain[domid] == 64  # 64 KiB / 1 KiB MTU


class TestQPValidation:
    def test_post_send_on_unconnected_qp(self, rig):
        failures = []

        def scenario():
            yield from rig.setup_contexts()
            cq = yield from rig.server_fe.create_cq(rig.server_ctx)
            qp = yield from rig.server_fe.create_qp(rig.server_ctx, cq)
            mr = yield from rig.reg("server", KiB)
            try:
                yield from rig.server_ctx.post_send(qp, mr)
            except QPError:
                failures.append(True)

        run(rig, scenario())
        assert failures == [True]

    def test_foreign_qp_rejected(self, rig):
        failures = []

        def scenario():
            yield from rig.setup_connected_qps()
            mr = yield from rig.reg("client", KiB)
            try:
                # Server QP via the client context.
                yield from rig.client_ctx.post_send(rig.server_qp, mr)
            except QPError:
                failures.append(True)

        run(rig, scenario())
        assert failures == [True]

    def test_send_queue_capacity_enforced(self, rig):
        failures = []

        def scenario():
            yield from rig.setup_contexts()
            cq_s = yield from rig.server_fe.create_cq(rig.server_ctx)
            cq_c = yield from rig.client_fe.create_cq(rig.client_ctx)
            qp_s = yield from rig.server_fe.create_qp(
                rig.server_ctx, cq_s, max_send_wr=2
            )
            qp_c = yield from rig.client_fe.create_qp(rig.client_ctx, cq_c)
            from repro.ib import connect

            yield from connect(rig.server_ctx, qp_s, rig.client_ctx, qp_c)
            mr = yield from rig.reg("server", 1024 * KiB)
            try:
                for _ in range(16):
                    yield from rig.server_ctx.post_send(qp_s, mr)
            except QPError as exc:
                failures.append("full" in str(exc))

        run(rig, scenario())
        assert failures == [True]
