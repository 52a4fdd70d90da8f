"""Wiring a BenchEx client/server pair onto the testbed.

One :class:`BenchExPair` is the deployable unit of the paper's
experiments: a server VM on the server host, a client VM on the client
host, connected RC QPs, and the two application loops.  The pair's VMs
get one pinned core each (the paper's configuration), so all observed
interference is I/O interference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.benchex.client import BenchExClient
from repro.benchex.config import BenchExConfig
from repro.benchex.latency import LatencyBreakdown
from repro.benchex.reporting import LatencyAgent
from repro.benchex.server import BenchExServer
from repro.errors import BenchmarkError
from repro.ib.verbs import connect
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.platform import Node, Testbed


class BenchExPair:
    """A deployed client/server BenchEx instance."""

    def __init__(
        self,
        bed: "Testbed",
        server_node: "Node",
        client_node: "Node",
        config: BenchExConfig,
        with_agent: bool = False,
    ) -> None:
        self.bed = bed
        self.config = config
        self.server_node = server_node
        self.client_node = client_node

        self.server_dom = server_node.create_guest(f"{config.name}-server")
        self.client_dom = client_node.create_guest(f"{config.name}-client")
        self.server_fe = server_node.frontend(self.server_dom)
        self.client_fe = client_node.frontend(self.client_dom)

        self.agent: Optional[LatencyAgent] = (
            LatencyAgent(self.server_dom.domid) if with_agent else None
        )
        self.server: Optional[BenchExServer] = None
        self.client: Optional[BenchExClient] = None
        self.server_proc: Optional[Process] = None
        self.client_proc: Optional[Process] = None

    # -- lifecycle -------------------------------------------------------------
    def deploy(self):
        """Create contexts, CQs, QPs, MRs; connect (process generator)."""
        cfg = self.config

        server_ctx = yield from self.server_fe.open_context()
        client_ctx = yield from self.client_fe.open_context()

        s_send_cq = yield from self.server_fe.create_cq(server_ctx)
        s_recv_cq = yield from self.server_fe.create_cq(server_ctx)
        c_send_cq = yield from self.client_fe.create_cq(client_ctx)
        c_recv_cq = yield from self.client_fe.create_cq(client_ctx)

        server_qp = yield from self.server_fe.create_qp(
            server_ctx, s_send_cq, s_recv_cq
        )
        client_qp = yield from self.client_fe.create_qp(
            client_ctx, c_send_cq, c_recv_cq
        )
        yield from connect(server_ctx, server_qp, client_ctx, client_qp)

        self.server = BenchExServer(cfg, server_ctx, server_qp, agent=self.agent)
        self.client = BenchExClient(
            cfg, client_ctx, client_qp, self.bed.rng.stream(f"{cfg.name}/client")
        )
        yield from self.server.setup(self.server_fe)
        yield from self.client.setup(self.client_fe)

    def start(self) -> None:
        """Launch the server and client loops as background processes."""
        if self.server is None or self.client is None:
            raise BenchmarkError("deploy() must complete before start()")
        env = self.bed.env
        self.server_proc = env.process(
            self.server.run(), name=f"{self.config.name}-server"
        )
        self.client_proc = env.process(
            self.client.run(), name=f"{self.config.name}-client"
        )

    # -- results ------------------------------------------------------------------
    def server_breakdown(self) -> LatencyBreakdown:
        if self.server is None:
            raise BenchmarkError("pair not deployed")
        return LatencyBreakdown.from_records(self.server.records)


def deploy_pairs(bed: "Testbed", pairs: List[BenchExPair]):
    """Process generator: deploy every pair, then start all loops.

    Deployment is sequential (control path), but the application loops
    all start at the same instant so collocated workloads overlap from
    the first request.
    """
    for pair in pairs:
        yield from pair.deploy()
    for pair in pairs:
        pair.start()


def run_pairs(
    bed: "Testbed",
    pairs: List[BenchExPair],
    until_ns: Optional[int] = None,
) -> None:
    """Deploy and run pairs; blocks until clients with request limits
    finish (or ``until_ns`` of simulated time elapses)."""
    bed.env.process(deploy_pairs(bed, pairs), name="deploy")
    if until_ns is not None:
        bed.env.run(until=until_ns)
        return
    limited = [p for p in pairs if p.config.request_limit is not None]
    if not limited:
        raise BenchmarkError(
            "run_pairs without until_ns requires at least one pair with "
            "a request_limit"
        )
    # Run until every limited client finishes.
    def waiter(env):
        # Wait for deployment to create the processes.
        while any(p.client_proc is None for p in limited):
            yield env.timeout(1_000_000)
        yield env.all_of([p.client_proc for p in limited])

    done = bed.env.process(waiter(bed.env), name="run-waiter")
    bed.env.run(until=done)
