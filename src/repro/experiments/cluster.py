"""Cluster-scale scenarios: hundreds of hosts on a partitionable fabric.

The paper's platform is two hosts on a crossbar; ROADMAP item 1 grew it
to a cluster, and ROADMAP item 2 (this module's current shape) makes
one cluster run *partitionable*: the same scenario executes serially or
sharded across worker processes (``shards=``), bit-for-bit identically.

The model is organized around the topology's **domains** (racks for
leaf-spine, pods for fat-tree — see
:class:`~repro.hw.topology.DomainPlan`):

* Every domain owns its own :class:`~repro.hw.fabric.FluidFabric`
  holding its hosts' ports and the switch links the plan assigns it.
  The max-min solver therefore couples flows *within* a domain only —
  in both serial and sharded runs, so partitioning never changes any
  float trajectory.
* Cross-domain traffic is **store-and-forward**: a flow transfers up
  its source-side segment (host port + source-owned switch hops),
  crosses the inter-domain channel as a message carrying the
  propagation latency (``cross_rack_latency_ns`` — the conservative
  lookahead of :mod:`repro.sim.shard`), then transfers down the
  destination-side segment.  Serial runs use the exact same mailbox
  channel at the exact same rack granularity; only the transport under
  the mailbox differs between modes.
* **Monitored application traffic** — the paper's BenchEx pairs live
  entirely inside rack 0 (server on the head node, clients on the next
  hosts), observed by a full ResEx controller (IBMon, Reso accounts,
  IOShares pricing).  The whole virtio/HCA/ResEx stack stays
  domain-local.
* **Per-rack ResEx controllers** — rack 0 runs the detecting
  :class:`~repro.resex.IOShares` policy; every other rack runs
  :class:`~repro.resex.RackFollower`.  Prices federate by *message
  passing*: every sync tick the rack-0 :class:`~repro.resex.
  PriceCoordinator` casts rack 0's price to each rack's
  :class:`~repro.resex.PriceAgent`, every cast paying a real egress
  transfer on rack 0's fabric plus the inter-domain propagation
  latency (casts ride the same channel the flows relay over).
* **Background flows** — a seeded population of VM-to-VM transfers,
  drawn from per-rack RNG streams (``cluster/flows/rack<R>``) so each
  rack's schedule is a pure function of (seed, spec, rack) — never of
  how racks are grouped into shards.
* **Chaos** — optional per-rack link flaps (``chaos_flaps``) drawn
  from ``cluster/chaos/rack<R>`` streams, degrading the rack head's
  egress port; rack-local by construction, so fault campaigns shard
  like everything else.

Background flows deliberately bypass the per-VM virtio/HCA stack — at
256 hosts the full split-driver path per flow would dominate runtime
without changing what the fabric layer is being asked to prove.  The
monitored pairs keep the full stack honest; the flows keep the fabrics
busy.

Determinism contract: every event touches exactly one domain's state;
all cross-domain influence is a :class:`~repro.sim.shard.Message` with
at least the lookahead of latency, delivered in ``(origin, seq)`` order
at the reserved :data:`~repro.sim.events.DELIVERY` priority.  A
domain's trajectory is therefore a pure function of (seed, spec, its
ordered message stream), which is what makes ``shards=1`` and
``shards=N`` byte-identical — the differential suite
(``tests/sim/test_shard_differential.py``) holds this to the digest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchex import BenchExConfig, BenchExPair
from repro.errors import ConfigError
from repro.experiments.platform import Node
from repro.experiments.scenarios import REPORTING_SLA
from repro.hw.fabric import FluidFabric, NetLink
from repro.hw.topology import DomainPlan, FatTreePlan, LeafSpinePlan
from repro.ib.params import DEFAULT_FABRIC_PARAMS, FabricParams
from repro.resex import (
    IOShares,
    PriceAgent,
    PriceCoordinator,
    RackFollower,
    ResExController,
)
from repro.sim.checkpoint import CheckpointConfig, RecoveryPolicy
from repro.sim.core import Environment
from repro.sim.rng import RngRegistry
from repro.sim.shard import Mailbox, Message, ShardStats, run_sharded
from repro.units import KiB, MS, MiB, SEC, US

#: Topology kinds a :class:`ClusterSpec` understands.
TOPOLOGY_KINDS = ("leaf-spine", "fat-tree")


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster configuration: wiring, population and traffic."""

    name: str
    #: ``"leaf-spine"`` or ``"fat-tree"``.
    topology: str = "leaf-spine"
    #: Leaf-spine shape (ignored for fat-tree).
    racks: int = 4
    hosts_per_rack: int = 4
    spines: int = 2
    #: Fat-tree arity (ignored for leaf-spine); hosts = k^3/4.
    fat_tree_k: int = 4
    #: Guest VMs created per host (the flow-endpoint population).
    vms_per_host: int = 4
    #: Background VM-to-VM flows over the whole run.
    n_flows: int = 200
    #: Fraction of flows whose endpoints share a rack.
    intra_rack_frac: float = 0.7
    #: Flow sizes are log-uniform over [min, max].
    flow_bytes_min: int = 64 * KiB
    flow_bytes_max: int = 2 * MiB
    #: Simulated duration.
    sim_s: float = 0.1
    #: Price-cast cadence of the cluster federation.
    sync_interval_ns: int = 2 * MS
    #: Deploy the monitored BenchEx pairs + ResEx controllers.
    with_resex: bool = True
    #: Inter-domain propagation latency of the store-and-forward relay
    #: (spine/core crossing).  Doubles as the conservative lookahead of
    #: a sharded run: no cross-domain influence can arrive sooner.
    cross_rack_latency_ns: int = 200 * US
    #: Forwarding cycle of the inter-domain backplane.  Relays handed
    #: to the spine/core stage depart in batches at multiples of this
    #: epoch (store-and-forward switches forward in scheduled cycles,
    #: aligned here with the federation's own 2 ms cast cadence)
    #: rather than at arbitrary transfer-completion instants.  Besides
    #: being the batching a scheduled backplane actually does, it makes
    #: the egress schedule *predictable*: between epochs a domain can
    #: promise it will not send, which is exactly the send horizon the
    #: shard kernel's barrier elision needs (a coalesced run barriers
    #: per epoch, not per lookahead window).
    relay_epoch_ns: int = 2 * MS
    #: Deterministic link flaps per rack (rack-head egress degraded to
    #: 25% capacity), drawn from per-rack chaos streams.  0 = calm.
    chaos_flaps: int = 0

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_KINDS:
            raise ConfigError(
                f"unknown topology {self.topology!r} (have {TOPOLOGY_KINDS})"
            )
        if self.vms_per_host < 1:
            raise ConfigError("vms_per_host must be >= 1")
        if self.n_flows < 0:
            raise ConfigError("n_flows must be >= 0")
        if not 0.0 <= self.intra_rack_frac <= 1.0:
            raise ConfigError("intra_rack_frac must be within [0, 1]")
        if not 0 < self.flow_bytes_min <= self.flow_bytes_max:
            raise ConfigError("need 0 < flow_bytes_min <= flow_bytes_max")
        if self.sim_s <= 0:
            raise ConfigError("sim_s must be > 0")
        if self.topology == "leaf-spine" and self.racks < 2:
            raise ConfigError("a cluster needs at least two racks")
        if self.cross_rack_latency_ns < 1:
            raise ConfigError("cross_rack_latency_ns must be >= 1")
        if self.relay_epoch_ns < 1:
            raise ConfigError("relay_epoch_ns must be >= 1")
        if self.chaos_flaps < 0:
            raise ConfigError("chaos_flaps must be >= 0")
        if self.with_resex and self.rack_hosts < 2:
            raise ConfigError(
                "with_resex needs >= 2 hosts per rack (the monitored "
                "pairs live inside rack 0)"
            )

    @property
    def n_racks(self) -> int:
        if self.topology == "fat-tree":
            # The edge switch is the rack: k/2 hosts per edge.
            return self.fat_tree_k * (self.fat_tree_k // 2)
        return self.racks

    @property
    def n_hosts(self) -> int:
        if self.topology == "fat-tree":
            return self.fat_tree_k ** 3 // 4
        return self.racks * self.hosts_per_rack

    @property
    def rack_hosts(self) -> int:
        """Hosts per rack (uniform for both topologies)."""
        return self.n_hosts // self.n_racks

    @property
    def n_vms(self) -> int:
        return self.n_hosts * self.vms_per_host

    def domain_plan(self) -> DomainPlan:
        """The link-disjoint partition this spec's topology admits."""
        bps = DEFAULT_FABRIC_PARAMS.link_bytes_per_sec
        if self.topology == "fat-tree":
            return FatTreePlan(k=self.fat_tree_k, link_bytes_per_sec=bps)
        return LeafSpinePlan(
            racks=self.racks, hosts_per_rack=self.hosts_per_rack,
            spines=self.spines, link_bytes_per_sec=bps,
        )


#: The registered cluster presets.  ``cluster_scale`` is ROADMAP item
#: 1's headline configuration: 256 hosts / 2048 VMs on a 16x16
#: leaf-spine with 4 spines.  ``cluster_smoke`` is the CI-sized
#: end-to-end check; ``cluster_fat_tree`` exercises the three-stage
#: routing at k=8 (128 hosts).
CLUSTER_SPECS: Dict[str, ClusterSpec] = {
    spec.name: spec
    for spec in (
        ClusterSpec(
            name="cluster_smoke",
            racks=4, hosts_per_rack=4, spines=2,
            vms_per_host=4, n_flows=150, sim_s=0.08,
        ),
        ClusterSpec(
            name="cluster_scale",
            racks=16, hosts_per_rack=16, spines=4,
            vms_per_host=8, n_flows=2000, sim_s=0.25,
        ),
        ClusterSpec(
            name="cluster_fat_tree",
            topology="fat-tree", fat_tree_k=8,
            vms_per_host=8, n_flows=1000, sim_s=0.2,
        ),
    )
}


def cluster_spec(name: str) -> ClusterSpec:
    try:
        return CLUSTER_SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown cluster preset {name!r} (try {sorted(CLUSTER_SPECS)})"
        ) from None


@dataclass
class FlowRecord:
    """One completed (or still-running) background flow."""

    label: str
    nbytes: int
    cross_rack: bool
    start_ns: int
    done_ns: Optional[int] = None
    #: Globally unique id (``r<rack>.f<index>``) joining the record,
    #: created in the source rack, with its completion, recorded
    #: wherever the destination rack runs.
    fid: str = ""

    @property
    def latency_us(self) -> Optional[float]:
        if self.done_ns is None:
            return None
        return (self.done_ns - self.start_ns) / 1e3


@dataclass
class ClusterResult:
    """Everything a cluster run produces, with a cacheable projection."""

    spec: ClusterSpec
    seed: int
    sim_time_ns: int
    flows: List[FlowRecord]
    #: Merged over every domain fabric (counts summed, max_component
    #: maxed) — in shard order, which equals domain order.
    solver_stats: Dict[str, int]
    #: Reporting-VM latencies (us); empty without ResEx pairs.
    reporting_us: np.ndarray
    federation_syncs: int = 0
    federation_price: float = 1.0
    #: Execution statistics of the sharded runtime; ``None`` for the
    #: plain serial path.  Deliberately excluded from :meth:`metrics`
    #: so digests are shard-count-independent.
    shard_stats: Optional[ShardStats] = None

    def completed(self) -> List[FlowRecord]:
        return [f for f in self.flows if f.done_ns is not None]

    def metrics(self) -> Dict[str, float]:
        """Float-only metrics — the sweep cache's storable shape."""
        done = self.completed()
        lat = np.array([f.latency_us for f in done], dtype=float)
        cross = [f for f in done if f.cross_rack]
        out: Dict[str, float] = {
            "hosts": float(self.spec.n_hosts),
            "vms": float(self.spec.n_vms),
            "flows_submitted": float(len(self.flows)),
            "flows_completed": float(len(done)),
            "flows_cross_rack": float(len(cross)),
            "flow_bytes_total": float(sum(f.nbytes for f in done)),
            "flow_p50_us": float(np.percentile(lat, 50)) if len(lat) else math.nan,
            "flow_p99_us": float(np.percentile(lat, 99)) if len(lat) else math.nan,
            "federation_syncs": float(self.federation_syncs),
            "federation_price": float(self.federation_price),
            "sim_time_s": self.sim_time_ns / SEC,
        }
        stats = self.solver_stats
        solves = stats["global_solves"] + stats["component_solves"]
        out["solver_global_solves"] = float(stats["global_solves"])
        out["solver_component_solves"] = float(stats["component_solves"])
        out["solver_max_component"] = float(stats["max_component"])
        #: Locality evidence: fraction of reallocation solves that
        #: never left their connected component.
        out["solver_component_frac"] = (
            stats["component_solves"] / solves if solves else math.nan
        )
        if len(self.reporting_us):
            out["reporting_p50_us"] = float(np.percentile(self.reporting_us, 50))
            out["reporting_p99_us"] = float(np.percentile(self.reporting_us, 99))
        return out


class _WorldBed:
    """The duck-typed testbed surface rack-local components consume.

    :class:`~repro.benchex.BenchExPair` and friends only touch ``env``
    and ``rng`` (their nodes carry everything else), so a world hands
    them this shim instead of a full two-host
    :class:`~repro.experiments.platform.Testbed`.
    """

    __test__ = False

    def __init__(
        self, env: Environment, rng: RngRegistry, params: FabricParams
    ) -> None:
        self.env = env
        self.rng = rng
        self.params = params


@dataclass
class _DomainState:
    """One domain's isolated slice of the world."""

    domain: int
    fabric: FluidFabric
    #: Switch links this domain owns, by plan name.
    links: Dict[str, NetLink] = field(default_factory=dict)


class ClusterWorld:
    """One environment's worth of a cluster: some (or all) domains.

    A serial run builds one world owning every domain; a sharded run
    builds one world per shard, each owning that shard's domains.  The
    construction path is identical — per-domain fabrics, rack-local
    components, one :class:`~repro.sim.shard.Mailbox` for everything
    that crosses a domain boundary — which is the whole bit-identity
    argument: grouping domains into worlds changes no event order any
    domain can observe.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        seed: int,
        domains: Optional[Sequence[int]] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.plan = spec.domain_plan()
        if domains is None:
            domains = range(self.plan.n_domains)
        self.domains: Tuple[int, ...] = tuple(sorted(domains))
        self.env = Environment()
        self.rng = RngRegistry(seed)
        self.params = DEFAULT_FABRIC_PARAMS
        self.bed = _WorldBed(self.env, self.rng, self.params)
        self.mailbox = Mailbox(self.env, spec.cross_rack_latency_ns)

        self._domains: Dict[int, _DomainState] = {}
        #: Global host index -> Node, local hosts only.
        self._host_nodes: Dict[int, Node] = {}
        #: Local racks (ascending) -> their nodes in host order.
        self.nodes_by_rack: Dict[int, List[Node]] = {}

        #: Relay egress batches awaiting their backplane forwarding
        #: epoch: departure instant -> [(origin, dest, kind, payload)]
        #: in hand-over order.  Populated by :meth:`_relay`, drained by
        #: :meth:`_flush_egress`; its keys (plus the next epoch
        #: boundary) are this world's send horizon.
        self._egress: Dict[int, List[Tuple[int, int, str, Tuple[Any, ...]]]] = {}
        self.mailbox.horizon_fn = self._send_horizon

        self.records: List[FlowRecord] = []
        self.done: Dict[str, int] = {}
        self.pairs: List[BenchExPair] = []
        self.reporter: Optional[BenchExPair] = None
        self.controllers: List[Tuple[int, ResExController]] = []
        self.coordinator: Optional[PriceCoordinator] = None
        self.agents: Dict[int, PriceAgent] = {}
        self._launched = False

        for d in self.domains:
            self._build_domain(d)
        if spec.with_resex:
            self._build_resex()

    # -- construction -------------------------------------------------------
    def _build_domain(self, d: int) -> None:
        spec, plan = self.spec, self.plan
        st = _DomainState(domain=d, fabric=FluidFabric(self.env))
        for name, bps in plan.domain_links(d):
            st.links[name] = st.fabric.add_link(name, bps)
        self._domains[d] = st
        rack_hosts = spec.rack_hosts
        for hi in plan.hosts_of(d):
            r, h = divmod(hi, rack_hosts)
            ncpus = spec.vms_per_host + (4 if h == 0 else 1)
            node = Node(
                self.env, st.fabric, f"rack{r}-host{h}", ncpus, 1.86e9,
                self.params, topology=None,
            )
            for v in range(spec.vms_per_host):
                node.create_guest(f"rack{r}-host{h}.vm{v}")
            self._host_nodes[hi] = node
            self.nodes_by_rack.setdefault(r, []).append(node)
        self.mailbox.register(d, self._on_message)

    def _build_resex(self) -> None:
        spec = self.spec
        rack0 = self.nodes_by_rack.get(0)
        if rack0 is not None:
            # The paper's monitored workload, entirely inside rack 0:
            # the reporting pair serves from the head to host 1, the
            # interferer from the head to the next host — both servers
            # share the head's egress port (the §VII contention point).
            reporter = BenchExPair(
                self.bed, rack0[0], rack0[1],
                BenchExConfig(name="rep", warmup_requests=50),
                with_agent=True,
            )
            interferer = BenchExPair(
                self.bed, rack0[0], rack0[min(2, len(rack0) - 1)],
                BenchExConfig(name="intf", buffer_bytes=2 * MiB),
            )
            self.pairs = [reporter, interferer]
            self.reporter = reporter

        for r in sorted(self.nodes_by_rack):
            head = self.nodes_by_rack[r][0]
            policy = IOShares() if r == 0 else RackFollower()
            ctl = ResExController(head, policy)
            if r == 0:
                ctl.monitor(
                    self.reporter.server_dom, agent=self.reporter.agent,
                    sla=REPORTING_SLA,
                )
                ctl.monitor(self.pairs[1].server_dom)
            else:
                # A follower prices whatever its rack hosts; monitor
                # the head's first guest so the controller has a
                # population.
                ctl.monitor(head.hypervisor.guest_domains()[0])
            ctl.start()
            self.controllers.append((r, ctl))

        for r, ctl in self.controllers:
            if r == 0:
                self.coordinator = PriceCoordinator(
                    self.env, ctl, spec.n_racks, spec.sync_interval_ns,
                    send=self._fed_send,
                )
            else:
                self.agents[r] = PriceAgent(r, ctl)

    # -- index helpers ------------------------------------------------------
    def _head_index(self, rack: int) -> int:
        return rack * self.spec.rack_hosts

    def _host_index(self, rack: int, h: int) -> int:
        return rack * self.spec.rack_hosts + h

    # -- the cross-domain channel -------------------------------------------
    def _relay(
        self, origin: int, dest: int, kind: str, payload: Tuple[Any, ...]
    ) -> None:
        """Hand a message to the inter-domain backplane.

        The backplane forwards in scheduled cycles: a relay queued now
        departs at the next multiple of ``relay_epoch_ns`` (strictly in
        the future) and then pays the propagation latency.  Batching is
        what a store-and-forward stage does anyway; the payoff here is
        that *between* epochs this world provably cannot send, which is
        the send horizon (:meth:`_send_horizon`) barrier elision runs
        on.  Cross-domain departures go through the mailbox; an
        intra-domain relay (fat-tree racks sharing a pod) pays the same
        epoch + latency through a plain timer — same environment in
        every mode, so no ordering contract is needed beyond the
        kernel's.
        """
        epoch = self.spec.relay_epoch_ns
        departure = (self.env.now // epoch + 1) * epoch
        queue = self._egress.get(departure)
        if queue is None:
            queue = self._egress[departure] = []
            timer = self.env.timeout(departure - self.env.now)
            timer.callbacks.append(
                lambda _ev, at=departure: self._flush_egress(at)
            )
        queue.append((origin, dest, kind, payload))

    def _flush_egress(self, departure: int) -> None:
        """One backplane forwarding cycle: every queued relay departs.

        Hand-over order is event order within this world — identical
        however domains are grouped into worlds, so the per-origin
        mailbox sequence (the delivery tie-breaker) is partition-
        independent.
        """
        latency = self.spec.cross_rack_latency_ns
        for origin, dest, kind, payload in self._egress.pop(departure):
            if dest != origin:
                self.mailbox.send(origin, dest, latency, kind, payload)
            else:
                timer = self.env.timeout(latency)
                timer.callbacks.append(
                    lambda _ev, k=kind, p=payload: self._dispatch(k, p)
                )

    def _send_horizon(self) -> int:
        """Earliest future instant this world could mail another domain.

        Sends happen only inside :meth:`_flush_egress`, i.e. at epoch
        boundaries: the earliest already-armed departure, or — when
        nothing is queued yet — the next boundary (a relay queued at
        ``t >= now`` cannot depart before it).  Registered as the
        mailbox's ``horizon_fn``; the shard kernel turns the promise
        into multi-window strides.
        """
        epoch = self.spec.relay_epoch_ns
        nxt = (self.env.now // epoch + 1) * epoch
        if self._egress:
            armed = min(self._egress)
            if armed < nxt:
                return armed
        return nxt

    def _on_message(self, msg: Message) -> None:
        self._dispatch(msg.kind, msg.payload)

    def _dispatch(self, kind: str, payload: Tuple[Any, ...]) -> None:
        if kind == "flow":
            self._land_flow(*payload)
        elif kind == "fed":
            self._fed_deliver(*payload)
        else:  # pragma: no cover - defensive
            raise ConfigError(f"unknown cluster message kind {kind!r}")

    # -- background flows ---------------------------------------------------
    def launch(self, until_ns: int) -> None:
        """Schedule flows, chaos, pair deployment and the federation.

        Everything scheduled here happens at construction-determined
        instants drawn from rack-scoped streams, so the schedule is a
        pure function of (seed, spec, rack set).
        """
        if self._launched:
            raise ConfigError("cluster world already launched")
        self._launched = True
        spec = self.spec

        if self.pairs:
            def deploy_all(env):
                for pair in self.pairs:
                    yield from pair.deploy()
                for pair in self.pairs:
                    pair.start()

            self.env.process(deploy_all(self.env), name="cluster-deploy")
        if self.coordinator is not None:
            self.coordinator.start()

        self._launch_flows(until_ns)
        if spec.chaos_flaps > 0:
            self._launch_chaos(until_ns)

    def _launch_flows(self, until_ns: int) -> None:
        """Per-rack seeded flow schedules (satellite: shard-count-
        independent RNG).

        Each local rack draws its own flows from its own stream; the
        global flow population is the rack-ordered union, so any
        grouping of racks into worlds produces the same schedule.
        """
        spec, plan = self.spec, self.plan
        n_racks, rack_hosts = spec.n_racks, spec.rack_hosts
        base, rem = divmod(spec.n_flows, n_racks)
        # Flows start inside the first 70% of the run so the tail has
        # room to drain (completions are what the percentiles need).
        horizon = int(until_ns * 0.7)

        for r in sorted(self.nodes_by_rack):
            n_r = base + (1 if r < rem else 0)
            if n_r == 0:
                continue
            rng = self.rng.stream(f"cluster/flows/rack{r}")
            for i in range(n_r):
                src_h = int(rng.integers(rack_hosts))
                intra = (
                    rack_hosts > 1
                    and float(rng.random()) < spec.intra_rack_frac
                )
                if intra:
                    dst_r = r
                    dst_h = int(rng.integers(rack_hosts - 1))
                    if dst_h >= src_h:
                        dst_h += 1  # never loopback
                else:
                    dst_r = int(rng.integers(n_racks - 1))
                    if dst_r >= r:
                        dst_r += 1
                    dst_h = int(rng.integers(rack_hosts))
                nbytes = int(
                    math.exp(
                        float(
                            rng.uniform(
                                math.log(spec.flow_bytes_min),
                                math.log(spec.flow_bytes_max),
                            )
                        )
                    )
                )
                start_ns = int(rng.integers(horizon)) if horizon > 0 else 0
                sv = int(rng.integers(spec.vms_per_host))
                dv = int(rng.integers(spec.vms_per_host))
                record = FlowRecord(
                    label=(
                        f"rack{r}-host{src_h}.vm{sv}"
                        f"->rack{dst_r}-host{dst_h}.vm{dv}"
                    ),
                    nbytes=nbytes,
                    cross_rack=dst_r != r,
                    start_ns=start_ns,
                    fid=f"r{r}.f{i}",
                )
                self.records.append(record)
                si = self._host_index(r, src_h)
                di = self._host_index(dst_r, dst_h)
                self.env.process(
                    self._flow(record, si, di), name=f"flow.{record.fid}"
                )

    def _flow(self, record: FlowRecord, si: int, di: int):
        plan, env = self.plan, self.env
        if record.start_ns > 0:
            yield env.timeout(record.start_ns)
        d1, d2 = plan.domain_of(si), plan.domain_of(di)
        st = self._domains[d1]
        src = self._host_nodes[si].host
        if d1 == d2:
            dst = self._host_nodes[di].host
            hops = tuple(st.links[n] for n in plan.intra_hops(si, di))
            transfer = st.fabric.submit(
                [src.tx_link, *hops, dst.rx_link], record.nbytes, record.label
            )
            yield transfer.done
            self.done[record.fid] = env.now
        else:
            # Store-and-forward: source-side segment, then the relay
            # message (paying the inter-domain propagation latency),
            # then the destination-side segment over there.
            src_side, _ = plan.cross_hops(si, di)
            hops = tuple(st.links[n] for n in src_side)
            transfer = st.fabric.submit(
                [src.tx_link, *hops], record.nbytes, record.label
            )
            yield transfer.done
            self._relay(
                d1, d2, "flow", (record.fid, si, di, record.nbytes,
                                 record.label)
            )

    def _land_flow(
        self, fid: str, si: int, di: int, nbytes: int, label: str
    ) -> None:
        """Destination-side segment of a relayed cross-domain flow."""
        plan = self.plan
        d2 = plan.domain_of(di)
        st = self._domains[d2]
        _, dst_side = plan.cross_hops(si, di)
        hops = tuple(st.links[n] for n in dst_side)
        dst = self._host_nodes[di].host
        transfer = st.fabric.submit(
            [*hops, dst.rx_link], nbytes, label
        )
        transfer.done.callbacks.append(
            lambda _ev, fid=fid: self.done.__setitem__(fid, self.env.now)
        )

    # -- federation transport ----------------------------------------------
    def _fed_send(self, dst_rack: int, round_no: int, price: float) -> None:
        """One price cast from rack 0 to ``dst_rack``.

        The message pays a real egress transfer on rack 0's fabric
        (head port + source-side switch hops) and then rides the
        cross-domain channel — contending with the very traffic its
        price governs.
        """
        plan = self.plan
        si = self._head_index(0)
        di = self._head_index(dst_rack)
        d1, d2 = plan.domain_of(si), plan.domain_of(di)
        st = self._domains[d1]
        head = self._host_nodes[si].host
        label = f"fed.cast.r0->r{dst_rack}.{round_no}"
        payload = (dst_rack, round_no, price)
        if d1 == d2:
            # Same pod: the full intra-domain route, then the relay
            # latency on a timer (one environment in every mode).
            dst_head = self._host_nodes[di].host
            hops = tuple(st.links[n] for n in plan.intra_hops(si, di))
            transfer = st.fabric.submit(
                [head.tx_link, *hops, dst_head.rx_link],
                PriceCoordinator.PAYLOAD_BYTES, label,
            )
        else:
            src_side, _ = plan.cross_hops(si, di)
            hops = tuple(st.links[n] for n in src_side)
            transfer = st.fabric.submit(
                [head.tx_link, *hops], PriceCoordinator.PAYLOAD_BYTES, label,
            )
        transfer.done.callbacks.append(
            lambda _ev: self._relay(d1, d2, "fed", payload)
        )

    def _fed_deliver(self, dst_rack: int, round_no: int, price: float) -> None:
        agent = self.agents.get(dst_rack)
        if agent is None:  # pragma: no cover - defensive
            raise ConfigError(f"cast for rack {dst_rack} reached the wrong world")
        agent.on_cast(round_no, price)

    # -- chaos ----------------------------------------------------------------
    def _launch_chaos(self, until_ns: int) -> None:
        """Per-rack seeded link flaps (rack-head egress to 25%)."""
        window = max(1, int(until_ns * 0.8))
        duration = max(1, int(until_ns * 0.1))
        for r in sorted(self.nodes_by_rack):
            rng = self.rng.stream(f"cluster/chaos/rack{r}")
            st = self._domains[self.plan.domain_of(self._head_index(r))]
            link_name = f"rack{r}-host0.tx"
            for j in range(self.spec.chaos_flaps):
                at_ns = int(rng.integers(window))
                self.env.process(
                    self._flap(st.fabric, link_name, at_ns, duration),
                    name=f"chaos.r{r}.{j}",
                )

    def _flap(self, fabric: FluidFabric, link: str, at_ns: int, dur_ns: int):
        if at_ns > 0:
            yield self.env.timeout(at_ns)
        fabric.set_link_degradation(link, 0.25)
        yield self.env.timeout(dur_ns)
        fabric.set_link_degradation(link, 1.0)

    # -- results ------------------------------------------------------------
    def finalize(self) -> Dict[str, Any]:
        """This world's picklable partial result (crosses a pipe in a
        forked run)."""
        solver = {
            "global_solves": 0, "global_transfers": 0,
            "component_solves": 0, "component_transfers": 0,
            "max_component": 0,
        }
        for d in self.domains:
            stats = self._domains[d].fabric.solver_stats
            for key in solver:
                if key == "max_component":
                    solver[key] = max(solver[key], stats[key])
                else:
                    solver[key] += stats[key]
        reporting: List[float] = []
        if self.reporter is not None and self.reporter.server is not None:
            reporting = [float(v) for v in self.reporter.server.latencies_us()]
        return {
            "records": self.records,
            "done": self.done,
            "solver_stats": solver,
            "reporting": reporting,
            "federation_syncs": (
                self.coordinator.syncs if self.coordinator is not None else 0
            ),
            "federation_price": (
                self.coordinator.cluster_price
                if self.coordinator is not None else 1.0
            ),
        }


def _merge_parts(
    parts: List[Dict[str, Any]], spec: ClusterSpec, seed: int, until_ns: int
) -> ClusterResult:
    """Fold per-world partials (shard order == domain order) into one
    :class:`ClusterResult`; pure data, identical in every mode."""
    records: List[FlowRecord] = []
    done: Dict[str, int] = {}
    solver = {
        "global_solves": 0, "global_transfers": 0,
        "component_solves": 0, "component_transfers": 0,
        "max_component": 0,
    }
    reporting: List[float] = []
    syncs, price = 0, 1.0
    for part in parts:
        records.extend(part["records"])
        done.update(part["done"])
        for key in solver:
            if key == "max_component":
                solver[key] = max(solver[key], part["solver_stats"][key])
            else:
                solver[key] += part["solver_stats"][key]
        reporting.extend(part["reporting"])
        syncs += part["federation_syncs"]
        if part["federation_syncs"] > 0 or part["federation_price"] != 1.0:
            price = part["federation_price"]
    for rec in records:
        rec.done_ns = done.get(rec.fid, rec.done_ns)
    return ClusterResult(
        spec=spec,
        seed=seed,
        sim_time_ns=until_ns,
        flows=records,
        solver_stats=solver,
        reporting_us=np.asarray(reporting, dtype=float),
        federation_syncs=syncs,
        federation_price=price,
    )


@dataclass
class ClusterSetup:
    """A fully wired, not-yet-run (serial) cluster scenario."""

    spec: ClusterSpec
    seed: int
    world: ClusterWorld

    @property
    def nodes(self) -> List[List[Node]]:
        """``nodes[r][h]``: host ``h`` of rack ``r`` (serial world)."""
        return [
            self.world.nodes_by_rack[r]
            for r in sorted(self.world.nodes_by_rack)
        ]

    @property
    def controllers(self) -> List[ResExController]:
        return [ctl for _r, ctl in self.world.controllers]

    @property
    def pairs(self) -> List[BenchExPair]:
        return self.world.pairs

    @property
    def reporter(self) -> Optional[BenchExPair]:
        return self.world.reporter

    @property
    def flows(self) -> List[FlowRecord]:
        return self.world.records

    def execute(self, sim_s: Optional[float] = None) -> ClusterResult:
        """Deploy pairs, start flows and the federation, run, collect."""
        until_ns = int(
            (sim_s if sim_s is not None else self.spec.sim_s) * SEC
        )
        self.world.launch(until_ns)
        self.world.env.run(until=until_ns)
        return _merge_parts(
            [self.world.finalize()], self.spec, self.seed, until_ns
        )


def build_cluster(spec: "ClusterSpec | str", seed: int = 7) -> ClusterSetup:
    """Wire a serial cluster scenario without advancing simulated time."""
    if isinstance(spec, str):
        spec = cluster_spec(spec)
    return ClusterSetup(
        spec=spec, seed=seed, world=ClusterWorld(spec, seed)
    )


def cluster_world_key(spec: ClusterSpec, seed: int, until_ns: int) -> str:
    """Stable identity of one cluster run, for checkpoint matching.

    A checkpoint journal only replays into the exact world that wrote
    it, so the key digests everything the build closure depends on:
    the full spec, the seed and the horizon.
    """
    import hashlib as _hashlib

    raw = f"{spec!r}|seed={seed}|until_ns={until_ns}"
    return "cluster/" + _hashlib.sha256(raw.encode()).hexdigest()[:16]


#: Per-domain cost model of a cluster run, in DES events.  The shard
#: partition weighs domains by it (:class:`~repro.sim.shard.ShardMap`),
#: so only its ratios matter.  The coefficients are a least-squares fit
#: to the per-domain ``events_per_shard`` of all three presets, run at
#: one domain per shard for 0.02, 0.05 and 0.1 simulated seconds under
#: seeds 7 and 101 (the counts are deterministic).  The deploy delay
#: is the one on a 0.5 ms grid whose fit balances that grid's 2- and
#: 4-shard partitions best; the worst share error over the grid is
#: 8.0% (``tools/fit_cluster_cost.py`` refits and reports).
#: Every background flow costs its origin rack about 8 events; with
#: ResEx on, every rack pays its controller at a steady rate, and the
#: rack hosting the monitored stack pays for the BenchEx pairs and the
#: IOShares controller once the pairs are deployed, plus one price
#: cast per follower rack every sync tick.
_FLOW_EVENTS = 8.0
_RACK_EVENTS_PER_S = 28_900.0
_STACK_EVENTS_PER_S = 310_000.0
_STACK_DEPLOY_S = 0.006
_COORDINATOR_EVENTS_PER_RACK_S = 1_070.0


def predicted_domain_events(
    spec: ClusterSpec, sim_s: Optional[float] = None
) -> Tuple[float, ...]:
    """Predicted DES events per domain of a ``sim_s`` run of ``spec``.

    A pure function of the spec (never of the seed), so the shard map
    it weighs is too.  Fenced against measured counts in the shard
    property suite.
    """
    sim_s = spec.sim_s if sim_s is None else sim_s
    plan = spec.domain_plan()
    n_racks, rack_hosts = spec.n_racks, spec.rack_hosts
    base, rem = divmod(spec.n_flows, n_racks)
    costs = []
    for d in range(plan.n_domains):
        hosts = plan.hosts_of(d)
        racks = range(hosts[0] // rack_hosts, hosts[-1] // rack_hosts + 1)
        cost = _FLOW_EVENTS * sum(base + (r < rem) for r in racks)
        if spec.with_resex:
            cost += _RACK_EVENTS_PER_S * sim_s * len(racks)
            if 0 in racks:
                cost += _STACK_EVENTS_PER_S * max(sim_s - _STACK_DEPLOY_S, 0.0)
                cost += _COORDINATOR_EVENTS_PER_RACK_S * sim_s * (n_racks - 1)
        costs.append(cost)
    return tuple(costs)


def run_cluster(
    spec: "ClusterSpec | str",
    seed: int = 7,
    sim_s: Optional[float] = None,
    shards: int = 1,
    backend: str = "auto",
    coalesce: bool = True,
    checkpoint_dir: "Optional[str]" = None,
    checkpoint_every: Optional[int] = None,
    restore: bool = False,
    recovery: "Optional[RecoveryPolicy]" = None,
    worker_faults: Sequence[Any] = (),
) -> ClusterResult:
    """Build and run one cluster scenario (the one-call API).

    ``shards > 1`` partitions the run across that many workers along
    the topology's domain plan; the result is bit-identical to
    ``shards=1`` (the differential suite holds this to the digest).
    ``backend`` selects the shard transport (``auto``/``inline``/
    ``fork``; see :func:`repro.sim.shard.run_sharded`).
    ``coalesce=False`` disables barrier elision (one exchange per
    lookahead window — the escape hatch CI compares against; execution
    shape only, never bytes).

    ``checkpoint_dir`` enables barrier-aligned checkpointing
    (:mod:`repro.sim.checkpoint`) at a cadence of ``checkpoint_every``
    barriers, and — unless a :class:`~repro.sim.checkpoint
    .RecoveryPolicy` is supplied explicitly — also arms in-run worker
    recovery with the default respawn budget.  ``restore=True`` resumes
    from the newest usable checkpoint in that directory (empty
    directory: fresh start).  ``worker_faults`` injects host-level
    faults (:class:`repro.faults.WorkerKill`) for crash-recovery tests.
    """
    if isinstance(spec, str):
        spec = cluster_spec(spec)
    sim_s = spec.sim_s if sim_s is None else sim_s
    until_ns = int(sim_s * SEC)
    plan = spec.domain_plan()

    checkpoint = None
    world_key = ""
    if checkpoint_dir is not None:
        kwargs: Dict[str, Any] = {"dir": checkpoint_dir}
        if checkpoint_every is not None:
            kwargs["every"] = int(checkpoint_every)
        checkpoint = CheckpointConfig(**kwargs)
        world_key = cluster_world_key(spec, seed, until_ns)
        if recovery is None:
            recovery = RecoveryPolicy(backoff_seed=seed)

    def build(domains: Optional[Tuple[int, ...]]) -> ClusterWorld:
        world = ClusterWorld(spec, seed, domains)
        world.launch(until_ns)
        return world

    merged, stats = run_sharded(
        build,
        n_domains=plan.n_domains,
        shards=shards,
        weights=predicted_domain_events(spec, sim_s),
        until_ns=until_ns,
        lookahead_ns=spec.cross_rack_latency_ns,
        merge=lambda parts: _merge_parts(parts, spec, seed, until_ns),
        backend=backend,
        coalesce=coalesce,
        checkpoint=checkpoint,
        recovery=recovery,
        restore=restore,
        world_key=world_key,
        worker_faults=worker_faults,
    )
    merged.shard_stats = stats
    return merged


def scaled_spec(spec: ClusterSpec, sim_s: float) -> ClusterSpec:
    """A copy of ``spec`` running for ``sim_s`` simulated seconds."""
    return replace(spec, sim_s=sim_s)
