"""Federated ResEx: coordinating controllers across hosts.

The paper's experiments run ResEx on the server host only, but an
interfering application has two halves: its server VM (big responses,
server-host egress) and its client VM (big requests, server-host
*ingress*) — the latter on a machine the server-side controller cannot
touch.  The authors' companion work (ACT [9]) coordinates managers
across machines; this module implements that deployment:

* :class:`Follower` — a pricing policy that charges and actuates from
  externally-imposed charge rates (no local interference detection).
* :class:`ResExFederation` — a relay that periodically copies the
  congestion price of each *primary* (detected interferer) VM to its
  *linked* VM under another controller, modelling the cross-host
  control message with a small propagation delay.

With the interferer priced on both hosts, its inbound request stream
throttles along with its responses, removing the residual ingress
interference a single-sided deployment leaves behind.

At cluster scale the same idea becomes the core abstraction rather
than a two-host afterthought:

* :class:`RackFollower` — a Follower variant whose imposed price is
  the controller-wide :attr:`~repro.resex.controller.ResExController.
  cluster_price` a federation maintains, instead of a per-VM relay.
* :class:`PriceCoordinator` / :class:`PriceAgent` — the two endpoints
  of the per-rack price federation: each sync round every agent sends
  its rack's local price to the coordinator (rack 0), which reduces
  them to the cluster price and casts it back.  The endpoints only
  exchange messages through a ``send`` callback the deployment owns;
  the cluster world routes each one as a real fabric transfer, so
  price propagation contends for (and is delayed by) the very links
  it is trying to govern.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.errors import PricingError
from repro.resex.ioshares import IOShares
from repro.resex.policy import register_policy
from repro.units import US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resex.controller import ResExController


@register_policy
class Follower(IOShares):
    """Applies congestion prices imposed by a federation, detecting
    nothing locally.  Charging, depletion capping and the congestion
    cap (100 / rate) are identical to IOShares."""

    name = "follower"

    def on_interval(self, controller: "ResExController") -> None:
        for vm in controller.vms:
            self._charge_and_actuate(controller, vm)


class ResExFederation:
    """Relays charge rates between controllers on different hosts."""

    def __init__(
        self,
        env,
        sync_interval_ns: int = 1_000_000,
        propagation_ns: int = 50 * US,
    ) -> None:
        if sync_interval_ns <= 0:
            raise PricingError("sync interval must be positive")
        self.env = env
        self.sync_interval_ns = sync_interval_ns
        self.propagation_ns = propagation_ns
        self._links: List[Tuple] = []
        self.syncs = 0
        self.syncs_lost = 0
        #: Fault-injection hook (:mod:`repro.faults`): while set, sync
        #: rounds fire but their control messages are lost — followers
        #: keep applying the last rate that arrived.
        self.paused = False
        self._proc = None

    def link(
        self,
        primary: Tuple["ResExController", int],
        follower: Tuple["ResExController", int],
    ) -> None:
        """Propagate the charge rate of ``primary``'s domain to
        ``follower``'s domain every sync interval."""
        p_ctl, p_domid = primary
        f_ctl, f_domid = follower
        if p_ctl is f_ctl:
            raise PricingError("federation links join distinct controllers")
        # Validate both ends exist now rather than at first sync.
        p_ctl.vm_by_domid(p_domid)
        f_ctl.vm_by_domid(f_domid)
        for q_ctl, q_domid, g_ctl, g_domid in self._links:
            # A follower VM with two feeding links would be rewritten
            # by both every sync round — last writer wins on
            # ``charge_rate``, silently, in link-registration order.
            # Reject the duplicate instead of racing.
            if g_ctl is f_ctl and g_domid == f_domid:
                raise PricingError(
                    f"domain {f_domid} is already the follower of a "
                    "federation link; duplicate links would race on its "
                    "charge rate"
                )
        self._links.append((p_ctl, p_domid, f_ctl, f_domid))

    def start(self) -> None:
        if not self._links:
            raise PricingError("no federation links configured")
        if self._proc is None:
            self._proc = self.env.process(self._run(), name="resex-federation")

    def _run(self):
        while True:
            yield self.env.timeout(self.sync_interval_ns)
            if self.paused:
                # Federation link down: this round's message is lost.
                self.syncs_lost += 1
                continue
            # One cross-host control message per sync round.
            yield self.env.timeout(self.propagation_ns)
            for p_ctl, p_domid, f_ctl, f_domid in self._links:
                rate = p_ctl.vm_by_domid(p_domid).charge_rate
                f_ctl.vm_by_domid(f_domid).charge_rate = rate
            self.syncs += 1

    def __repr__(self) -> str:
        return f"<ResExFederation links={len(self._links)} syncs={self.syncs}>"


@register_policy
class RackFollower(IOShares):
    """Applies the federated cluster-wide congestion price to every VM.

    The price is the one the :class:`PriceCoordinator`/
    :class:`PriceAgent` federation maintains; the policy then charges
    and actuates like IOShares.  No local interference
    detection: racks that only host the remote halves of cross-rack
    flows run this, so a price discovered in one rack throttles the
    flows' other ends everywhere."""

    name = "rack-follower"

    def on_interval(self, controller: "ResExController") -> None:
        price = controller.cluster_price
        for vm in controller.vms:
            vm.charge_rate = price
            self._charge_and_actuate(controller, vm)


#: The wire signature of the message-passing federation: a transport
#: callback ``send(src_rack, dst_rack, verb, round_no, price)`` owned
#: by the deployment (the cluster world routes it over per-rack fabric
#: transfers plus the cross-shard channel).
FederationSend = Callable[[int, int, str, int, float], None]

#: Sentinel marking a gossip round whose messages were lost (federation
#: paused by a fault campaign) — the round completes with no effect.
_LOST: Dict[int, float] = {}


class PriceCoordinator:
    """Rack 0's end of the message-passing price federation.

    Racks may be partitioned across shard workers
    (:mod:`repro.sim.shard`), so the federation runs over *messages
    only*: each sync round every :class:`PriceAgent` sends its rack's
    local price to the coordinator (``gather``), which reduces the
    round with ``max`` and sends the cluster price back (``cast``).
    How a message travels is the deployment's business — the ``send``
    callback is handed in — so the identical objects run serially or
    sharded.

    Rounds are numbered by sync ticks (every endpoint ticks on the
    same interval from t=0, so numbering agrees cluster-wide) and are
    completed **strictly in order**: gathers for round *k+1* may arrive
    before round *k* is full (transfer latencies vary with contention),
    but the reduction and cast for *k+1* never overtake *k*'s.
    """

    #: Control-message size on the wire (what deployments should charge
    #: the fabric for).
    PAYLOAD_BYTES = 256

    def __init__(
        self,
        env,
        controller: "ResExController",
        n_racks: int,
        sync_interval_ns: int,
        send: FederationSend,
    ) -> None:
        if sync_interval_ns <= 0:
            raise PricingError("sync interval must be positive")
        if n_racks < 2:
            raise PricingError("a cluster federation needs at least two racks")
        self.env = env
        self.controller = controller
        self.n_racks = n_racks
        self.sync_interval_ns = sync_interval_ns
        self.send = send
        #: The current cluster-wide congestion price (1.0 = calm).
        self.cluster_price = 1.0
        self.syncs = 0
        self.syncs_lost = 0
        #: Fault-injection hook: while set, new rounds open lost —
        #: their gathers are dropped and no cast goes out.
        self.paused = False
        self._pending: Dict[int, Dict[int, float]] = {}
        self._round = 0
        self._completed = 0
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.env.process(
                self._run(), name="resex-price-coordinator"
            )

    def _run(self):
        while True:
            yield self.env.timeout(self.sync_interval_ns)
            self._round += 1
            if self.paused:
                self.syncs_lost += 1
                self._pending[self._round] = _LOST
            else:
                # The coordinator's own price is sampled when the round
                # opens — the instant every agent samples theirs.
                self._pending[self._round] = {
                    0: self.controller.local_price()
                }
            self._try_complete()

    def on_gather(self, round_no: int, src_rack: int, price: float) -> None:
        """An agent's local price arrived for ``round_no``."""
        bucket = self._pending.get(round_no)
        if bucket is None or bucket is _LOST:
            # Round already closed or lost while paused: message is
            # stale, drop it.
            return
        bucket[src_rack] = price
        self._try_complete()

    def _try_complete(self) -> None:
        while True:
            nxt = self._completed + 1
            bucket = self._pending.get(nxt)
            if bucket is None:
                return
            if bucket is _LOST:
                del self._pending[nxt]
                self._completed = nxt
                continue
            if len(bucket) < self.n_racks:
                return
            # Reduce in rack order (max is order-free; the iteration
            # order is pinned anyway for determinism-by-construction).
            price = max(bucket[r] for r in sorted(bucket))
            del self._pending[nxt]
            self._completed = nxt
            self.cluster_price = price
            self.controller.cluster_price = price
            self.syncs += 1
            for rack in range(1, self.n_racks):
                self.send(0, rack, "cast", nxt, price)

    def __repr__(self) -> str:
        return (
            f"<PriceCoordinator racks={self.n_racks} "
            f"price={self.cluster_price:.2f} syncs={self.syncs}>"
        )


class PriceAgent:
    """A non-coordinator rack's end of the price federation.

    Every sync tick it sends its rack's local price to the coordinator;
    every ``cast`` it applies the reduced cluster price to its
    controller.  Casts are idempotent per round and never applied out
    of order (a late-arriving older cast is dropped)."""

    def __init__(
        self,
        env,
        rack_id: int,
        controller: "ResExController",
        sync_interval_ns: int,
        send: FederationSend,
    ) -> None:
        if sync_interval_ns <= 0:
            raise PricingError("sync interval must be positive")
        if rack_id <= 0:
            raise PricingError("rack 0 is the coordinator; agents take >= 1")
        self.env = env
        self.rack_id = rack_id
        self.controller = controller
        self.sync_interval_ns = sync_interval_ns
        self.send = send
        self.cluster_price = 1.0
        #: Rounds whose cast this agent has applied.
        self.syncs = 0
        self._round = 0
        self._applied = 0
        self._proc = None

    def start(self) -> None:
        if self._proc is None:
            self._proc = self.env.process(
                self._run(), name=f"resex-price-agent-{self.rack_id}"
            )

    def _run(self):
        while True:
            yield self.env.timeout(self.sync_interval_ns)
            self._round += 1
            self.send(
                self.rack_id, 0, "gather", self._round,
                self.controller.local_price(),
            )

    def on_cast(self, round_no: int, price: float) -> None:
        if round_no <= self._applied:
            return
        self._applied = round_no
        self.cluster_price = price
        self.controller.cluster_price = price
        self.syncs += 1

    def __repr__(self) -> str:
        return (
            f"<PriceAgent rack={self.rack_id} "
            f"price={self.cluster_price:.2f} syncs={self.syncs}>"
        )
