"""Federated ResEx: one congestion price shared across hosts.

The paper runs ResEx on the server host only, but an interfering
application has two halves: its server VM (big responses, server-host
egress) and its client VM (big requests, server-host *ingress*) — the
latter on a machine the server-side controller cannot touch.  The
authors' companion work (ACT [9]) coordinates managers across
machines; this module implements that coordination as one price
federation, used by both the two-host ablation (A9) and the cluster
scenarios:

* :class:`PriceCoordinator` — runs beside the detecting controller
  (rack 0 of a cluster, the server host in A9).  Every sync tick it
  samples that controller's :meth:`~repro.resex.controller.
  ResExController.local_price`, adopts it as the cluster price and
  casts it to every follower rack.
* :class:`PriceAgent` — a follower rack's end: it applies each cast to
  its controller's :attr:`~repro.resex.controller.ResExController.
  cluster_price`, dropping casts older than the last one applied.
* :class:`RackFollower` — the pricing policy of a follower
  controller: it charges every managed VM at the cluster price and
  actuates like IOShares, detecting nothing locally.

The endpoints only exchange messages through a ``send`` callback the
deployment owns: A9 delivers each cast in-process after a fixed
propagation delay, while the cluster world routes it as a real fabric
transfer, so price propagation contends for (and is delayed by) the
very links it is trying to govern.  With the interferer priced on both
hosts, its inbound request stream throttles along with its responses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import PricingError
from repro.resex.ioshares import IOShares
from repro.resex.policy import register_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resex.controller import ResExController


@register_policy
class RackFollower(IOShares):
    """Applies the federated cluster-wide congestion price to every VM.

    The price is the one the :class:`PriceCoordinator`/
    :class:`PriceAgent` federation casts; the policy then charges and
    actuates like IOShares.  No local interference detection: hosts
    that only carry the remote halves of priced flows run this, so a
    price discovered on the coordinator's host throttles the flows'
    other ends everywhere."""

    name = "rack-follower"

    def on_interval(self, controller: "ResExController") -> None:
        price = controller.cluster_price
        for vm in controller.vms:
            vm.charge_rate = price
            self._charge_and_actuate(controller, vm)


#: The transport of the price federation: a callback
#: ``send(dst_rack, round_no, price)`` owned by the deployment, which
#: must eventually hand the cast to ``dst_rack``'s
#: :meth:`PriceAgent.on_cast`.
FederationSend = Callable[[int, int, float], None]


class PriceCoordinator:
    """The casting end of the price federation.

    Every sync tick opens a round: the coordinator samples its
    controller's local price, makes it the cluster price and sends one
    cast per follower rack (``1 .. n_racks - 1``).  Rounds are numbered
    by ticks, so a follower can tell a late cast from a fresh one.
    How a cast travels is the deployment's business — the ``send``
    callback is handed in — so the identical objects run in-process,
    serially or sharded.
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
        #: Rounds cast, and rounds lost while paused.
        self.syncs = 0
        self.syncs_lost = 0
        #: Fault-injection hook (:mod:`repro.faults`): while set, each
        #: tick is a lost round — nothing is sampled or cast, and the
        #: followers keep the last price that arrived.
        self.paused = False
        self._round = 0
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
                continue
            price = self.controller.local_price()
            self.cluster_price = price
            self.controller.cluster_price = price
            self.syncs += 1
            for rack in range(1, self.n_racks):
                self.send(rack, self._round, price)

    def __repr__(self) -> str:
        return (
            f"<PriceCoordinator racks={self.n_racks} "
            f"price={self.cluster_price:.2f} syncs={self.syncs}>"
        )


class PriceAgent:
    """A follower rack's end of the price federation.

    Every ``cast`` applies the coordinator's price to this rack's
    controller.  Casts are idempotent per round and never applied out
    of order (a late-arriving older cast is dropped)."""

    def __init__(self, rack_id: int, controller: "ResExController") -> None:
        if rack_id <= 0:
            raise PricingError("rack 0 is the coordinator; agents take >= 1")
        self.rack_id = rack_id
        self.controller = controller
        self.cluster_price = 1.0
        #: Rounds whose cast this agent has applied.
        self.syncs = 0
        self._applied = 0

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
