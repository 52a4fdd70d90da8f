"""The served ResEx world: a real DES testbed behind the service API.

Both service backends (:class:`~repro.service.backend.SimBackend` and
:class:`~repro.service.backend.LiveBackend`) mount the same
:class:`ResExWorld`: one server host from the standard
:class:`~repro.experiments.platform.Testbed`, a population of
pre-provisioned guest *slots* under a live
:class:`~repro.resex.ResExController` (running its real management
loop — sensor reads, pricing policy, Reso replenishment — in the
world's virtual time), and a shared fabric link that order flow
contends on under max-min sharing.  The only thing a backend adds is a
*clock policy*: sim mode steps virtual time from request arrival
offsets, live mode slaves it to the wall clock with an asyncio ticker.

Operations map the paper's market onto a request/response surface:

* ``admit`` / ``release`` — VM admission binds a tenant name to a free
  slot (its domain and provisioned :class:`~repro.resex.resos
  .ResoAccount`); capacity exhaustion is an explicit
  :class:`~repro.errors.AdmissionError`, the serving twin of the
  paper's fixed per-host provisioning.
* ``bid`` / ``ask`` — Reso trading against the world's exchange pool
  at the current congestion price (ask sells balance into the pool,
  bid buys it back out, bounded by the account's provisioned
  allocation so the conservation invariant guard stays honest).
* ``price`` — the controller's live local price, the federation's
  cluster price and the order-book congestion factor.
* ``order`` — BenchEx-style order flow: the message is charged I/O
  Resos (``ceil(bytes/MTU) * rate``, through the account's real
  ``deduct`` path) and submitted as a fluid-fabric transfer; an
  exhausted account is throttled (reduced arbitration weight), not
  refused — the paper's cap lever, expressed as bandwidth.
* ``collect`` / ``drain`` — completed orders with their virtual
  latencies; ``drain`` runs the DES until every in-flight order lands
  (sim-mode ``flush``), ``collect`` only harvests what the clock has
  already passed (live-mode ``flush``).

Every response is a pure function of (seed, operation sequence), which
is what makes the sim-mode response-log golden byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.durable import read_sealed, write_sealed
from repro.errors import AdmissionError, CheckpointError, ConfigError
from repro.experiments.platform import Node, Testbed
from repro.resex import ResExController, policy_by_name
from repro.units import KiB

#: Schema tag on a served-world snapshot document.
WORLD_SCHEMA = "resex-world/1"

#: Order sizes are clamped into this window: one MTU at least (the
#: charging unit) and small enough that one order cannot monopolize
#: the shared link for macroscopic virtual time.
MIN_ORDER_BYTES = 1 * KiB
MAX_ORDER_BYTES = 16 * 1024 * KiB


@dataclass(frozen=True)
class ServiceConfig:
    """Shape of the served world (both backends)."""

    #: Admission capacity: pre-provisioned guest slots on the host.
    slots: int = 8
    #: Pricing policy the live controller runs (see ``repro policies``).
    policy: str = "freemarket"
    #: Arbitration weight of an order whose account could not pay in
    #: full — the service-side throttle lever.
    throttled_weight: float = 0.25
    #: Congestion-price sensitivity to in-flight order backlog.
    congestion_slope: float = 0.05

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ConfigError(f"slots must be >= 1, got {self.slots}")
        if not 0.0 < self.throttled_weight <= 1.0:
            raise ConfigError(
                f"throttled_weight must be in (0, 1], got {self.throttled_weight}"
            )
        if self.congestion_slope < 0:
            raise ConfigError(
                f"congestion_slope must be >= 0, got {self.congestion_slope}"
            )


def _round6(value: float) -> float:
    return round(float(value), 6)


class ResExWorld:
    """One served market: testbed + controller + slots + order fabric."""

    def __init__(self, config: ServiceConfig = ServiceConfig(), seed: int = 7):
        self.config = config
        self.seed = int(seed)
        self.bed = Testbed(seed=seed)
        self.node: Node = self.bed.add_node("service-host")
        self.env = self.bed.env
        params = self.node.hca.params
        self.mtu_bytes = params.mtu_bytes
        #: The shared wire all order flow crosses (paper: one switch).
        self.link = self.bed.fabric.add_link(
            "service-link", params.link_bytes_per_sec
        )
        self.domains = [
            self.node.create_guest(f"slot{i}") for i in range(config.slots)
        ]
        self.controller = ResExController(
            self.node, policy_by_name(config.policy)()
        )
        for dom in self.domains:
            self.controller.monitor(dom)
        self.controller.start()

        #: tenant name -> slot index; free slots kept sorted so
        #: admission order is deterministic.
        self.bindings: Dict[str, int] = {}
        self._free: List[int] = list(range(config.slots))
        #: The exchange pool Resos move through on ask/bid.
        self.pool_resos = 0.0
        #: In-flight orders: order id -> (vm, transfer, cost, throttled).
        self._pending: Dict[int, Tuple[str, Any, float, bool]] = {}
        self._order_seq = 0
        self.orders_submitted = 0
        self.orders_completed = 0
        self.resos_traded = 0.0

    # -- clock ---------------------------------------------------------------
    @property
    def now_ns(self) -> int:
        return self.env.now

    def advance_to(self, ts_ns: int) -> int:
        """Run the DES forward to ``ts_ns`` (no-op if already there).

        Everything mounted on the environment — the controller's
        management loop, IBMon sampling, in-flight order transfers —
        advances with it.
        """
        ts = int(ts_ns)
        if ts > self.env.now:
            self.env.run(until=ts)
        return self.env.now

    # -- admission -----------------------------------------------------------
    def _slot(self, vm: str) -> int:
        try:
            return self.bindings[vm]
        except KeyError:
            raise AdmissionError(f"VM {vm!r} is not admitted") from None

    def _account(self, slot: int):
        account = self.controller.vms[slot].account
        assert account is not None  # controller started in __init__
        return account

    def admit(self, vm: str) -> Dict[str, Any]:
        """Bind a tenant to the lowest free slot with a fresh account."""
        if not vm:
            raise AdmissionError("VM name must be non-empty")
        if vm in self.bindings:
            raise AdmissionError(f"VM {vm!r} is already admitted")
        if not self._free:
            raise AdmissionError(
                f"no capacity: all {self.config.slots} slots are admitted"
            )
        slot = self._free.pop(0)
        self.bindings[vm] = slot
        account = self._account(slot)
        account.balance = account.allocation  # fresh tenant, fresh budget
        return {
            "vm": vm,
            "slot": slot,
            "domid": self.domains[slot].domid,
            "allocation": _round6(account.allocation),
            "policy": self.controller.policy.name,
        }

    def release(self, vm: str) -> Dict[str, Any]:
        """Unbind a tenant; its slot returns to the free pool.

        In-flight orders keep draining (the bytes are already on the
        wire) and still surface in ``collect`` under the old name.
        """
        slot = self._slot(vm)
        del self.bindings[vm]
        self._free.append(slot)
        self._free.sort()
        return {"vm": vm, "slot": slot, "free_slots": len(self._free)}

    # -- pricing & trading ---------------------------------------------------
    def congestion(self) -> float:
        """Order-book congestion factor: grows with in-flight backlog."""
        return 1.0 + self.config.congestion_slope * len(self._pending)

    def price(self) -> Dict[str, Any]:
        local = self.controller.local_price()
        congestion = self.congestion()
        return {
            "local": _round6(local),
            "cluster": _round6(self.controller.cluster_price),
            "congestion": _round6(congestion),
            "effective": _round6(local * congestion),
            "in_flight": len(self._pending),
            "pool_resos": _round6(self.pool_resos),
        }

    def ask(self, vm: str, resos: float) -> Dict[str, Any]:
        """Sell Resos from the VM's balance into the exchange pool."""
        if resos <= 0:
            raise AdmissionError(f"ask amount must be positive, got {resos}")
        account = self._account(self._slot(vm))
        amount = min(float(resos), account.balance)
        account.deduct(amount)
        self.pool_resos += amount
        self.resos_traded += amount
        price = self.controller.local_price() * self.congestion()
        return {
            "vm": vm,
            "filled": _round6(amount),
            "price": _round6(price),
            "proceeds": _round6(amount * price),
            "balance": _round6(account.balance),
            "pool_resos": _round6(self.pool_resos),
        }

    def bid(self, vm: str, resos: float) -> Dict[str, Any]:
        """Buy Resos out of the exchange pool, up to the provisioned
        allocation (the conservation guard's envelope)."""
        if resos <= 0:
            raise AdmissionError(f"bid amount must be positive, got {resos}")
        account = self._account(self._slot(vm))
        headroom = max(account.allocation - account.balance, 0.0)
        amount = min(float(resos), self.pool_resos, headroom)
        self.pool_resos -= amount
        account.balance += amount
        self.resos_traded += amount
        price = self.controller.local_price() * self.congestion()
        return {
            "vm": vm,
            "filled": _round6(amount),
            "price": _round6(price),
            "cost": _round6(amount * price),
            "balance": _round6(account.balance),
            "pool_resos": _round6(self.pool_resos),
        }

    # -- order flow ----------------------------------------------------------
    def order(self, vm: str, nbytes: int) -> Dict[str, Any]:
        """Charge and launch one BenchEx-style message transfer."""
        slot = self._slot(vm)
        nbytes = int(nbytes)
        if nbytes <= 0:
            raise AdmissionError(f"order bytes must be positive, got {nbytes}")
        nbytes = max(MIN_ORDER_BYTES, min(nbytes, MAX_ORDER_BYTES))
        mvm = self.controller.vms[slot]
        account = self._account(slot)
        mtus = math.ceil(nbytes / self.mtu_bytes)
        cost = (
            mtus
            * self.controller.reso_params.io_resos_per_mtu
            * mvm.charge_rate
        )
        affordable = account.balance + 1e-9 >= cost
        account.deduct(cost)
        weight = 1.0 if affordable else self.config.throttled_weight
        self._order_seq += 1
        oid = self._order_seq
        transfer = self.bed.fabric.submit(
            [self.link], nbytes, flow_label=f"order/{vm}/{oid}", weight=weight
        )
        self._pending[oid] = (vm, transfer, cost, not affordable)
        self.orders_submitted += 1
        return {
            "order_id": oid,
            "vm": vm,
            "nbytes": nbytes,
            "cost_resos": _round6(cost),
            "throttled": not affordable,
            "balance": _round6(account.balance),
            "in_flight": len(self._pending),
        }

    def collect(self) -> List[Dict[str, Any]]:
        """Harvest orders the virtual clock has already completed."""
        done: List[Dict[str, Any]] = []
        for oid in sorted(self._pending):
            vm, transfer, cost, throttled = self._pending[oid]
            if transfer.completed_at is None:
                continue
            done.append(
                {
                    "order_id": oid,
                    "vm": vm,
                    "nbytes": transfer.nbytes,
                    "latency_us": _round6(
                        (transfer.completed_at - transfer.submitted_at) / 1_000
                    ),
                    "throttled": throttled,
                }
            )
            del self._pending[oid]
        self.orders_completed += len(done)
        return done

    def drain(self) -> List[Dict[str, Any]]:
        """Run the DES until every in-flight order completes."""
        for oid in sorted(self._pending):
            _vm, transfer, _cost, _throttled = self._pending[oid]
            if transfer.completed_at is None:
                self.env.run(until=transfer.done)
        return self.collect()

    # -- checkpoint ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe summary of the served market's durable state.

        Captures what a restarted server must honor — tenant bindings,
        account balances, the exchange pool, order counters and the
        virtual clock.  In-flight orders are *not* captured (their
        DES transfers cannot outlive the process); their count is
        recorded as ``in_flight_lost`` so the operator sees exactly
        what a restart dropped.
        """
        return {
            "schema": WORLD_SCHEMA,
            "seed": self.seed,
            "config": {
                "slots": self.config.slots,
                "policy": self.config.policy,
                "throttled_weight": self.config.throttled_weight,
                "congestion_slope": self.config.congestion_slope,
            },
            "now_ns": int(self.env.now),
            "bindings": {vm: slot for vm, slot in sorted(self.bindings.items())},
            "balances": {
                str(slot): _round6(self._account(slot).balance)
                for slot in range(self.config.slots)
            },
            "pool_resos": _round6(self.pool_resos),
            "order_seq": self._order_seq,
            "orders_submitted": self.orders_submitted,
            "orders_completed": self.orders_completed,
            "resos_traded": _round6(self.resos_traded),
            "in_flight_lost": len(self._pending),
        }

    @classmethod
    def restore(cls, snap: Dict[str, Any]) -> "ResExWorld":
        """Rebuild a served world from :meth:`snapshot` output.

        The world is reconstructed from its (seed, config) — the same
        deterministic build path as ``__init__`` — then advanced to
        the snapshot's virtual time and patched with the durable
        market state.  Raises :class:`~repro.errors.CheckpointError`
        on a schema mismatch or a snapshot that does not fit its own
        declared config.
        """
        if not isinstance(snap, dict) or snap.get("schema") != WORLD_SCHEMA:
            got = snap.get("schema") if isinstance(snap, dict) else type(snap).__name__
            raise CheckpointError(
                f"world snapshot schema mismatch: expected {WORLD_SCHEMA!r}, "
                f"got {got!r}"
            )
        try:
            config = ServiceConfig(**snap["config"])
            world = cls(config, seed=int(snap["seed"]))
            world.advance_to(int(snap["now_ns"]))
            bindings = {
                str(vm): int(slot) for vm, slot in snap["bindings"].items()
            }
            if any(not 0 <= s < config.slots for s in bindings.values()):
                raise CheckpointError(
                    f"snapshot binds a slot outside 0..{config.slots - 1}"
                )
            world.bindings = bindings
            world._free = sorted(
                set(range(config.slots)) - set(bindings.values())
            )
            for slot, balance in snap["balances"].items():
                world._account(int(slot)).balance = float(balance)
            world.pool_resos = float(snap["pool_resos"])
            world._order_seq = int(snap["order_seq"])
            world.orders_submitted = int(snap["orders_submitted"])
            world.orders_completed = int(snap["orders_completed"])
            world.resos_traded = float(snap["resos_traded"])
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"world snapshot is malformed: {type(exc).__name__}: {exc}"
            ) from None
        return world

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "slots": self.config.slots,
            "admitted": len(self.bindings),
            "policy": self.controller.policy.name,
            "orders_submitted": self.orders_submitted,
            "orders_completed": self.orders_completed,
            "in_flight": len(self._pending),
            "pool_resos": _round6(self.pool_resos),
            "resos_traded": _round6(self.resos_traded),
            "now_ns": self.env.now,
            "events": self.env.events_processed,
            "intervals_run": self.controller.intervals_run,
            "epochs_run": self.controller.epochs_run,
        }

    def __repr__(self) -> str:
        return (
            f"<ResExWorld slots={self.config.slots} admitted="
            f"{len(self.bindings)} t={self.env.now}ns>"
        )


# -- snapshot files ----------------------------------------------------------

#: Schema tag on the on-disk wrapper around a world snapshot.
WORLD_FILE_SCHEMA = "resex-world-file/1"


def save_world_snapshot(path: str, snap: Dict[str, Any]) -> str:
    """Atomically persist a world snapshot as a sealed document
    (:func:`repro.durable.write_sealed`); returns its content digest."""
    return write_sealed(path, WORLD_FILE_SCHEMA, "snapshot", snap)


def load_world_snapshot(path: str) -> Dict[str, Any]:
    """Read and verify a snapshot file; returns the snapshot payload.

    Raises :class:`~repro.errors.CheckpointError` on a missing,
    unreadable, truncated, mis-schemed or digest-mismatched file — the
    caller decides whether that is fatal (a ``--restore`` always is).
    """
    snap = read_sealed(path, WORLD_FILE_SCHEMA, "snapshot", CheckpointError)
    if snap is None:
        raise CheckpointError(f"cannot read world snapshot {path}: no such file")
    return snap
