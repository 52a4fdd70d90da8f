"""Network fabric models: fluid max-min sharing and exact packet mode.

InfiniBand arbitrates a link between competing flows at packet (MTU)
granularity, round-robin across virtual lanes / QPs.  Over timescales
of many packets that converges to *max-min fair* bandwidth sharing, so
the default model is a fluid one: each in-flight transfer progresses at
its max-min fair rate over its path, and the simulator only generates
events when the set of active transfers changes.  This keeps the event
count per transfer O(1) instead of O(bytes / MTU) — essential when a
2 MB interferer is streaming (2048 packets per message).

:class:`PacketLink` is the exact per-MTU round-robin model for a single
link.  Tests cross-validate the fluid model against it: completion
times agree to within one MTU service time per competing flow.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FabricError
from repro.sim import invariants
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.invariants import check_fabric_rates
from repro.units import SEC, KiB

#: Residual byte count below which a fluid transfer counts as finished.
_COMPLETION_EPS = 1e-6

#: Active-set size above which the solver memo is bypassed.  The memo
#: key is an O(transfers) tuple; for the small recurring subproblems of
#: scenario traffic hits dominate and the key is cheap, but a huge
#: active set almost never recurs exactly, so memoizing it would pay
#: O(n) key construction and hashing per event for a ~0% hit rate.
_MEMO_MAX_TRANSFERS = 24

#: Adaptive memo probation: after this many memoized lookups the hit
#: rate is inspected once, and if it is below ``_MEMO_MIN_HIT_RATE``
#: the memo is disabled for the rest of the fabric's life.  High-churn
#: workloads whose small active sets never recur (every composition is
#: new) would otherwise pay key construction forever for ~0% hits.
_MEMO_PROBATION_LOOKUPS = 1024
_MEMO_MIN_HIT_RATE = 0.05

class NetLink:
    """One unidirectional link (or link direction) with fixed capacity."""

    __slots__ = (
        "name",
        "capacity_bps",
        "capacity_bytes_per_ns",
        "nominal_bps",
        "degraded_factor",
        "bytes_accepted",
        "rate_sum",
        "_util_integral",
    )

    def __init__(self, name: str, capacity_bytes_per_sec: float) -> None:
        if capacity_bytes_per_sec <= 0:
            raise FabricError(
                f"link {name!r}: capacity must be > 0, got {capacity_bytes_per_sec}"
            )
        self.name = name
        self.capacity_bps = float(capacity_bytes_per_sec)
        #: ``capacity_bps`` per ns, kept in step by the fabric's
        #: capacity setters (the solver and utilization hot path).
        self.capacity_bytes_per_ns = self.capacity_bps / SEC
        #: Healthy capacity; ``capacity_bps`` is this scaled by the
        #: current degradation factor (fault injection, see
        #: :mod:`repro.faults`).
        self.nominal_bps = float(capacity_bytes_per_sec)
        #: Fraction of nominal capacity currently available in [0, 1].
        #: 0 means the link is down (flap): transfers stall in place.
        self.degraded_factor = 1.0
        #: Total bytes of transfers routed through this link.
        self.bytes_accepted: int = 0
        #: Sum of the current rates of the active transfers crossing
        #: this link (meaningful while it has any), maintained by the
        #: fabric's reallocation.
        self.rate_sum = 0.0
        #: Integral of (allocated rate / capacity) d(t) in ns units.
        self._util_integral: float = 0.0

    def set_capacity(self, nominal_bps: float, degraded_factor: float) -> None:
        """Set the healthy capacity and the available fraction of it."""
        self.nominal_bps = float(nominal_bps)
        self.degraded_factor = float(degraded_factor)
        self.capacity_bps = self.nominal_bps * self.degraded_factor
        self.capacity_bytes_per_ns = self.capacity_bps / SEC

    def utilization(self, elapsed_ns: int) -> float:
        """Mean utilization over ``elapsed_ns`` of simulated time."""
        if elapsed_ns <= 0:
            return 0.0
        return self._util_integral / elapsed_ns

    def __repr__(self) -> str:
        return f"<NetLink {self.name} {self.capacity_bps / 1e9:.2f}GB/s>"


class Transfer:
    """One in-flight message moving across a path of links."""

    __slots__ = (
        "transfer_id",
        "path",
        "nbytes",
        "remaining",
        "rate",
        "done",
        "submitted_at",
        "completed_at",
        "flow_label",
        "weight",
        "shape",
    )

    def __init__(
        self,
        transfer_id: int,
        path: Tuple[NetLink, ...],
        nbytes: int,
        done: Event,
        submitted_at: int,
        flow_label: str,
        weight: float = 1.0,
    ) -> None:
        self.transfer_id = transfer_id
        self.path = path
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.rate = 0.0  # bytes per ns, set by reallocation
        self.done = done
        self.submitted_at = submitted_at
        self.completed_at: Optional[int] = None
        self.flow_label = flow_label
        #: Arbitration weight (IB VL priority analog): shares on a
        #: contended link are proportional to weight.
        self.weight = weight
        #: This transfer's part of a solver memo key: its path as link
        #: names, and its weight.
        self.shape = (tuple(link.name for link in path), weight)

    def __repr__(self) -> str:
        return (
            f"<Transfer #{self.transfer_id} {self.flow_label!r} "
            f"{self.remaining:.0f}/{self.nbytes}B>"
        )


def maxmin_rates(
    transfers: Sequence[Transfer],
    capacity_of: Callable[[NetLink], float],
    ts_ns: int = -1,
) -> Dict[Transfer, float]:
    """Progressive-filling *weighted* max-min fair allocation.

    Every transfer gets the largest rate proportional to its weight such
    that no link is oversubscribed and no transfer can gain rate without
    another losing an already-smaller normalized (rate/weight) share.
    With unit weights this is classic max-min.  Fully deterministic:
    all iteration follows submission order (no set-ordered float sums),
    and ties are broken by link name.
    """
    active = list(transfers)
    if not active:
        return {}
    for t in active:
        if t.weight <= 0:
            raise FabricError(f"transfer weight must be > 0, got {t.weight}")
    rates = _maxmin_rates_python(active, capacity_of)
    # Runtime invariant guards (fabric.rate_nonnegative /
    # fabric.link_capacity): off-mode costs one attribute load and
    # branch; an enabled monitor re-walks the solution once.
    inv = invariants.current()
    if inv.enabled:
        check_fabric_rates(inv, rates, capacity_of, ts_ns=ts_ns)
    return rates


def _maxmin_rates_python(
    active: List[Transfer],
    capacity_of: Callable[[NetLink], float],
) -> Dict[Transfer, float]:
    """The reference progressive-filling loop (pure Python)."""
    rates: Dict[Transfer, float] = {}
    # Per-link membership lists in submission order: turns the inner
    # weight-sum from an O(links x transfers) path-membership scan into
    # a walk of exactly the transfers on that link.
    link_order: List[NetLink] = []
    members: Dict[NetLink, List[Transfer]] = {}
    cap_left: Dict[NetLink, float] = {}
    for t in active:
        for link in t.path:
            lst = members.get(link)
            if lst is None:
                members[link] = lst = []
                cap_left[link] = capacity_of(link)
                link_order.append(link)
            lst.append(t)

    unfrozen = dict.fromkeys(active)  # insertion-ordered set
    while unfrozen:
        # Normalized share (rate per weight unit) each link could still
        # give its unfrozen transfers.  While summing, each member list
        # is compacted in place to its unfrozen entries — relative
        # order is preserved, so the left-to-right float sum is
        # identical to a scan that merely skipped frozen entries, and
        # later iterations touch only still-live members.
        best_link: Optional[NetLink] = None
        best_share = math.inf
        for link in link_order:
            lst = members[link]
            weight_sum = 0.0
            k = 0
            for t in lst:
                if t in unfrozen:
                    lst[k] = t
                    k += 1
                    weight_sum += t.weight
            if k != len(lst):
                del lst[k:]
            if weight_sum == 0:
                continue
            share = max(cap_left[link], 0.0) / weight_sum
            if share < best_share or (
                share == best_share
                and best_link is not None
                and link.name < best_link.name
            ):
                best_share = share
                best_link = link
        if best_link is None:
            # No links constrain the remaining transfers (cannot happen
            # for non-empty paths, but guard against it).
            raise FabricError("max-min: transfers with no constraining link")
        for t in members[best_link]:
            # Compacted above, so members are unfrozen — the guard only
            # protects against a transfer listed twice (degenerate path
            # visiting one link twice).
            if t in unfrozen:
                rate = best_share * t.weight
                rates[t] = rate
                del unfrozen[t]
                for link in t.path:
                    cap_left[link] = cap_left[link] - rate
    return rates


class FluidFabric:
    """Event-efficient fluid-flow network with max-min fair sharing."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.links: Dict[str, NetLink] = {}
        self._active: List[Transfer] = []
        self._next_id = 0
        self._last_advance = env.now
        self._timer_generation = 0
        self._timer_callback = self._on_timer
        #: Completed-transfer log (id, nbytes, duration_ns, flow_label).
        self.completions: List[Tuple[int, int, int, str]] = []
        #: Memoized solver results: normalized subproblem -> rate tuple.
        #: Scenario traffic revisits a handful of active-set shapes
        #: thousands of times, so hits dominate after warmup.
        self._solve_cache: Dict[tuple, Tuple[float, ...]] = {}
        self._memo_lookups = 0
        self._memo_hits = 0
        self._memo_enabled = True
        #: Per-link active-transfer membership, maintained incrementally
        #: on submit/complete (dicts double as insertion-ordered sets,
        #: so each link's members stay in submission order).  Links with
        #: no active transfers are absent, so ``len(self._members)`` is
        #: the number of involved links.
        self._members: Dict[NetLink, Dict[Transfer, None]] = {}
        #: Solver-locality accounting: how often ``_reallocate`` solved
        #: a restricted connected component vs the whole active set,
        #: and how many transfers each kind of solve covered.  At
        #: cluster scale this is the evidence that perturbing one rack
        #: does not re-solve the cluster (``component_transfers`` per
        #: solve stays near the rack's flow count, not the fabric's).
        self.solver_stats: Dict[str, int] = {
            "global_solves": 0,
            "global_transfers": 0,
            "component_solves": 0,
            "component_transfers": 0,
            "max_component": 0,
        }

    # -- topology -----------------------------------------------------------
    def add_link(self, name: str, capacity_bytes_per_sec: float) -> NetLink:
        if name in self.links:
            raise FabricError(f"duplicate link name {name!r}")
        link = NetLink(name, capacity_bytes_per_sec)
        self.links[name] = link
        return link

    def link(self, name: str) -> NetLink:
        try:
            return self.links[name]
        except KeyError:
            raise FabricError(f"no such link: {name!r}") from None

    # -- transfers ------------------------------------------------------------
    @property
    def active_transfers(self) -> Tuple[Transfer, ...]:
        return tuple(self._active)

    def set_link_capacity(self, name: str, capacity_bytes_per_sec: float) -> None:
        """Change a link's *nominal* capacity at runtime (HW rate-limit
        updates).

        Active transfers are advanced at their old rates first, then
        rates are recomputed under the new capacity (scaled by any
        degradation currently injected on the link).
        """
        if capacity_bytes_per_sec <= 0:
            raise FabricError("capacity must be > 0")
        link = self.link(name)
        self._advance()
        link.set_capacity(capacity_bytes_per_sec, link.degraded_factor)
        self._reallocate((link,))
        self._schedule_next()

    def set_link_degradation(self, name: str, available_factor: float) -> None:
        """Degrade (or restore) a link to a fraction of nominal capacity.

        ``available_factor`` is the fraction of healthy capacity still
        usable: 1.0 restores the link, 0.5 halves it, 0.0 takes it down
        entirely.  In-flight transfers are re-rated immediately: they
        advance at their old rates up to *now*, then share whatever
        capacity remains (stalling in place when the link is down, and
        resuming when it comes back).  This is the :mod:`repro.faults`
        hook for link-degradation and link-flap fault injection.
        """
        if not 0.0 <= available_factor <= 1.0:
            raise FabricError(
                f"degradation factor must be in [0, 1], got {available_factor}"
            )
        link = self.link(name)
        self._advance()
        link.set_capacity(link.nominal_bps, available_factor)
        self._reallocate((link,))
        self._schedule_next()

    def submit(
        self,
        path: Sequence[NetLink],
        nbytes: int,
        flow_label: str = "",
        weight: float = 1.0,
    ) -> Transfer:
        """Start a transfer over ``path``; ``transfer.done`` fires on finish.

        Zero-byte transfers complete immediately (control messages).
        ``weight`` sets the arbitration priority (default: equal share).
        """
        if not path:
            raise FabricError("transfer path must contain at least one link")
        for link in path:
            if self.links.get(link.name) is not link:
                raise FabricError(f"link {link.name!r} not part of this fabric")
        if nbytes < 0:
            raise FabricError(f"negative transfer size: {nbytes}")

        done = Event(self.env)
        self._next_id += 1
        transfer = Transfer(
            self._next_id, tuple(path), nbytes, done, self.env.now,
            flow_label, weight=weight,
        )
        for link in transfer.path:
            link.bytes_accepted += nbytes

        if nbytes == 0:
            transfer.completed_at = self.env.now
            self.completions.append((transfer.transfer_id, 0, 0, flow_label))
            self._emit_flow(transfer)
            done.succeed(transfer)
            return transfer

        self._advance()
        self._active.append(transfer)
        members = self._members
        for link in transfer.path:
            lst = members.get(link)
            if lst is None:
                members[link] = lst = {}
            lst[transfer] = None
        self._reallocate(transfer.path)
        self._schedule_next()
        return transfer

    # -- internals ------------------------------------------------------------
    def _emit_flow(self, transfer: Transfer) -> None:
        """Per-packet-flow telemetry: one span per completed transfer."""
        tel = self.env.telemetry
        if tel.enabled:
            tel.span(
                "fabric",
                transfer.flow_label or f"transfer{transfer.transfer_id}",
                transfer.submitted_at,
                transfer.completed_at,
                lane="+".join(link.name for link in transfer.path),
                bytes=transfer.nbytes,
                weight=transfer.weight,
            )

    def _advance(self) -> None:
        """Progress all active transfers up to the current time."""
        now = self.env.now
        dt = now - self._last_advance
        if dt > 0 and self._active:
            for t in self._active:
                remaining = t.remaining - t.rate * dt
                if remaining < 0.0:
                    remaining = 0.0
                t.remaining = remaining
            # Per-link utilization bookkeeping, over the links that
            # carry an active transfer.
            for link in self._members:
                # A fully-degraded (down) link carries no traffic and
                # counts as unutilized for the duration of the outage.
                cap = link.capacity_bytes_per_ns
                if cap > 0:
                    link._util_integral += (link.rate_sum / cap) * dt
        self._last_advance = now

    def _solve(self, transfers: List[Transfer]) -> Tuple[float, ...]:
        """Max-min rates for ``transfers``, memoized.

        The key is the exact normalized subproblem — ordered
        ``(path names, weight)`` per transfer plus the current capacity
        of every involved link — so a cache hit returns the very floats
        a fresh solve would produce and byte-identity is preserved.
        """
        if not transfers:
            return ()
        if len(transfers) > _MEMO_MAX_TRANSFERS or not self._memo_enabled:
            # Too big (or proven not to recur): solve directly.
            rates = maxmin_rates(
                transfers,
                lambda link: link.capacity_bytes_per_ns,
                ts_ns=self.env.now,
            )
            return tuple(rates[t] for t in transfers)
        lookups = self._memo_lookups + 1
        self._memo_lookups = lookups
        if lookups == _MEMO_PROBATION_LOOKUPS and (
            self._memo_hits < lookups * _MEMO_MIN_HIT_RATE
        ):
            # High churn: compositions never recur, so key construction
            # is pure overhead.  Same floats either way (the memo only
            # ever returns what a fresh solve would), so disabling it
            # mid-run cannot change results.
            self._memo_enabled = False
            self._solve_cache.clear()
            rates = maxmin_rates(
                transfers,
                lambda link: link.capacity_bytes_per_ns,
                ts_ns=self.env.now,
            )
            return tuple(rates[t] for t in transfers)
        # The transfers' shapes fix the involved links and their
        # first-appearance order, so the link part needs capacities only.
        seen: Dict[NetLink, None] = {}
        for t in transfers:
            for link in t.path:
                seen[link] = None
        key = (
            tuple([t.shape for t in transfers]),
            tuple([link.capacity_bps for link in seen]),
        )
        cached = self._solve_cache.get(key)
        if cached is not None:
            self._memo_hits += 1
        else:
            rates = maxmin_rates(
                transfers,
                lambda link: link.capacity_bytes_per_ns,
                ts_ns=self.env.now,
            )
            cached = tuple(rates[t] for t in transfers)
            if len(self._solve_cache) >= 4096:
                self._solve_cache.clear()  # unbounded topologies: stay small
            self._solve_cache[key] = cached
        return cached

    def _reallocate(
        self, touched_links: Optional[Sequence[NetLink]] = None
    ) -> None:
        """Recompute fair rates after a change.

        With ``touched_links`` given (a flow joined/left or a capacity
        changed there), only the connected component of transfers
        reachable from those links through shared links is re-solved.
        Progressive filling decomposes exactly over components — their
        capacity and weight arithmetic never interacts — so the
        restricted solve yields bit-identical rates to a global one,
        and untouched components keep their current rates.
        """
        active = self._active
        if not active:
            return
        if touched_links is not None and len(active) > 1:
            # BFS over the maintained per-link membership (no per-event
            # adjacency rebuild).  The walk bails out to the global
            # solve as soon as the growing linkset provably covers
            # every involved link — the common case for hot shared
            # topologies, usually after inspecting only a handful of
            # members rather than the whole active set.
            members = self._members
            involved = len(members)
            linkset = {
                link for link in touched_links if link in members
            }
            if len(linkset) < involved:
                frontier = list(linkset)
                affected: Dict[Transfer, None] = {}
                while frontier and len(linkset) < involved:
                    link = frontier.pop()
                    for t in members[link]:
                        if t not in affected:
                            affected[t] = None
                            for l2 in t.path:
                                if l2 not in linkset:
                                    linkset.add(l2)
                                    frontier.append(l2)
                        if len(linkset) == involved:
                            break
                if len(linkset) < involved:
                    # Genuinely smaller component: transfer ids ascend
                    # in submission order, matching the global
                    # iteration order, so the restricted solve is
                    # bit-identical.
                    aff = sorted(affected, key=lambda t: t.transfer_id)
                    stats = self.solver_stats
                    stats["component_solves"] += 1
                    stats["component_transfers"] += len(aff)
                    if len(aff) > stats["max_component"]:
                        stats["max_component"] = len(aff)
                    self._set_rates(aff, self._solve(aff))
                    return
        stats = self.solver_stats
        stats["global_solves"] += 1
        stats["global_transfers"] += len(active)
        self._set_rates(active, self._solve(active))

    @staticmethod
    def _set_rates(
        transfers: Sequence[Transfer], rates: Sequence[float]
    ) -> None:
        """Install solved rates and refresh the rate sums of every link
        the transfers cross.

        ``transfers`` is a whole component (or the active set) in
        submission order, so each link's sum covers all its transfers,
        adds them left to right in that order, and counts a path that
        visits the link twice twice — the same floats a fresh per-link
        tally over the active set would give.
        """
        for t, rate in zip(transfers, rates):
            t.rate = rate
            for link in t.path:
                link.rate_sum = 0.0
        for t in transfers:
            rate = t.rate
            for link in t.path:
                link.rate_sum += rate

    def _schedule_next(self) -> None:
        self._timer_generation += 1
        if not self._active:
            return
        generation = self._timer_generation
        dt_min = math.inf
        for t in self._active:
            # Rate 0 happens only when a link on the path is fully
            # degraded (down): the transfer is stalled and finishes no
            # sooner than the next capacity change, which reallocates
            # and reschedules.
            if t.rate <= 0:
                continue
            dt_min = min(dt_min, t.remaining / t.rate)
        if not math.isfinite(dt_min):
            # Every active transfer is stalled on a downed link; there
            # is nothing to time until capacity is restored.
            return
        delay = max(int(math.ceil(dt_min)), 1)
        # The timer's value is the allocation generation it was armed
        # for, so one bound method serves every timer.
        timer = self.env.timeout(delay, generation)
        timer.callbacks.append(self._timer_callback)

    def _on_timer(self, timer: Event) -> None:
        if timer._value != self._timer_generation:
            return  # superseded by a newer allocation
        self._advance()
        finished = [t for t in self._active if t.remaining <= _COMPLETION_EPS]
        if finished:
            touched: List[NetLink] = []
            members = self._members
            for t in finished:
                self._active.remove(t)
                for link in t.path:
                    lst = members.get(link)
                    if lst is not None:
                        lst.pop(t, None)
                        if not lst:
                            del members[link]
                t.completed_at = self.env.now
                self.completions.append(
                    (
                        t.transfer_id,
                        t.nbytes,
                        t.completed_at - t.submitted_at,
                        t.flow_label,
                    )
                )
                touched.extend(t.path)
                self._emit_flow(t)
            self._reallocate(touched)
            for t in finished:
                t.done.succeed(t)
        self._schedule_next()


class PacketLink:
    """Exact per-MTU round-robin service of a single link.

    Used to validate the fluid model; event cost is O(packets).
    """

    def __init__(
        self,
        env: Environment,
        capacity_bytes_per_sec: float,
        mtu_bytes: int = 1 * KiB,
    ) -> None:
        if capacity_bytes_per_sec <= 0:
            raise FabricError("capacity must be > 0")
        if mtu_bytes <= 0:
            raise FabricError("MTU must be > 0")
        self.env = env
        self.capacity_bps = float(capacity_bytes_per_sec)
        self.mtu = mtu_bytes
        self._queue: List[_PacketTransfer] = []
        self._busy = False
        self.packets_sent = 0

    def submit(self, nbytes: int, flow_label: str = "") -> Event:
        """Start a transfer; the returned event fires when it finishes."""
        if nbytes < 0:
            raise FabricError(f"negative transfer size: {nbytes}")
        done = Event(self.env)
        if nbytes == 0:
            done.succeed(None)
            return done
        npackets = -(-nbytes // self.mtu)
        self._queue.append(_PacketTransfer(nbytes, npackets, done, flow_label))
        if not self._busy:
            self._busy = True
            self.env.process(self._serve(), name="packet-link")
        return done

    def _packet_time(self, nbytes: int) -> int:
        t = nbytes * SEC / self.capacity_bps
        return max(int(math.ceil(t)), 1)

    def _serve(self):
        # Round-robin: send one packet from the head transfer of each flow
        # in rotation.  A "flow" here is each submitted transfer.
        while self._queue:
            t = self._queue.pop(0)
            nbytes = min(self.mtu, t.bytes_left)
            yield self.env.timeout(self._packet_time(nbytes))
            self.packets_sent += 1
            t.bytes_left -= nbytes
            t.packets_left -= 1
            if t.packets_left > 0:
                self._queue.append(t)  # rotate to the back: round-robin
            else:
                t.done.succeed(None)
        self._busy = False


class _PacketTransfer:
    __slots__ = ("nbytes", "bytes_left", "packets_left", "done", "flow_label")

    def __init__(
        self, nbytes: int, npackets: int, done: Event, flow_label: str
    ) -> None:
        self.nbytes = nbytes
        self.bytes_left = nbytes
        self.packets_left = npackets
        self.done = done
        self.flow_label = flow_label
