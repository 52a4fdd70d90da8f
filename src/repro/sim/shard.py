"""Sharded single-run simulation with conservative time synchronization.

The sweep engine (:mod:`repro.parallel`) parallelizes *across*
independent simulations; this module parallelizes *inside* one.  The
simulated world is partitioned into **domains** (racks of a cluster
topology — see :class:`repro.hw.topology.DomainPlan`), and the one rule
that makes partitioning sound is enforced at the model layer:

    every event touches the state of exactly one domain; all
    cross-domain influence travels as a :class:`Message` through a
    :class:`Mailbox`, and every message carries at least
    ``lookahead_ns`` of latency.

The lookahead is physical: it is the propagation latency of the
inter-rack links, so a message submitted now cannot affect another
domain sooner than ``now + lookahead``.  That bound is exactly what a
conservative parallel DES needs — shards may advance their local event
heaps through the half-open window ``[B_k, B_k + lookahead)`` without
hearing from each other, because nothing sent during the window can be
due before the next barrier ``B_k+1 = B_k + lookahead``.

**Barrier elision.**  A barrier per window is only necessary when every
window might send.  At each barrier every shard reports a *send
horizon* — a lower bound on the earliest instant it could next submit a
cross-domain message: the model's own :attr:`Mailbox.horizon_fn` when
one is registered (the only bound that also covers sends triggered by
deliveries ingested at the barrier), else its kernel's next-event
time.  With ``H`` the minimum over shards (folded, for shards whose
bound cannot cover deliveries, with the earliest delivery handed over
at this barrier — a delivery may itself trigger a send at its
instant), all shards may advance
``(H − B) // lookahead + 1`` windows in one stride with no intermediate
exchange: a message sent at ``t >= H`` is due at ``t + lookahead >=
B_m`` for every window boundary ``B_m <= H + lookahead``, so it is
routable at the stride-end barrier like any other.  The stride is a
pure function of the reported tuple, so ``inline`` and ``fork``
coalesce identically and :attr:`ShardStats.barriers` can be far below
:attr:`ShardStats.windows`.

Determinism contract (the reason sharded == serial bit-for-bit):

* **Delivery order is a pure function of the messages.**  Messages due
  at the same instant are delivered in ``(origin_domain, origin_seq)``
  order — submission order per origin, origin id across origins —
  never in worker-completion or pipe-arrival order (the same
  submission-order-merge trick as :mod:`repro.parallel`).
* **Deliveries outrank same-timestamp domain events.**  Mailbox
  wake-ups are scheduled at the reserved
  :data:`~repro.sim.events.DELIVERY` priority, so whether the wake-up
  was armed during event execution (serial: one environment hosts
  every domain) or at a barrier (sharded: the message crossed a pipe)
  is unobservable — heap sequence numbers never decide an ordering
  that spans modes.
* **Domain state is process-agnostic.**  A domain's trajectory depends
  only on its own event order and its incoming message sequence, both
  of which are identical however domains are grouped into shards — so
  ``shards=1``, ``shards=N`` in-process, and ``shards=N`` across
  forked workers all produce the same bytes.
* **Coalescing is unobservable.**  A stride merges consecutive
  ``run_window`` calls into one; the events executed, and their order,
  are exactly those of the per-window schedule, so ``coalesce=False``
  (the escape hatch) produces the same bytes barrier by barrier.

**One loop, two transports.**  A single parent-side barrier loop owns
the protocol: the horizon fold, the stride, :class:`ShardStats`, the
replay journal, the checkpoint cadence, host fault hooks and the final
merge.  It reaches shards only through a transport that returns a
shard's outbox frame for a barrier, delivers its inbox frame, and
respawns it at t=0.  ``inline`` keeps every shard's world in the
calling process (the reference semantics, and the backend the property
tests permute); ``fork`` runs one OS process per shard and relays the
same struct-packed frames (:mod:`repro.sim.frames`) over pipes — the
multi-core path.  Both run the same shard-side steps, so the loop sees
the same bytes on either.

**Crash tolerance.**  Because delivery order and stride decisions are
pure functions of the frames exchanged, a shard's whole trajectory is
replayable from the ordered parent->shard frame stream — which is
exactly what :mod:`repro.sim.checkpoint` journals.  One replay routine
re-executes that journal into a freshly built shard, digest-checks each
regenerated outbox frame against the recorded one, and must end on the
loop's own position.  It resumes an interrupted run from the newest
:class:`~repro.sim.checkpoint.CheckpointConfig` file (``restore=True``,
either backend), and with a
:class:`~repro.sim.checkpoint.RecoveryPolicy` it heals a fork worker
that died mid-run: the shard is respawned (seeded backoff, bounded
budget) and replayed, so the recovered run is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import pickle
import signal
import struct
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.durable import die_with_parent
from repro.errors import CheckpointError, ConfigError, ShardSyncError
from repro.sim import invariants as _invariants
from repro.sim.checkpoint import (
    CheckpointConfig,
    RecoveryPolicy,
    ShardJournal,
    checkpoint_payload,
    journal_from_payload,
    load_latest,
    save_checkpoint,
    validate_restore,
)
from repro.sim.core import Environment, INFINITY
from repro.sim.events import DELIVERY, Event
from repro.sim.frames import decode_batch, encode_batch
from repro.sim.shard_types import Message

__all__ = [
    "Mailbox",
    "Message",
    "ShardMap",
    "ShardStats",
    "ShardWorld",
    "coalesce_stride",
    "run_sharded",
    "window_boundaries",
]


class Mailbox:
    """The cross-domain channel of one environment.

    One mailbox serves every domain hosted by its environment: all of
    them in a serial run, one shard's worth in a partitioned run.
    Local deliveries are armed immediately; messages to unregistered
    (remote) domains accumulate in the outbox until the shard runner
    drains them at a barrier.
    """

    def __init__(self, env: Environment, lookahead_ns: int) -> None:
        if lookahead_ns < 1:
            raise ConfigError(
                f"mailbox lookahead must be >= 1 ns, got {lookahead_ns}"
            )
        self.env = env
        self.lookahead_ns = int(lookahead_ns)
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        self._origin_seq: Dict[int, int] = {}
        #: Messages due at a given instant, in arrival order (sorted at
        #: delivery time — arrival order is not part of the contract).
        self._pending: Dict[int, List[Message]] = {}
        self._armed: set = set()
        self._outbox: List[Message] = []
        self.sent = 0
        self.delivered = 0
        self.cross_shard_sent = 0
        #: Optional model-side send horizon: a callable returning a
        #: lower bound on the earliest *future* instant this world
        #: could call :meth:`send` — from **any** cause, including a
        #: delivery ingested at a later barrier (a model that funnels
        #: every send through a scheduled egress stage satisfies this
        #: for free).  ``None`` falls back to the kernel's next-event
        #: time, which cannot speak for future deliveries — the barrier
        #: loop then folds in the ``deliver_at`` of whatever it routes
        #: here.  A model that knows its egress schedule (e.g.
        #: epoch-batched relays) can promise far larger horizons and
        #: unlock barrier elision.
        self.horizon_fn: Optional[Callable[[], int]] = None

    # -- wiring -------------------------------------------------------------
    def register(self, domain: int, handler: Callable[[Message], None]) -> None:
        """Declare ``domain`` local, dispatching its deliveries to
        ``handler``."""
        if domain in self._handlers:
            raise ConfigError(f"domain {domain} already has a mailbox handler")
        self._handlers[int(domain)] = handler

    @property
    def local_domains(self) -> Tuple[int, ...]:
        return tuple(sorted(self._handlers))

    # -- sending ------------------------------------------------------------
    def send(
        self,
        origin: int,
        dest: int,
        latency_ns: int,
        kind: str,
        payload: Tuple[Any, ...] = (),
    ) -> Message:
        """Submit a cross-domain message ``latency_ns`` in the future.

        The latency must honor the conservative lookahead — a message
        faster than the inter-domain propagation latency could arrive
        inside a window another shard has already executed.
        """
        if dest == origin:
            raise ShardSyncError(
                f"domain {origin} may not mail itself; intra-domain "
                "influence is ordinary event scheduling"
            )
        if latency_ns < self.lookahead_ns:
            raise ShardSyncError(
                f"cross-domain latency {latency_ns} ns is below the "
                f"conservative lookahead {self.lookahead_ns} ns"
            )
        seq = self._origin_seq.get(origin, 0)
        self._origin_seq[origin] = seq + 1
        msg = Message(
            origin=int(origin),
            seq=seq,
            dest=int(dest),
            deliver_at=self.env.now + int(latency_ns),
            kind=kind,
            payload=tuple(payload),
        )
        self.sent += 1
        if msg.dest in self._handlers:
            self._enqueue(msg)
        else:
            self.cross_shard_sent += 1
            self._outbox.append(msg)
        return msg

    # -- barrier plumbing ---------------------------------------------------
    def drain_outbox(self) -> List[Message]:
        """Take every message bound for a remote shard (barrier step)."""
        out, self._outbox = self._outbox, []
        return out

    def ingest(self, messages: Sequence[Message]) -> None:
        """Accept remote messages handed over at a barrier."""
        for msg in messages:
            if msg.dest not in self._handlers:
                raise ShardSyncError(
                    f"message for domain {msg.dest} routed to a mailbox "
                    f"hosting only {self.local_domains}"
                )
            self._enqueue(msg)

    def send_horizon(self) -> Tuple[int, bool]:
        """``(bound, covers_deliveries)`` for this shard's next send.

        Sends happen inside events, so the kernel's next-event time
        bounds every send from *already-scheduled* work — but it cannot
        speak for sends triggered by deliveries ingested at this very
        barrier (ingest happens after this report), so it travels with
        ``covers_deliveries=False`` and the barrier loop caps the
        global horizon at the earliest delivery it routes here.  A
        model-registered :attr:`horizon_fn` promises a bound on the
        next send from **any** cause, deliveries included, and is
        reported alone with ``covers_deliveries=True``.  The two must
        not be max-folded: on a heap-idle shard ``peek`` can exceed the
        model's bound, and taking the max while keeping the covers flag
        would let a delivery-triggered send depart before the reported
        horizon — exactly the overshoot the flag exists to prevent.
        """
        fn = self.horizon_fn
        if fn is None:
            return self.env.peek(), False
        return fn(), True

    # -- delivery -----------------------------------------------------------
    def _enqueue(self, msg: Message) -> None:
        if msg.deliver_at < self.env.now:
            raise ShardSyncError(
                f"message {msg.kind!r} due at t={msg.deliver_at} arrived "
                f"behind the clock (now={self.env.now}); the conservative "
                "horizon was violated"
            )
        bucket = self._pending.get(msg.deliver_at)
        if bucket is None:
            self._pending[msg.deliver_at] = [msg]
        else:
            bucket.append(msg)
        when = msg.deliver_at
        if when not in self._armed:
            self._armed.add(when)
            wakeup = Event(self.env)
            wakeup._ok = True
            wakeup._value = when
            wakeup.callbacks = [self._deliver]
            self.env.schedule(
                wakeup, delay=when - self.env.now, priority=DELIVERY
            )

    def _deliver(self, wakeup: Event) -> None:
        when = wakeup._value
        self._armed.discard(when)
        batch = self._pending.pop(when, [])
        # (origin, seq) — never arrival order — decides same-instant
        # delivery; per destination domain this restriction is the same
        # sequence under every partitioning.
        batch.sort(key=lambda m: (m.origin, m.seq))
        for msg in batch:
            self.delivered += 1
            self._handlers[msg.dest](msg)

    def __repr__(self) -> str:
        return (
            f"<Mailbox domains={self.local_domains} sent={self.sent} "
            f"delivered={self.delivered}>"
        )


@dataclass(frozen=True)
class ShardMap:
    """Contiguous assignment of ``n_domains`` domains to ``shards``.

    Contiguity preserves locality for topology-derived domains (racks
    that share a spec prefix land together); determinism needs only
    that the map is a pure function of its inputs.

    ``weights`` (one non-negative cost per domain, e.g. its predicted
    event count) makes the split cost-aware: the map is the contiguous
    partition whose heaviest shard is as light as possible.  Ties break
    so that earlier shards are larger — shard by shard from the left,
    each takes the longest run of domains that keeps it within the
    optimal bottleneck of what is left.  Without weights every domain
    weighs the same, and that rule yields the count split (sizes
    differing by at most one, the larger ones first).
    """

    n_domains: int
    shards: int
    weights: Optional[Tuple[float, ...]] = None
    #: First domain of each shard, plus ``n_domains`` as a sentinel.
    _starts: Tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if self.n_domains < 1:
            raise ConfigError(f"need >= 1 domain, got {self.n_domains}")
        if not 1 <= self.shards <= self.n_domains:
            raise ConfigError(
                f"shards must be in [1, {self.n_domains}] "
                f"(one per domain at most), got {self.shards}"
            )
        if self.weights is None:
            weights = (1.0,) * self.n_domains
        else:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != self.n_domains:
                raise ConfigError(
                    f"need one weight per domain ({self.n_domains}), "
                    f"got {len(weights)}"
                )
            if not all(0.0 <= w < math.inf for w in weights):
                raise ConfigError(
                    f"domain weights must be finite and >= 0, got {weights}"
                )
            object.__setattr__(self, "weights", weights)
        starts = _linear_partition(weights, self.shards)
        object.__setattr__(self, "_starts", tuple(starts))

    def domains_of(self, shard: int) -> Tuple[int, ...]:
        if not 0 <= shard < self.shards:
            raise ConfigError(f"no such shard {shard} (have {self.shards})")
        return tuple(range(self._starts[shard], self._starts[shard + 1]))

    def shard_of(self, domain: int) -> int:
        if not 0 <= domain < self.n_domains:
            raise ConfigError(
                f"no such domain {domain} (have {self.n_domains})"
            )
        return bisect.bisect_right(self._starts, domain) - 1

    def blocks(self) -> Tuple[Tuple[int, ...], ...]:
        """Every shard's domains, in shard order."""
        return tuple(self.domains_of(s) for s in range(self.shards))

    def domain_to_shard(self) -> List[int]:
        """Dense ``domain -> shard`` lookup table (the barrier loop's
        routing hot path — no per-message dict hashing)."""
        return [self.shard_of(d) for d in range(self.n_domains)]


def _linear_partition(weights: Sequence[float], shards: int) -> List[int]:
    """Shard start indices (plus the end sentinel) of the contiguous
    split of ``weights`` into ``shards`` non-empty runs that minimizes
    the heaviest run, with ties broken toward larger earlier runs.

    ``best[k][i]`` is the optimal bottleneck of domains ``i..n-1`` over
    ``k`` shards.  Run loads grow with the run's end while the rest's
    bottleneck shrinks, so each DP cell bisects for the crossing instead
    of scanning every split.  Loads are prefix-sum differences,
    computed by the same expression everywhere, so every comparison
    sees the same floats.
    """
    n = len(weights)
    prefix = [0.0]
    for w in weights:
        prefix.append(prefix[-1] + w)

    def load(i: int, j: int) -> float:  # domains i..j-1
        return prefix[j] - prefix[i]

    best = [[math.inf] * (n + 1) for _ in range(shards + 1)]
    for i in range(n):
        best[1][i] = load(i, n)
    for k in range(2, shards + 1):
        nxt, cur = best[k - 1], best[k]
        for i in range(n - k + 1):
            # First run is i..j-1 with j in [i+1, n-k+1]; find the
            # smallest j whose run load reaches the rest's bottleneck.
            lo, hi = i + 1, n - k + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if load(i, mid) >= nxt[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            cost = max(load(i, lo), nxt[lo])
            if lo > i + 1:
                cost = min(cost, max(load(i, lo - 1), nxt[lo - 1]))
            cur[i] = cost
    starts = [0]
    i = 0
    for k in range(shards, 1, -1):
        bound = best[k][i]
        j = n - k + 1  # leave one domain for each later shard
        while load(i, j) > bound or best[k - 1][j] > bound:
            j -= 1
        starts.append(j)
        i = j
    starts.append(n)
    return starts


@dataclass
class ShardStats:
    """Execution statistics of one sharded run.

    Deliberately *not* part of any deterministic digest: event counts
    differ between serial and sharded runs (one delivery wake-up per
    instant per environment), and wall times are the host's business.
    ``windows`` counts logical lookahead windows; ``barriers`` counts
    actual exchanges — elision makes the latter (much) smaller.

    ``compute_s`` and ``wait_s`` are per-shard host wall seconds: time
    running the shard's events (its windows and closing phase) and
    time its worker sat blocked on the pipe waiting for the parent's
    next inbox frame (always 0 inline, where nothing waits).  A shard
    that waits long is lighter than the heaviest one.  Being host
    measurements, both are excluded from equality.
    """

    shards: int = 1
    backend: str = "serial"
    windows: int = 0
    barriers: int = 0
    messages_exchanged: int = 0
    max_stride: int = 1
    #: Workers respawned by in-run recovery (fork backend; 0 when the
    #: run was uninterrupted or recovery was off).
    respawns: int = 0
    events_per_shard: List[int] = field(default_factory=list)
    sent_per_shard: List[int] = field(default_factory=list)
    compute_s: List[float] = field(default_factory=list, compare=False)
    wait_s: List[float] = field(default_factory=list, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "backend": self.backend,
            "windows": self.windows,
            "barriers": self.barriers,
            "messages_exchanged": self.messages_exchanged,
            "max_stride": self.max_stride,
            "respawns": self.respawns,
            "events_per_shard": list(self.events_per_shard),
            "sent_per_shard": list(self.sent_per_shard),
            "compute_s": list(self.compute_s),
            "wait_s": list(self.wait_s),
        }


def window_boundaries(until_ns: int, lookahead_ns: int) -> List[int]:
    """Barrier instants for a run to ``until_ns``: ``k * lookahead``
    capped at ``until_ns``, final barrier exactly at ``until_ns``.

    Closed form: every full window boundary, plus the horizon itself
    when it falls inside a window.  A round horizon (``until_ns`` an
    exact multiple of ``lookahead_ns``) contributes no extra terminal
    boundary — the last full window already ends there, and a
    zero-length trailing window would overcount ``windows`` by one.
    """
    if until_ns < 0:
        raise ConfigError(f"until_ns must be >= 0, got {until_ns}")
    if lookahead_ns < 1:
        raise ConfigError(f"lookahead must be >= 1 ns, got {lookahead_ns}")
    n_full, rem = divmod(until_ns, lookahead_ns)
    bounds = [k * lookahead_ns for k in range(1, n_full + 1)]
    if rem:
        bounds.append(until_ns)
    return bounds


def coalesce_stride(
    barrier_ns: int,
    horizon_ns: int,
    lookahead_ns: int,
    windows_left: int,
) -> int:
    """Windows all shards may advance past barrier ``barrier_ns``
    without an intermediate exchange.

    ``horizon_ns`` is the folded send horizon: the minimum over shards
    of :meth:`Mailbox.send_horizon`, further min-folded with the
    earliest ``deliver_at`` handed over at this barrier (an ingested
    delivery may trigger a send at its own instant).  No shard sends
    before ``horizon_ns``, so a message submitted during the stride is
    due at ``>= horizon_ns + lookahead_ns >= B + stride * lookahead``
    — at or after the stride-end barrier, where it is exchanged like
    any other.  A pure function of its arguments, computed once per
    barrier by the loop both backends share.
    """
    if horizon_ns <= barrier_ns:
        stride = 1
    else:
        stride = (horizon_ns - barrier_ns) // lookahead_ns + 1
    if stride > windows_left:
        stride = windows_left
    return stride if stride > 1 else 1


class ShardWorld:
    """Protocol of the object :func:`run_sharded`'s builder returns.

    Duck-typed — anything with these attributes works:

    ``env``
        the shard's :class:`~repro.sim.core.Environment`;
    ``mailbox``
        its :class:`Mailbox`, with every owned domain registered;
    ``finalize()``
        picklable partial result after the run (crosses a pipe under
        the fork backend).
    """

    env: Environment
    mailbox: Mailbox

    def finalize(self) -> Any:  # pragma: no cover - protocol stub
        raise NotImplementedError


def run_sharded(
    build: Callable[[Optional[Tuple[int, ...]]], Any],
    *,
    n_domains: int,
    shards: int,
    until_ns: int,
    lookahead_ns: int,
    merge: Callable[[List[Any]], Any],
    weights: Optional[Sequence[float]] = None,
    backend: str = "auto",
    inline_order: Optional[Callable[[int, List[int]], List[int]]] = None,
    coalesce: bool = True,
    checkpoint: Optional[CheckpointConfig] = None,
    recovery: Optional[RecoveryPolicy] = None,
    restore: bool = False,
    world_key: str = "",
    worker_faults: Sequence[Callable[[int, Sequence[Any]], None]] = (),
) -> Tuple[Any, ShardStats]:
    """Run one partitioned simulation; merge per-shard partials.

    ``build(domains)`` constructs a :class:`ShardWorld` owning exactly
    ``domains`` (``None`` means *all* — the serial fast path, which
    runs the single environment straight through with no windows).
    ``merge`` folds the per-shard ``finalize()`` results, always in
    shard order.  ``weights`` — one predicted cost per domain — balance
    the contiguous partition (see :class:`ShardMap`); any grouping
    gives the same bytes, so they only move time between shards.
    ``backend`` is ``"serial"`` (forced single environment),
    ``"inline"`` (N worlds, one process — the reference the property
    tests permute via ``inline_order``), ``"fork"`` (one process per
    shard), or ``"auto"`` (fork when available and ``shards > 1``,
    else inline).  ``coalesce=False`` disables barrier
    elision — one exchange per window, the pre-elision execution shape
    — and is byte-identical to the default (CI holds it there).

    ``checkpoint`` journals the run to disk at a barrier cadence
    (:mod:`repro.sim.checkpoint`); ``restore=True`` resumes from the
    newest usable file in its directory (an empty directory starts
    fresh).  ``recovery`` arms in-run worker respawn on the fork
    backend.  ``world_key`` names the world the checkpoint belongs to
    (restore refuses a mismatch).  ``worker_faults`` are host-level
    fault hooks — ``fault(barriers_done, procs)`` called at the top of
    every fork-backend barrier (e.g.
    :class:`repro.faults.WorkerKill`).
    """
    shard_map = ShardMap(
        n_domains, shards, None if weights is None else tuple(weights)
    )
    if backend not in ("auto", "serial", "inline", "fork"):
        raise ConfigError(f"unknown shard backend {backend!r}")
    if backend == "serial" and shards != 1:
        raise ConfigError("backend='serial' requires shards=1")
    if restore and checkpoint is None:
        raise ConfigError("restore=True requires a checkpoint config")

    if shards == 1 and backend in ("auto", "serial"):
        if checkpoint is not None or restore:
            raise ConfigError(
                "checkpoints are barrier-aligned and a serial run has no "
                "barriers; use shards >= 2 or drop the checkpoint config"
            )
        if worker_faults:
            raise ConfigError(
                "worker_faults need worker processes (fork backend)"
            )
        world = build(None)
        t0 = time.perf_counter()
        world.env.run(until=until_ns)
        stats = ShardStats(
            shards=1,
            backend="serial",
            events_per_shard=[world.env.events_processed],
            sent_per_shard=[world.mailbox.sent],
            compute_s=[time.perf_counter() - t0],
            wait_s=[0.0],
        )
        return merge([world.finalize()]), stats

    if backend == "auto":
        backend = "fork" if _fork_available() else "inline"
    if worker_faults and backend != "fork":
        raise ConfigError(
            "worker_faults need worker processes (fork backend), "
            f"got backend={backend!r}"
        )
    if inline_order is not None and (checkpoint is not None or restore):
        raise ConfigError(
            "checkpointing with a permuted inline_order is unsupported "
            "(the journal records the canonical shard order)"
        )
    bounds = window_boundaries(until_ns, lookahead_ns)
    restore_payload = None
    if restore:
        loaded = load_latest(checkpoint.path, world_key=world_key)
        if loaded is not None:
            restore_payload, _ = loaded
            validate_restore(
                restore_payload,
                world_key=world_key,
                shards=shards,
                n_domains=n_domains,
                shard_map=shard_map.blocks(),
                until_ns=until_ns,
                lookahead_ns=lookahead_ns,
                coalesce=coalesce,
                n_windows=len(bounds),
            )
    if backend == "inline":
        transport: Any = _InlineTransport(build, shard_map, until_ns, coalesce)
    else:
        transport = _ForkTransport(
            build, shard_map, bounds, until_ns, lookahead_ns, coalesce
        )
        inline_order = None
    return _run_barriers(
        transport, shard_map, bounds, until_ns, lookahead_ns, merge,
        coalesce, inline_order=inline_order, checkpoint=checkpoint,
        recovery=recovery, restore_payload=restore_payload,
        world_key=world_key, worker_faults=worker_faults,
    )


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# -- frames ------------------------------------------------------------------
#
# One frame per direction per barrier (over a pipe, ``send_bytes``, so a
# batch is one write, not one pickle per message; inline, the same bytes
# handed across a function call):
#
#   shard -> parent   b"F" + horizon:i64 + covers:u8 + batch (outbox)
#   parent -> shard   b"F" + stride:i64  + 0:u8      + batch (inbox)
#   worker -> parent  b"E" + pickled envelope (final, or on error; fork)

_BARRIER_HEAD = struct.Struct("!qB")
_FRAME_ENVELOPE = 0x45  # b"E"


def _pack_barrier(
    value: int, flag: bool, messages: Sequence[Message]
) -> bytes:
    return b"F" + _BARRIER_HEAD.pack(value, flag) + encode_batch(messages)


def _unpack_barrier(frame: bytes) -> Tuple[int, bool, List[Message]]:
    value, flag = _BARRIER_HEAD.unpack_from(frame, 1)
    return value, bool(flag), decode_batch(frame[1 + _BARRIER_HEAD.size:])


def _envelope_error(frame: bytes) -> str:
    return pickle.loads(frame[1:]).get("error", "unknown worker error")


# -- the shard side ----------------------------------------------------------
#
# What one shard does at a barrier, whichever transport carries its
# frames: the inline transport calls these per shard, the fork worker
# calls them in its own loop.

def _shard_step(world, limit: int) -> Tuple[int, bool, List[Message]]:
    """Run the window up to ``limit``, report the send horizon, drain
    the outbox: the content of one outbox frame."""
    world.env.run_window(limit)
    bound, covers = world.mailbox.send_horizon()
    return bound, covers, world.mailbox.drain_outbox()


def _frame_stride(frame: bytes, coalesce: bool) -> int:
    """The stride an inbox frame orders.  The parent's decision is
    authoritative; a run without elision always advances one window."""
    stride = _BARRIER_HEAD.unpack_from(frame, 1)[0]
    return stride if coalesce and stride > 1 else 1


def _ingest_step(world, frame: bytes, coalesce: bool) -> int:
    """Ingest an inbox frame; return the stride to the next barrier."""
    world.mailbox.ingest(decode_batch(frame[1 + _BARRIER_HEAD.size:]))
    return _frame_stride(frame, coalesce)


def _finish_step(world, until_ns: int) -> Dict[str, Any]:
    """The closing phase, then the shard's envelope.

    Events at exactly ``until_ns`` run here; messages they submit are
    due strictly after the end of the run and stay undelivered in
    every mode, so no barrier follows.
    """
    world.env.run(until=until_ns)
    return {
        "result": world.finalize(),
        "events": world.env.events_processed,
        "sent": world.mailbox.sent,
    }


def _shard_worker(
    build, domains, bounds, until_ns, lookahead_ns, coalesce, conn
) -> None:
    """One shard's process: windows, barriers, final phase, envelope.

    The world stays resident for the whole run and exchanges
    struct-packed frames with the parent, whose stride decision arrives
    piggybacked on the inbox.  The envelope also carries the worker's
    compute and pipe-wait wall time (:class:`ShardStats`).
    """
    die_with_parent()
    envelope: Dict[str, Any] = {}
    ambient = _invariants.current()
    monitor = _invariants.monitor_for_mode(ambient.mode)
    _invariants.install(monitor)
    clock = time.perf_counter
    try:
        world = build(tuple(domains))
        # The world lives until this process exits: move it out of the
        # cyclic collector's reach, so the collections the run triggers
        # stop re-scanning everything the build allocated.
        gc.freeze()
        n = len(bounds)
        k = 0
        stride = 1
        compute = wait = 0.0
        while k < n:
            j = k + stride - 1
            t0 = clock()
            frame = _pack_barrier(*_shard_step(world, bounds[j]))
            t1 = clock()
            conn.send_bytes(frame)
            t2 = clock()
            inbox = conn.recv_bytes()
            t3 = clock()
            compute += t1 - t0
            wait += t3 - t2
            stride = _ingest_step(world, inbox, coalesce)
            k = j + 1
        t0 = clock()
        envelope = _finish_step(world, until_ns)
        envelope["compute_s"] = compute + (clock() - t0)
        envelope["wait_s"] = wait
    except BaseException as exc:
        envelope = {
            "error": f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        }
    finally:
        _invariants.install(ambient)
    if monitor.tainted:
        envelope["tainted"] = True
        envelope["violations"] = monitor.to_dicts()
    conn.send_bytes(
        b"E" + pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    )
    conn.close()


# -- transports --------------------------------------------------------------
#
# The barrier loop reaches shards only through a transport:
#
#   outbox(s, limit)   shard s's outbox frame for the barrier at ``limit``,
#                      with its content (None for an envelope frame)
#   deliver(s, frame)  hand shard s its inbox frame
#   respawn(s)         restart shard s from t=0 (the loop then replays it)
#   finish(s)          shard s's closing envelope
#
# plus ``start()``/``close(finished)`` around the run and ``procs`` for host
# fault hooks.  A transport that loses a shard raises :class:`_ShardDied`.

class _ShardDied(Exception):
    """A shard's worker is gone; the message says how."""


class _InlineTransport:
    """Every shard's world in the calling process: the reference
    semantics, and the backend the property suite permutes."""

    backend = "inline"
    procs: Sequence[Any] = ()

    def __init__(self, build, shard_map: ShardMap, until_ns: int,
                 coalesce: bool) -> None:
        self._build = build
        self._map = shard_map
        self._until_ns = until_ns
        self._coalesce = coalesce
        self.worlds: List[Any] = []
        self._compute_s = [0.0] * shard_map.shards

    def start(self) -> None:
        self.worlds = [
            self._build(self._map.domains_of(s))
            for s in range(self._map.shards)
        ]

    def close(self, finished: bool) -> None:
        pass

    def outbox(self, s: int, limit: int):
        # The content is the very messages packed, in drain order; the
        # routed inbox frames (and so the journal) keep that order.
        t0 = time.perf_counter()
        report = _shard_step(self.worlds[s], limit)
        self._compute_s[s] += time.perf_counter() - t0
        return _pack_barrier(*report), report

    def deliver(self, s: int, frame: bytes) -> None:
        _ingest_step(self.worlds[s], frame, self._coalesce)

    def respawn(self, s: int) -> None:
        self.worlds[s] = self._build(self._map.domains_of(s))

    def finish(self, s: int) -> Dict[str, Any]:
        t0 = time.perf_counter()
        envelope = _finish_step(self.worlds[s], self._until_ns)
        elapsed = time.perf_counter() - t0
        envelope["compute_s"] = self._compute_s[s] + elapsed
        envelope["wait_s"] = 0.0
        return envelope


class _ForkTransport:
    """One OS process per shard, frames over pipes: the multi-core
    path."""

    backend = "fork"

    def __init__(self, build, shard_map: ShardMap, bounds: Sequence[int],
                 until_ns: int, lookahead_ns: int, coalesce: bool) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context("fork")
        self._build = build
        self._map = shard_map
        self._args = (list(bounds), until_ns, lookahead_ns, coalesce)
        self.pipes: List[Any] = [None] * shard_map.shards
        self.procs: List[Any] = [None] * shard_map.shards

    def start(self) -> None:
        # Freeze the parent heap across the spawns.  A forked child
        # shares the parent's pages copy-on-write, but CPython's cyclic
        # collector scans every tracked object — which writes to every
        # inherited page's refcount fields and faults the whole heap
        # into the child.  Collecting then moving survivors to the
        # permanent generation keeps the children's collector off the
        # shared pages entirely; measured on cluster_scale this roughly
        # quarters child minor faults and brings total fork-run CPU
        # back to parity with serial.
        gc.collect()
        gc.freeze()
        for s in range(self._map.shards):
            self._spawn(s)

    def close(self, finished: bool) -> None:
        gc.unfreeze()
        for s in range(self._map.shards):
            self._reap(s, finished)

    def outbox(self, s: int, limit: int):
        frame = self._recv(s)
        if frame[0] == _FRAME_ENVELOPE:
            return frame, None
        return frame, _unpack_barrier(frame)

    def deliver(self, s: int, frame: bytes) -> None:
        try:
            self.pipes[s].send_bytes(frame)
        except OSError:
            raise _ShardDied(
                f"pipe broke on send; {self._death_detail(s)}"
            ) from None

    def respawn(self, s: int) -> None:
        self._reap(s, False)
        self._spawn(s)

    def finish(self, s: int) -> Dict[str, Any]:
        frame = self._recv(s)
        if frame[0] != _FRAME_ENVELOPE:  # pragma: no cover - defensive
            raise ShardSyncError(
                f"shard {s} sent a barrier frame where its final "
                "envelope was due (protocol desync)"
            )
        return pickle.loads(frame[1:])

    def _recv(self, s: int) -> bytes:
        try:
            return self.pipes[s].recv_bytes()
        except (EOFError, OSError) as exc:
            raise _ShardDied(
                f"pipe closed ({type(exc).__name__}); {self._death_detail(s)}"
            ) from None

    def _spawn(self, s: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Looked up at spawn time, so a wrapped entry point (a profiler)
        # runs in the worker.
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(self._build, self._map.domains_of(s), *self._args,
                  child_conn),
            name=f"repro-shard-{s}",
        )
        proc.start()
        child_conn.close()
        self.pipes[s] = parent_conn
        self.procs[s] = proc

    def _reap(self, s: int, finished: bool) -> None:
        """Close shard ``s``'s pipe and wait for its worker.

        A worker that is not finishing is terminated first: blocked on
        its pipe, it would never see our end close, because it holds an
        inherited copy of it.
        """
        conn, proc = self.pipes[s], self.procs[s]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if proc is not None:
            if not finished:
                proc.terminate()
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join()

    def _death_detail(self, s: int) -> str:
        proc = self.procs[s]
        proc.join(timeout=1)  # a just-killed child may not be reaped yet
        code = proc.exitcode
        if code is None:  # pragma: no cover - still running
            return "worker still running"
        if code < 0:
            try:
                name = signal.Signals(-code).name
            except ValueError:  # pragma: no cover - unknown signal
                name = "unknown"
            return f"killed by signal {-code} ({name})"
        return f"exited with code {code}"


# -- the barrier loop --------------------------------------------------------

def _run_barriers(
    transport,
    shard_map: ShardMap,
    bounds: Sequence[int],
    until_ns: int,
    lookahead_ns: int,
    merge,
    coalesce: bool,
    *,
    inline_order,
    checkpoint: Optional[CheckpointConfig],
    recovery: Optional[RecoveryPolicy],
    restore_payload: Optional[Dict[str, Any]],
    world_key: str,
    worker_faults: Sequence[Callable[[int, Sequence[Any]], None]],
) -> Tuple[Any, ShardStats]:
    """The one barrier loop, over either transport.

    Per barrier: collect every shard's outbox frame, route its
    messages, fold the send horizon, pick the stride, hand each shard
    its inbox frame (stride piggybacked), count, journal, checkpoint.
    Both transports speak the same frames, so journals — and therefore
    checkpoints — are backend-portable.
    """
    shards = shard_map.shards
    domain_shard = shard_map.domain_to_shard()
    n = len(bounds)
    stats = ShardStats(shards=shards, backend=transport.backend, windows=n)
    k = 0
    stride = 1
    journal: Optional[ShardJournal] = None
    if restore_payload is not None:
        journal = journal_from_payload(restore_payload)
        recorded = restore_payload.get("stats", {})
        stats.barriers = int(recorded.get("barriers", 0))
        stats.messages_exchanged = int(recorded.get("messages_exchanged", 0))
        stats.max_stride = int(recorded.get("max_stride", 1))
        k, stride = int(restore_payload["k"]), int(restore_payload["stride"])
    elif checkpoint is not None or recovery is not None:
        journal = ShardJournal(shards)
    respawns = [0] * shards

    def position(window: int) -> str:
        if window < n:
            return f"barrier {stats.barriers} (window {window}, t<={bounds[window]} ns)"
        return f"barrier {stats.barriers} (final phase, t<={until_ns} ns)"

    def replay(s: int) -> None:
        """Re-execute the journal into shard ``s``, freshly built.

        The shard re-runs every window from t=0; each regenerated
        outbox frame must digest-match the recorded one (divergence
        means the build is not deterministic — a contract violation,
        not a recoverable fault), and in exchange it is fed the
        recorded inbox frame.  The journal must then land exactly on
        the loop's ``(k, stride)``.
        """
        at_k = 0
        at_stride = 1
        for i, inbox in enumerate(journal.frames[s]):
            j = at_k + at_stride - 1
            regenerated, report = transport.outbox(s, bounds[j])
            if report is None:
                raise ShardSyncError(
                    f"shard {s} failed deterministically during replay "
                    f"at exchange {i}: {_envelope_error(regenerated)}"
                )
            got = hashlib.sha256(regenerated).hexdigest()
            want = journal.digests[s][i]
            if got != want:
                raise ShardSyncError(
                    f"shard {s} diverged during replay at exchange {i}: "
                    f"regenerated frame digest {got[:12]} != recorded "
                    f"{want[:12]}; the build is not deterministic, so "
                    "the journal cannot restore this run"
                )
            transport.deliver(s, inbox)
            at_k = j + 1
            at_stride = _frame_stride(inbox, coalesce)
        if at_k != k or at_stride != stride:
            raise CheckpointError(
                f"checkpoint loop state (k={k}, stride={stride}) does "
                f"not match its own journal (k={at_k}, stride={at_stride})"
            )

    def recover(s: int, window: int, reason: str) -> None:
        """Respawn shard ``s`` and replay it back to position.

        Seeded backoff, bounded budget; exhausting the budget (or
        running without a :class:`RecoveryPolicy`) raises the terminal
        :class:`ShardSyncError`, carrying the barrier/window position
        and the worker's exitcode or signal.
        """
        while True:
            context = f"shard {s} worker died at {position(window)}: {reason}"
            if recovery is None:
                raise ShardSyncError(
                    context + "; in-run recovery is off — see the "
                    "worker's stderr for any traceback"
                ) from None
            if respawns[s] >= recovery.max_respawns:
                raise ShardSyncError(
                    context + f"; respawn budget exhausted "
                    f"({respawns[s]}/{recovery.max_respawns})"
                ) from None
            respawns[s] += 1
            stats.respawns += 1
            delay = recovery.backoff_s(s, respawns[s])
            if delay > 0:
                time.sleep(delay)
            transport.respawn(s)
            try:
                replay(s)
                return
            except _ShardDied as died:
                reason = f"worker died again during replay: {died}"

    def retried(s: int, window: int, op: Callable[[], Any]) -> Any:
        while True:
            try:
                return op()
            except _ShardDied as died:
                recover(s, window, str(died))

    finished = False
    transport.start()
    try:
        if restore_payload is not None:
            for s in range(shards):
                try:
                    replay(s)
                except _ShardDied as died:
                    recover(s, k, f"worker died during restore replay: {died}")

        while k < n:
            j = k + stride - 1  # this stride's barrier window index
            limit = bounds[j]
            for fault in worker_faults:
                fault(stats.barriers, transport.procs)
            order = range(shards)
            if inline_order is not None:
                order = list(inline_order(j, list(order)))
                if sorted(order) != list(range(shards)):
                    raise ConfigError(
                        f"inline_order returned {order}, not a permutation"
                    )
            batches: List[List[Message]] = [[] for _ in range(shards)]
            earliest_in = [INFINITY] * shards
            covered = [False] * shards
            horizon = INFINITY
            for s in order:
                frame, report = retried(
                    s, j, lambda: transport.outbox(s, limit)
                )
                if report is None:
                    # The worker failed before this barrier and sent its
                    # envelope early — a deterministic model error that
                    # a respawn would only reproduce, so it stays
                    # terminal even with recovery armed.
                    raise ShardSyncError(f"shard {s}: {_envelope_error(frame)}")
                if journal is not None:
                    journal.record_worker_frame(s, frame)
                reported, covers, outbox = report
                covered[s] = covers
                if reported < horizon:
                    horizon = reported
                for msg in outbox:
                    dest = domain_shard[msg.dest]
                    batches[dest].append(msg)
                    stats.messages_exchanged += 1
                    if msg.deliver_at < earliest_in[dest]:
                        earliest_in[dest] = msg.deliver_at
            # A delivery may trigger a send at its own instant — but only
            # on a shard whose bound doesn't already speak for deliveries.
            for s in range(shards):
                if not covered[s] and earliest_in[s] < horizon:
                    horizon = earliest_in[s]
            k = j + 1
            if coalesce and k < n:
                stride = coalesce_stride(limit, horizon, lookahead_ns, n - k)
                if stride > stats.max_stride:
                    stats.max_stride = stride
            else:
                stride = 1
            # Hand over after every shard reported: a batch's content is
            # then independent of the execution order above.
            for s in range(shards):
                frame = _pack_barrier(stride, False, batches[s])
                # Journal before the hand-over: if a pipe write fails
                # halfway, the respawned worker consumes this very frame
                # during replay, so a successful recovery *is* the
                # completed send.
                if journal is not None:
                    journal.record_parent_frame(s, frame)
                try:
                    transport.deliver(s, frame)
                except _ShardDied as died:
                    recover(s, j, str(died))
            stats.barriers += 1
            if (
                checkpoint is not None
                and stats.barriers % checkpoint.every == 0
            ):
                save_checkpoint(
                    checkpoint,
                    checkpoint_payload(
                        world_key=world_key, k=k, stride=stride,
                        until_ns=until_ns, lookahead_ns=lookahead_ns,
                        n_domains=shard_map.n_domains, shards=shards,
                        coalesce=coalesce, stats=stats.to_dict(),
                        journal=journal, shard_map=shard_map.blocks(),
                    ),
                )

        envelopes = [
            retried(s, n, lambda: transport.finish(s)) for s in range(shards)
        ]
        finished = True
    finally:
        transport.close(finished)

    errors = [
        f"shard {s}: {env['error']}"
        for s, env in enumerate(envelopes)
        if "error" in env
    ]
    if errors:
        raise ShardSyncError("; ".join(errors))
    # Re-record worker-side invariant violations into the parent's
    # ambient monitor so a sharded cell taints exactly like a serial
    # one would.
    ambient = _invariants.current()
    for s, env in enumerate(envelopes):
        if env.get("tainted") and ambient.enabled:
            for v in env.get("violations", ()):
                ambient.violation(
                    v.get("guard", "shard.worker"),
                    int(v.get("ts_ns", 0)),
                    f"[shard {s}] {v.get('message', '')}",
                    **v.get("details", {}),
                )
    stats.events_per_shard = [env["events"] for env in envelopes]
    stats.sent_per_shard = [env["sent"] for env in envelopes]
    stats.compute_s = [env["compute_s"] for env in envelopes]
    stats.wait_s = [env["wait_s"] for env in envelopes]
    return merge([env["result"] for env in envelopes]), stats
