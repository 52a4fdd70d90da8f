"""Fabric topologies as domain plans: cluster wiring and static routing.

The paper's testbed is two hosts on one non-blocking switch (Xsigo
VP780): the only contention points are the source's egress and the
destination's ingress port, which is what
:func:`~repro.hw.host.path_between` models for directly-attached
hosts.  Larger fabrics — racks, leaf/spine switches, oversubscribed
uplinks — are described by a :class:`DomainPlan`: pure index math,
with no fabric or host object, so a plan is picklable and identical
in every worker process.  A plan answers three questions:

* which **domain** (isolation unit) a host index belongs to;
* which switch links each domain *owns* (created in its own fabric,
  in a deterministic order);
* how a route decomposes: intra-domain hops, or a (source-side,
  destination-side) split for cross-domain traffic — the two relay
  segments, with the propagation between them carried as latency on
  the cross-domain channel (the conservative lookahead).

The domain is the unit within which the fluid max-min solver may
couple flows; *no link is owned by two domains*, which is what makes
per-domain fabrics byte-identical regardless of how domains are
grouped into shards (:mod:`repro.experiments.cluster`,
:mod:`repro.sim.shard`).  For a leaf-spine fabric the domain is the
rack (each leaf's uplinks/downlinks are dedicated); for a fat-tree it
is the pod (aggregation uplinks are shared by every edge in the pod,
so a rack-grained split would couple fabrics through them).

Routing is deterministic and static: the spine (or core) carrying a
(src, dst) pair is a pure function of the two host indices, so a
transfer's path — and therefore every max-min solve — is reproducible
run to run and identical under serial and sharded runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class DomainPlan:
    """Base class: a partition of host indices into link-disjoint
    domains, plus the per-domain link inventory and route split."""

    kind = "abstract"

    @property
    def n_domains(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def n_hosts(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def domain_of(self, host_index: int) -> int:
        """Domain owning host ``host_index``."""
        raise NotImplementedError  # pragma: no cover - interface

    def hosts_of(self, domain: int) -> range:
        """Host indices living in ``domain`` (always contiguous)."""
        raise NotImplementedError  # pragma: no cover - interface

    def domain_links(self, domain: int) -> Tuple[Tuple[str, float], ...]:
        """``(name, bytes_per_sec)`` switch links ``domain`` owns, in
        creation order."""
        raise NotImplementedError  # pragma: no cover - interface

    def intra_hops(self, si: int, di: int) -> Tuple[str, ...]:
        """Switch hop names for a same-domain route ``si -> di``."""
        raise NotImplementedError  # pragma: no cover - interface

    def cross_hops(
        self, si: int, di: int
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """Cross-domain route split: (source-side, destination-side)
        switch hop names.  The source side is owned by ``si``'s domain,
        the destination side by ``di``'s — the two store-and-forward
        relay segments."""
        raise NotImplementedError  # pragma: no cover - interface

    def _check_pair(self, si: int, di: int) -> None:
        n = self.n_hosts
        if not (0 <= si < n and 0 <= di < n):
            raise ConfigError(
                f"host pair ({si}, {di}) out of range for {n} hosts"
            )


@dataclass(frozen=True)
class LeafSpinePlan(DomainPlan):
    """Rack-grained plan of a two-stage Clos fabric: ``racks`` leaves,
    ``spines`` spines.

    Each leaf is non-blocking for its own rack, so intra-rack routes
    cross no switch link.  Cross-rack traffic crosses one leaf uplink
    (``leaf<R>.up<S>``) and one downlink (``leaf<R>.down<S>``); the
    spine ``S`` for a pair is ``(src_index + dst_index) % spines``.
    Each rack owns its leaf's uplinks and downlinks (they are dedicated
    per rack), so racks are link-disjoint and the domain is the rack.
    ``uplink_bytes_per_sec`` models oversubscription (default: the
    host port rate).
    """

    racks: int
    hosts_per_rack: int
    spines: int
    link_bytes_per_sec: float
    uplink_bytes_per_sec: Optional[float] = None

    kind = "leaf-spine"

    def __post_init__(self) -> None:
        if self.racks < 1 or self.hosts_per_rack < 1 or self.spines < 1:
            raise ConfigError(
                f"leaf-spine plan needs racks/hosts_per_rack/spines >= 1, "
                f"got {self.racks}/{self.hosts_per_rack}/{self.spines}"
            )

    @property
    def n_domains(self) -> int:
        return self.racks

    @property
    def n_hosts(self) -> int:
        return self.racks * self.hosts_per_rack

    def domain_of(self, host_index: int) -> int:
        return host_index // self.hosts_per_rack

    def hosts_of(self, domain: int) -> range:
        start = domain * self.hosts_per_rack
        return range(start, start + self.hosts_per_rack)

    def domain_links(self, domain: int) -> Tuple[Tuple[str, float], ...]:
        up_bps = float(self.uplink_bytes_per_sec or self.link_bytes_per_sec)
        ups = tuple(
            (f"leaf{domain}.up{s}", up_bps) for s in range(self.spines)
        )
        downs = tuple(
            (f"leaf{domain}.down{s}", up_bps) for s in range(self.spines)
        )
        return ups + downs

    def intra_hops(self, si: int, di: int) -> Tuple[str, ...]:
        self._check_pair(si, di)
        if self.domain_of(si) != self.domain_of(di):
            raise ConfigError(
                f"hosts {si}/{di} are in different racks; use cross_hops"
            )
        return ()  # each leaf is non-blocking for its own rack

    def cross_hops(
        self, si: int, di: int
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        self._check_pair(si, di)
        ra, rb = self.domain_of(si), self.domain_of(di)
        if ra == rb:
            raise ConfigError(
                f"hosts {si}/{di} share rack {ra}; use intra_hops"
            )
        s = (si + di) % self.spines
        return ((f"leaf{ra}.up{s}",), (f"leaf{rb}.down{s}",))


@dataclass(frozen=True)
class FatTreePlan(DomainPlan):
    """Pod-grained plan of the classic k-ary fat-tree: k pods, k^3/4
    hosts.

    Each pod has ``k/2`` edge and ``k/2`` aggregation switches; each
    edge switch serves ``k/2`` hosts; ``(k/2)^2`` core switches join
    the pods.  Routing is the standard three-stage static scheme with
    the core chosen as ``(src_index + dst_index) % (k/2)^2`` (core
    ``c`` homes on aggregation ``c // (k/2)`` in every pod).

    Aggregation uplinks are shared by every edge switch of a pod, so
    the pod — not the edge/rack — is the smallest link-disjoint unit.
    A pod owns its edge and aggregation links; each core switch's
    per-pod downlink ``core<C>.down<P>`` is owned by the *destination*
    pod ``P`` (it is dedicated to traffic entering that pod).
    """

    k: int
    link_bytes_per_sec: float

    kind = "fat-tree"

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise ConfigError(
                f"fat-tree arity k must be even and >= 2, got {self.k}"
            )

    @property
    def _half(self) -> int:
        return self.k // 2

    @property
    def n_domains(self) -> int:
        return self.k  # one domain per pod

    @property
    def n_hosts(self) -> int:
        return self.k ** 3 // 4

    def domain_of(self, host_index: int) -> int:
        return host_index // (self._half * self._half)

    def hosts_of(self, domain: int) -> range:
        per_pod = self._half * self._half
        start = domain * per_pod
        return range(start, start + per_pod)

    def domain_links(self, domain: int) -> Tuple[Tuple[str, float], ...]:
        half, bps, p = self._half, self.link_bytes_per_sec, domain
        out: List[Tuple[str, float]] = []
        for e in range(half):
            for a in range(half):
                out.append((f"pod{p}.edge{e}.up{a}", bps))
        for a in range(half):
            for e in range(half):
                out.append((f"pod{p}.agg{a}.down{e}", bps))
        for a in range(half):
            for j in range(half):
                out.append((f"pod{p}.agg{a}.up{a * half + j}", bps))
        for c in range(half * half):
            out.append((f"core{c}.down{p}", bps))
        return tuple(out)

    def intra_hops(self, si: int, di: int) -> Tuple[str, ...]:
        self._check_pair(si, di)
        half = self._half
        p = self.domain_of(si)
        if p != self.domain_of(di):
            raise ConfigError(
                f"hosts {si}/{di} are in different pods; use cross_hops"
            )
        if si // half == di // half:
            return ()  # same edge switch: non-blocking
        e, f = (si // half) % half, (di // half) % half
        a = (si + di) % half
        return (f"pod{p}.edge{e}.up{a}", f"pod{p}.agg{a}.down{f}")

    def cross_hops(
        self, si: int, di: int
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        self._check_pair(si, di)
        half = self._half
        p, q = self.domain_of(si), self.domain_of(di)
        if p == q:
            raise ConfigError(
                f"hosts {si}/{di} share pod {p}; use intra_hops"
            )
        e, f = (si // half) % half, (di // half) % half
        c = (si + di) % (half * half)
        a = c // half
        return (
            (f"pod{p}.edge{e}.up{a}", f"pod{p}.agg{a}.up{c}"),
            (f"core{c}.down{q}", f"pod{q}.agg{a}.down{f}"),
        )
