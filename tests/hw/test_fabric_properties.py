"""Property-based tests for the fluid fabric (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import FluidFabric
from repro.hw.fabric import maxmin_rates
from repro.sim import Environment
from repro.units import SEC, GiB, KiB

GB_PER_S = float(GiB)


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=256 * KiB), min_size=1, max_size=12
    ),
    gaps=st.lists(st.integers(min_value=0, max_value=100_000), min_size=0, max_size=12),
)
@settings(max_examples=40, deadline=None)
def test_every_transfer_completes_no_earlier_than_solo_time(sizes, gaps):
    env = Environment()
    fabric = FluidFabric(env)
    link = fabric.add_link("l", GB_PER_S)
    transfers = []

    def submitter(env):
        for i, size in enumerate(sizes):
            transfers.append(fabric.submit([link], size, f"t{i}"))
            gap = gaps[i] if i < len(gaps) else 0
            if gap:
                yield env.timeout(gap)
        if False:  # pragma: no cover - make this a generator
            yield

    env.process(submitter(env))
    env.run()

    assert len(fabric.completions) == len(sizes)
    for t in transfers:
        assert t.done.triggered
        solo = t.nbytes * SEC / GB_PER_S
        elapsed = t.completed_at - t.submitted_at
        # Sharing can only slow a transfer down (minus 2ns rounding slack).
        assert elapsed + 2 >= solo


@given(
    sizes=st.lists(
        st.integers(min_value=1 * KiB, max_value=128 * KiB), min_size=2, max_size=8
    )
)
@settings(max_examples=40, deadline=None)
def test_aggregate_throughput_never_exceeds_capacity(sizes):
    env = Environment()
    fabric = FluidFabric(env)
    link = fabric.add_link("l", GB_PER_S)
    for i, size in enumerate(sizes):
        fabric.submit([link], size, f"t{i}")
    env.run()
    total_bytes = sum(sizes)
    min_time = total_bytes * SEC / GB_PER_S
    # All bytes through one link cannot finish faster than capacity allows.
    assert env.now + 2 >= min_time
    assert link.utilization(env.now) <= 1.0 + 1e-6


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=20, deadline=None)
def test_work_conservation_busy_until_all_done(seed, n):
    """With all transfers submitted at t=0, the link stays saturated:
    finish time == total bytes / capacity."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(1 * KiB, 64 * KiB, size=n)]
    env = Environment()
    fabric = FluidFabric(env)
    link = fabric.add_link("l", GB_PER_S)
    for i, size in enumerate(sizes):
        fabric.submit([link], size, f"t{i}")
    env.run()
    expected = sum(sizes) * SEC / GB_PER_S
    assert abs(env.now - expected) <= n + 2  # ns rounding per completion event


# -- oracle: the per-event fast paths against a straightforward fabric -------

_LINKS = ("a", "b", "c", "d")
_PATHS = (("a",), ("a", "b"), ("b", "c"), ("c", "d", "a"), ("d",), ("b", "b"))


class ReferenceFabric(FluidFabric):
    """The fabric with its per-event paths written the direct way: a
    fresh link -> rate tally per advance, a closure per timer and a
    memo keyed by link names.  The fast paths must match it bit for
    bit."""

    def _advance(self):
        now = self.env.now
        dt = now - self._last_advance
        if dt > 0 and self._active:
            link_rate = {}
            for t in self._active:
                t.remaining = max(t.remaining - t.rate * dt, 0.0)
                for link in t.path:
                    link_rate[link] = link_rate.get(link, 0.0) + t.rate
            for link, rate in link_rate.items():
                cap = link.capacity_bps / SEC
                if cap > 0:
                    link._util_integral += (rate / cap) * dt
        self._last_advance = now

    def _schedule_next(self):
        self._timer_generation += 1
        if not self._active:
            return
        generation = self._timer_generation
        dt_min = math.inf
        for t in self._active:
            if t.rate <= 0:
                continue
            dt_min = min(dt_min, t.remaining / t.rate)
        if not math.isfinite(dt_min):
            return
        timer = self.env.timeout(max(int(math.ceil(dt_min)), 1))
        timer.callbacks.append(lambda _ev: self._on_generation(generation))

    def _on_generation(self, generation):
        if generation != self._timer_generation:
            return
        self._advance()
        finished = [t for t in self._active if t.remaining <= 1e-6]
        if finished:
            touched = []
            for t in finished:
                self._active.remove(t)
                for link in t.path:
                    lst = self._members.get(link)
                    if lst is not None:
                        lst.pop(t, None)
                        if not lst:
                            del self._members[link]
                t.completed_at = self.env.now
                self.completions.append(
                    (t.transfer_id, t.nbytes, t.completed_at - t.submitted_at,
                     t.flow_label)
                )
                touched.extend(t.path)
            self._reallocate(touched)
            for t in finished:
                t.done.succeed(t)
        self._schedule_next()

    def _solve(self, transfers):
        if not transfers:
            return ()

        def solve():
            rates = maxmin_rates(transfers, lambda link: link.capacity_bps / SEC)
            return tuple(rates[t] for t in transfers)

        if len(transfers) > 24 or not self._memo_enabled:
            return solve()
        self._memo_lookups += 1
        if self._memo_lookups == 1024 and self._memo_hits < 1024 * 0.05:
            self._memo_enabled = False
            self._solve_cache.clear()
            return solve()
        tkey, lkey, seen = [], [], set()
        for t in transfers:
            tkey.append((tuple(link.name for link in t.path), t.weight))
            for link in t.path:
                if link.name not in seen:
                    seen.add(link.name)
                    lkey.append((link.name, link.capacity_bps))
        key = (tuple(tkey), tuple(lkey))
        cached = self._solve_cache.get(key)
        if cached is not None:
            self._memo_hits += 1
        else:
            cached = self._solve_cache[key] = solve()
        return cached


def _hexes(values):
    return tuple(float(v).hex() for v in values)


_CHURN_OP = st.one_of(
    st.tuples(
        st.just("submit"), st.integers(0, 50_000),
        st.integers(0, len(_PATHS) - 1), st.integers(1, 96 * KiB),
        st.sampled_from((1.0, 2.0, 0.5)),
    ),
    st.tuples(
        st.just("capacity"), st.integers(0, 50_000),
        st.sampled_from(_LINKS), st.sampled_from((0.5, 1.0, 2.0)),
    ),
    st.tuples(
        st.just("degrade"), st.integers(0, 50_000),
        st.sampled_from(_LINKS), st.sampled_from((0.0, 0.25, 1.0)),
    ),
)


def _drive(fabric_cls, ops):
    """Run one churn script; return everything observable, as bits."""
    env = Environment()
    fabric = fabric_cls(env)
    links = {name: fabric.add_link(name, GB_PER_S) for name in _LINKS}
    snapshots = []

    def op(at, kind, args):
        yield env.timeout(at)
        if kind == "submit":
            path, nbytes, weight = args
            fabric.submit(
                [links[n] for n in _PATHS[path]], nbytes, f"p{path}", weight
            )
        elif kind == "capacity":
            name, factor = args
            fabric.set_link_capacity(name, GB_PER_S * factor)
        else:
            name, factor = args
            fabric.set_link_degradation(name, factor)
        snapshots.append((
            env.now,
            tuple((t.transfer_id, *_hexes((t.rate, t.remaining)))
                  for t in fabric.active_transfers),
        ))

    for kind, at, *args in ops:
        env.process(op(at, kind, args))
    # Every link comes back up, so every transfer drains.
    env.process(op(60_000, "degrade", ("a", 1.0)))
    for name in _LINKS[1:]:
        env.process(op(60_001 + _LINKS.index(name), "degrade", (name, 1.0)))
    env.run()
    return {
        "snapshots": snapshots,
        "completions": fabric.completions,
        "utilization": {
            name: link.utilization(env.now).hex()
            for name, link in links.items()
        },
        "memo": (fabric._memo_lookups, fabric._memo_hits),
        "now": env.now,
    }


@given(ops=st.lists(_CHURN_OP, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_fast_event_path_matches_reference_fabric(ops):
    assert _drive(FluidFabric, ops) == _drive(ReferenceFabric, ops)


def test_reference_fabric_sees_memo_hits_and_stalls():
    """The churn the oracle runs reaches the paths it guards: memo
    hits, a downed link stalling transfers, repeated-link paths."""
    ops = [("submit", i * 10_000, i % len(_PATHS), 8 * KiB, 1.0)
           for i in range(30)]
    ops += [("degrade", 2_000, "a", 0.0), ("degrade", 9_000, "a", 1.0)]
    got = _drive(FluidFabric, ops)
    assert got == _drive(ReferenceFabric, ops)
    assert got["memo"][1] > 0
    assert len(got["completions"]) == 30
