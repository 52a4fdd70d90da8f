"""Message-passing primitives: Store and FilterStore.

A :class:`Store` is an unbounded-or-bounded buffer of Python objects
with FIFO put/get queues — the building block for request queues,
mailboxes, and the in-VM agent channels.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from repro.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


class StorePut(Event):
    """Pending insertion of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._dispatch()


class StoreGet(Event):
    """Pending retrieval from a store; value is the retrieved item."""

    __slots__ = ("filter",)

    def __init__(
        self, store: "Store", filter: Optional[Callable[[Any], bool]] = None
    ) -> None:
        super().__init__(store.env)
        self.filter = filter
        store._get_queue.append(self)
        store._dispatch()


class Store:
    """FIFO object buffer with optional capacity."""

    def __init__(self, env: "Environment", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event triggers once accepted."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Retrieve the oldest item; the event triggers with the item."""
        return StoreGet(self)

    # -- internals ---------------------------------------------------------
    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit puts while there is room.
            while self._put_queue and not self.is_full:
                put = self._put_queue.pop(0)
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Satisfy gets while there are items.
            i = 0
            while i < len(self._get_queue) and self.items:
                get = self._get_queue[i]
                item = self._match(get)
                if item is not _NO_MATCH:
                    self._get_queue.pop(i)
                    get.succeed(item)
                    progress = True
                else:
                    i += 1

    def _match(self, get: StoreGet) -> Any:
        if not self.items:
            return _NO_MATCH
        return self.items.popleft()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} items={len(self.items)} "
            f"puts={len(self._put_queue)} gets={len(self._get_queue)}>"
        )


class FilterStore(Store):
    """Store whose gets may carry a predicate selecting which item to take."""

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        return StoreGet(self, filter)

    def _match(self, get: StoreGet) -> Any:
        if get.filter is None:
            if not self.items:
                return _NO_MATCH
            return self.items.popleft()
        for idx, item in enumerate(self.items):
            if get.filter(item):
                del self.items[idx]
                return item
        return _NO_MATCH


class _NoMatch:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<no-match>"


_NO_MATCH = _NoMatch()
