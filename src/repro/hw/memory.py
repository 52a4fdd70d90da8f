"""Machine memory, page frames, and per-domain address spaces.

The simulation does not move real bytes around; what matters for ResEx
is the *structure* of InfiniBand memory: registered buffers are pinned
page ranges, and hardware-updated structures (completion-queue rings,
doorbell records) live inside pages that dom0 can map read-only for
introspection — exactly the channel IBMon relies on.

A :class:`PageFrame` may carry a ``content`` object: the Python object
standing in for whatever structure the page holds (e.g. a CQ ring).
Foreign mappings hand out the same object wrapped read-only, so an
introspecting observer sees updates exactly when the "hardware" makes
them — including the sampling raciness the paper's IBMon has.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import HypervisorError
from repro.units import KiB

PAGE_SIZE = 4 * KiB


class PageFrame:
    """One 4 KiB machine page frame."""

    __slots__ = ("mfn", "owner_domid", "content", "pinned")

    def __init__(self, mfn: int, owner_domid: int) -> None:
        self.mfn = mfn
        self.owner_domid = owner_domid
        #: Object standing in for the page's contents (CQ ring, buffer, ...).
        self.content: Any = None
        #: Pinned pages may be DMA targets and cannot be reclaimed.
        self.pinned: bool = False

    def __repr__(self) -> str:
        flags = "P" if self.pinned else "-"
        return f"<PageFrame mfn={self.mfn} dom={self.owner_domid} {flags}>"


class MachineMemory:
    """Allocator for a host's physical page frames."""

    def __init__(self, total_bytes: int) -> None:
        if total_bytes < PAGE_SIZE:
            raise HypervisorError(f"host memory too small: {total_bytes}")
        self.total_frames = total_bytes // PAGE_SIZE
        self._next_mfn = 0

    @property
    def free_frames(self) -> int:
        return self.total_frames - self._next_mfn

    def allocate(self, owner_domid: int, nframes: int) -> List[PageFrame]:
        """Allocate ``nframes`` frames for the given domain."""
        if nframes <= 0:
            raise HypervisorError(f"nframes must be > 0, got {nframes}")
        if nframes > self.free_frames:
            raise HypervisorError(
                f"out of memory: requested {nframes}, free {self.free_frames}"
            )
        start = self._next_mfn
        self._next_mfn += nframes
        return [
            PageFrame(mfn, owner_domid) for mfn in range(start, self._next_mfn)
        ]


class AddressSpace:
    """Guest-pseudo-physical to machine mapping for one domain."""

    def __init__(self, domid: int, memory: MachineMemory) -> None:
        self.domid = domid
        self.memory = memory
        self._p2m: Dict[int, PageFrame] = {}
        self._next_gpfn = 0

    def extend(self, nframes: int) -> range:
        """Allocate frames and map them at the next free gpfn range."""
        frames = self.memory.allocate(self.domid, nframes)
        start = self._next_gpfn
        for frame in frames:
            self._p2m[self._next_gpfn] = frame
            self._next_gpfn += 1
        return range(start, self._next_gpfn)

    def translate(self, gpfn: int) -> PageFrame:
        """Guest pseudo-physical frame number -> machine frame."""
        try:
            return self._p2m[gpfn]
        except KeyError:
            raise HypervisorError(
                f"dom{self.domid}: gpfn {gpfn} not mapped"
            ) from None

    def pin_range(self, start_gpfn: int, nframes: int) -> List[PageFrame]:
        """Pin a contiguous gpfn range for DMA (IB memory registration)."""
        frames = [self.translate(start_gpfn + i) for i in range(nframes)]
        for frame in frames:
            frame.pinned = True
        return frames

    def unpin_range(self, start_gpfn: int, nframes: int) -> None:
        for i in range(nframes):
            self.translate(start_gpfn + i).pinned = False


class Buffer:
    """A contiguous guest buffer: the unit BenchEx applications send.

    ``gpfn_start`` addresses the first page; ``nbytes`` is the logical
    length (the application "buffer size" the paper parameterises on).
    """

    __slots__ = ("address_space", "gpfn_start", "nbytes", "label")

    def __init__(
        self,
        address_space: AddressSpace,
        nbytes: int,
        label: str = "",
    ) -> None:
        if nbytes <= 0:
            raise HypervisorError(f"buffer size must be > 0, got {nbytes}")
        self.address_space = address_space
        self.nbytes = nbytes
        nframes = -(-nbytes // PAGE_SIZE)  # ceil division
        self.gpfn_start = address_space.extend(nframes).start
        self.label = label

    @property
    def nframes(self) -> int:
        return -(-self.nbytes // PAGE_SIZE)

    def frames(self) -> List[PageFrame]:
        return [
            self.address_space.translate(self.gpfn_start + i)
            for i in range(self.nframes)
        ]

    def __repr__(self) -> str:
        return (
            f"<Buffer dom{self.address_space.domid} gpfn={self.gpfn_start} "
            f"len={self.nbytes} {self.label!r}>"
        )


class ReadOnlyView:
    """Read-only proxy over a page's content object (foreign mapping)."""

    __slots__ = ("_target",)

    def __init__(self, target: Any) -> None:
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_set") or name.startswith("set_"):
            raise HypervisorError(
                f"read-only foreign mapping: cannot call {name!r}"
            )
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        raise HypervisorError("read-only foreign mapping: cannot write")

    def __repr__(self) -> str:
        return f"<ReadOnlyView of {object.__getattribute__(self, '_target')!r}>"
