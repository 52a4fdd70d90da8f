"""Memory regions: registered, pinned, key-protected buffers."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.errors import ProtectionFault
from repro.hw.memory import Buffer

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


class Access(enum.Flag):
    """IB access flags (subset relevant to the benchmark)."""

    LOCAL_READ = enum.auto()
    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()

    @classmethod
    def full(cls) -> "Access":
        return (
            cls.LOCAL_READ | cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE
        )


class MemoryRegion:
    """A registered buffer with its protection keys.

    Registration pins the underlying pages (the HCA DMAs directly into
    them — paper §III) and installs a TPT entry indexed by the keys.
    """

    __slots__ = ("buffer", "lkey", "rkey", "access", "domid", "valid")

    def __init__(
        self, buffer: Buffer, lkey: int, rkey: int, access: Access, domid: int
    ) -> None:
        self.buffer = buffer
        self.lkey = lkey
        self.rkey = rkey
        self.access = access
        self.domid = domid
        self.valid = True

    @property
    def nbytes(self) -> int:
        return self.buffer.nbytes

    def check_range(self, offset: int, length: int) -> None:
        """Validate an access window against the region bounds."""
        if not self.valid:
            raise ProtectionFault("access to deregistered memory region")
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise ProtectionFault(
                f"range [{offset}, {offset + length}) outside MR of {self.nbytes}B"
            )

    def __repr__(self) -> str:
        return (
            f"<MR dom{self.domid} lkey={self.lkey:#x} rkey={self.rkey:#x} "
            f"len={self.nbytes}>"
        )
