"""Deterministic random-number stream management.

Every stochastic component draws from its own named child stream of a
single root seed, so adding a new component never perturbs the draws of
existing ones — a standard reproducibility discipline for parallel /
multi-component simulations.
"""

from __future__ import annotations

import hashlib
from typing import Dict

# numpy loads ``numpy.random`` on first attribute access.  Importing it
# here puts it in every process that builds a world, so forked sweep
# and shard workers inherit it instead of each importing it again.
from numpy.random import Generator, SeedSequence, default_rng


class RngRegistry:
    """Hands out independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, Generator] = {}

    def stream(self, name: str) -> Generator:
        """Return the generator for ``name``, creating it on first use.

        The child seed is derived by hashing (root_seed, name), so the
        mapping is stable across runs and insertion orders.
        """
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode("utf-8")
            ).digest()
            child = int.from_bytes(digest[:8], "little")
            self._streams[name] = default_rng(
                SeedSequence([self.root_seed, child])
            )
        return self._streams[name]

    def spawn(self, name: str) -> "RngRegistry":
        """Derive a sub-registry (e.g. per-host) with an independent root."""
        digest = hashlib.sha256(
            f"{self.root_seed}/registry:{name}".encode("utf-8")
        ).digest()
        return RngRegistry(int.from_bytes(digest[:8], "little"))

    def __repr__(self) -> str:
        return f"<RngRegistry seed={self.root_seed} streams={len(self._streams)}>"
