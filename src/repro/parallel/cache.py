"""Content-addressed on-disk cache for sweep cell results.

A sweep cell is one (scenario, seed, config) simulation.  Every cell
is deterministic — same inputs, bit-identical outputs — so its result
can be addressed purely by content: the cache key is a SHA-256 over a
*canonical* JSON encoding of ``(repro version, job kind, scenario
name, seed, scenario kwargs)``.  Re-running a sweep after an edit that
does not change those inputs is a pure cache hit; bumping the package
version, changing any kwarg, or changing a seed changes the key and
forces a recompute.

Design points:

* **Canonical encoding.**  Scenario kwargs are arbitrary small object
  graphs (``BenchExConfig`` dataclasses, pricing-policy instances,
  fault campaigns...).  :func:`canonical` lowers them to a JSON value
  deterministically: dataclasses become ``{"__dataclass__": qualname,
  fields...}``, plain objects become their qualified name plus their
  ``__dict__``, mappings are key-sorted at dump time.  Anything it
  cannot encode faithfully (lambdas, open handles) raises
  :class:`Uncacheable` and the engine simply runs that cell uncached —
  a correctness-preserving degradation, never a wrong hit.
* **Bit-exact round-trip.**  Python's ``json`` writes floats with
  ``repr`` (shortest round-trip form) and parses ``Infinity``/``NaN``
  constants, so cached metric values compare equal to freshly computed
  ones — the serial-equals-parallel contract survives the cache.
* **Sealed, atomic entries.**  An entry is a sealed document
  (:func:`repro.durable.write_sealed`) replaced atomically, so sweeps
  sharing a cache directory never observe a torn file.  An entry that
  fails verification (JSON, schema tag, digest) is treated as a miss,
  **deleted** (so it cannot re-trip every future sweep) and reported
  through :attr:`ResultCache.on_corruption` — never a crash, never a
  wrong hit.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pathlib
from typing import Any, Callable, Dict, Optional

from repro._version import __version__
from repro.durable import canonical_digest, read_sealed, write_sealed
from repro.errors import CacheCorruption, Uncacheable

#: Entry schema tag; bump when the stored document shape changes.
#: Entries under any other tag fail verification and are dropped.
CELL_SCHEMA = "repro-cell/2"

#: The tag hashed into every cell address: it names the addressing
#: scheme, so entry schema bumps keep every address.
_KEY_SCHEMA = "repro-cell/1"

#: Spec knobs that change how a cell *executes*, never what it
#: computes, and are therefore excluded from its content address.
#: ``shards`` partitions a cluster cell across workers bit-identically
#: (:mod:`repro.sim.shard`), so a warm entry written by a serial run
#: must hit for a sharded one and vice versa; ``coalesce`` only picks
#: how many lookahead windows ride one barrier (execution shape, same
#: bytes), so it is equally address-neutral.  The checkpoint knobs
#: (:mod:`repro.sim.checkpoint`) are likewise execution-only: a cell
#: restored from a barrier checkpoint replays to byte-identical
#: metrics, so where (or whether) it journals cannot move its address.
EXECUTION_ONLY_KEYS = frozenset(
    {"shards", "coalesce", "checkpoint_dir", "checkpoint_every", "restore"}
)

__all__ = [
    "CELL_SCHEMA",
    "EXECUTION_ONLY_KEYS",
    "ResultCache",
    "Uncacheable",
    "canonical",
    "cell_key",
    "uncanonical",
]


def canonical(obj: Any) -> Any:
    """Lower ``obj`` to a deterministic JSON-encodable value.

    Raises :class:`Uncacheable` for values whose identity cannot be
    captured by content (callables, modules, objects without state).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        out: Dict[str, Any] = {}
        for k, v in obj.items():
            if not isinstance(k, (str, int, bool)) and k is not None:
                raise Uncacheable(f"mapping key {k!r} is not canonicalizable")
            out[str(k)] = canonical(v)
        return out
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    # numpy scalars (np.float64 etc.) expose item(); avoid importing
    # numpy here so the cache stays dependency-light.
    item = getattr(obj, "item", None)
    if callable(item) and type(obj).__module__.startswith("numpy"):
        return canonical(obj.item())
    if callable(obj):
        raise Uncacheable(f"callable {obj!r} has no canonical encoding")
    state = getattr(obj, "__dict__", None)
    if state is not None:
        cls = type(obj)
        return {
            "__object__": f"{cls.__module__}.{cls.__qualname__}",
            "state": canonical(state),
        }
    raise Uncacheable(f"value {obj!r} of type {type(obj)} is not canonicalizable")


def _resolve_qualname(qualname: str) -> type:
    """``module.Qual.Name`` -> the class object, or raise CacheCorruption."""
    module_name, _, attr_path = qualname.rpartition(".")
    # Qualnames may nest (Outer.Inner); peel module segments until an
    # importable module is found, then getattr down the remainder.
    parts = qualname.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj: Any = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            break
        if isinstance(obj, type):
            return obj
        break
    raise CacheCorruption(f"cannot resolve stored type {qualname!r}")


def uncanonical(value: Any) -> Any:
    """Rebuild a Python value from its :func:`canonical` encoding.

    The inverse used by run-manifest replay: tagged dataclass/object
    documents are re-instantiated by qualified name.  Lossy only where
    ``canonical`` is (tuples come back as lists, non-string mapping
    keys come back as strings); raises :class:`CacheCorruption` when a
    stored type no longer resolves.
    """
    if isinstance(value, list):
        return [uncanonical(v) for v in value]
    if not isinstance(value, dict):
        return value
    if "__dataclass__" in value:
        cls = _resolve_qualname(value["__dataclass__"])
        fields = {k: uncanonical(v) for k, v in value.get("fields", {}).items()}
        init_names = {
            f.name for f in dataclasses.fields(cls) if f.init
        }
        try:
            return cls(**{k: v for k, v in fields.items() if k in init_names})
        except TypeError as exc:
            raise CacheCorruption(
                f"cannot rebuild dataclass {cls.__qualname__}: {exc}"
            ) from None
    if "__object__" in value:
        cls = _resolve_qualname(value["__object__"])
        obj = cls.__new__(cls)
        state = value.get("state", {})
        if not isinstance(state, dict):
            raise CacheCorruption(
                f"stored object state for {cls.__qualname__} is not a mapping"
            )
        obj.__dict__.update({k: uncanonical(v) for k, v in state.items()})
        return obj
    return {k: uncanonical(v) for k, v in value.items()}


def cell_key(
    kind: str,
    name: str,
    seed: int,
    spec: Dict[str, Any],
    version: str = __version__,
) -> str:
    """The content address (SHA-256 hex digest) of one sweep cell.

    Execution-only knobs (:data:`EXECUTION_ONLY_KEYS`) are stripped
    before hashing — they select *how* the cell runs, not what it
    computes.  Raises :class:`Uncacheable` when ``spec`` cannot be
    encoded.
    """
    doc = {
        "schema": _KEY_SCHEMA,
        "version": version,
        "kind": kind,
        "name": name,
        "seed": seed,
        "spec": canonical(
            {k: v for k, v in spec.items() if k not in EXECUTION_ONLY_KEYS}
        ),
    }
    return canonical_digest(doc)


class ResultCache:
    """Content-addressed result store rooted at one directory.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out keeps
    directory listings sane for multi-thousand-cell sweeps).
    """

    def __init__(
        self,
        root,
        version: str = __version__,
        on_corruption: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.version = version
        self.root.mkdir(parents=True, exist_ok=True)
        #: Called as ``on_corruption(key, reason)`` whenever a corrupt
        #: entry is dropped; defaults to a logger warning (the sweep
        #: engine wires a telemetry emitter in).
        self.on_corruption = on_corruption
        #: Corrupt entries dropped over this cache's lifetime.
        self.corrupt_dropped = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def key(self, kind: str, name: str, seed: int, spec: Dict[str, Any]) -> Optional[str]:
        """The cell's content address, or ``None`` when uncacheable."""
        try:
            return cell_key(kind, name, seed, spec, version=self.version)
        except Uncacheable:
            return None

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored metrics payload, or ``None`` on miss/corruption.

        A genuinely absent entry is a plain miss.  An entry that exists
        but does not verify — unreadable, truncated/invalid JSON, wrong
        schema, digest mismatch — is *deleted* and reported through
        :attr:`on_corruption`, then treated as a miss: the cell
        recomputes and the rewritten entry heals the cache.
        """
        path = self._path(key)
        try:
            return read_sealed(path, CELL_SCHEMA, "metrics", CacheCorruption)
        except CacheCorruption as exc:
            self._drop_corrupt(path, key, str(exc))
            return None

    def _drop_corrupt(self, path: pathlib.Path, key: str, reason: str) -> None:
        try:
            os.unlink(path)
        except OSError:  # already gone or unremovable: miss either way
            pass
        self.corrupt_dropped += 1
        if self.on_corruption is not None:
            self.on_corruption(key, reason)
        else:
            from repro.telemetry import get_logger

            get_logger().warning(
                f"dropped corrupt cache entry {key[:12]}...: {reason}"
            )

    def store(self, key: str, metrics: Dict[str, Any]) -> None:
        """Atomically persist ``metrics`` under ``key``."""
        write_sealed(self._path(key), CELL_SCHEMA, "metrics", metrics)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:
        return f"<ResultCache {str(self.root)!r} version={self.version}>"
