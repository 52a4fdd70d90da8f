"""Barrier-aligned checkpoint/restore for the sharded runtime.

At a barrier every shard is quiescent at a window boundary: local heaps
hold only future work, and every cross-shard message in flight has been
drained into the parent's routing step.  That makes the barrier the one
instant where the whole partitioned world has a consistent cut — and,
because the runtime is deterministic, the cut does not need to capture
the worlds themselves.  A shard's trajectory is a pure function of its
build inputs and the ordered sequence of parent->worker frames it has
ingested (strides piggybacked on inbox batches — see the pipe protocol
in :mod:`repro.sim.shard`).  So the checkpoint records the *replay
journal*: every frame the parent has sent to each shard, plus a digest
of every frame each shard has sent back.  Restoring (or respawning a
crashed worker mid-run) rebuilds the shard from scratch and replays the
journal in lockstep, verifying at each exchange that the regenerated
outbox frame matches the recorded digest — any divergence means the
build is not deterministic, which is a contract violation worth
aborting on, not papering over.

This is deliberately *not* a pickle of the live worlds: a shard's event
heap holds :class:`~repro.sim.events.Event` callbacks that close over
running generators, which CPython cannot serialize.  The journal is
smaller, format-stable, and — crucially — the restored run is
byte-identical to an uninterrupted one because the workers re-execute
the exact event sequence rather than resuming from a best-effort
facsimile.

On-disk format (``ckpt/1``)::

    b"RXC1" + sha256(body) [32 bytes] + body (pickled payload dict)

Files are written atomically (:func:`repro.durable.atomic_write`) and
named ``ckpt-<windows:08d>-<digest12>.rxc`` — content-addressed, so a
torn or doubled write can never alias a good checkpoint.  Every file is
self-contained (the full journal from t=0), so falling back from a
damaged newest file to the next-older one loses progress, never
consistency.  :func:`load_checkpoint` rejects corruption with a
structured :class:`~repro.errors.CheckpointError`;
:func:`load_latest` walks newest-to-oldest past damaged files.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.durable import atomic_write
from repro.errors import CheckpointError, ConfigError

__all__ = [
    "CKPT_MAGIC",
    "CKPT_SCHEMA",
    "CheckpointConfig",
    "RecoveryPolicy",
    "ShardJournal",
    "checkpoint_payload",
    "journal_from_payload",
    "list_checkpoints",
    "load_checkpoint",
    "load_latest",
    "save_checkpoint",
    "validate_restore",
]

#: Schema identifier carried inside every checkpoint payload.
CKPT_SCHEMA = "ckpt/1"
#: Leading magic of every checkpoint file.
CKPT_MAGIC = b"RXC1"
_DIGEST_LEN = 32
_SUFFIX = ".rxc"


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often the sharded runtime cuts barrier checkpoints.

    ``every`` is a cadence in *barriers* (actual exchanges, not logical
    windows — under elision a single barrier may cover a large stride,
    and only barriers are consistent cuts).  ``keep`` bounds the number
    of files retained; older ones are pruned after each write, always
    leaving at least one fallback behind the newest.
    """

    dir: Union[str, Path]
    every: int = 8
    keep: int = 3

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ConfigError(
                f"checkpoint cadence must be >= 1 barrier, got {self.every}"
            )
        if self.keep < 1:
            raise ConfigError(
                f"checkpoint retention must be >= 1 file, got {self.keep}"
            )

    @property
    def path(self) -> Path:
        return Path(self.dir)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Respawn budget and backoff for in-run worker recovery.

    ``max_respawns`` bounds attempts *per shard*; a shard that keeps
    dying exhausts its budget and the run falls back to the terminal
    :class:`~repro.errors.ShardSyncError` it would have raised without
    recovery.  The backoff is a pure function of
    ``(backoff_seed, shard, attempt)`` — the same seeded-jitter
    discipline as :meth:`repro.supervise.SupervisePolicy.backoff_s` —
    so two runs of the same campaign recover on the same schedule.
    """

    max_respawns: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ConfigError(
                f"max_respawns must be >= 0, got {self.max_respawns}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff times must be >= 0")

    def backoff_s(self, shard: int, attempt: int) -> float:
        """Deterministic jittered delay before respawn ``attempt``
        (1-based) of ``shard``."""
        base = min(
            self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_cap_s
        )
        seed = hashlib.sha256(
            f"{self.backoff_seed}:{shard}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(seed[:8], "big") / 2**64
        return base * (0.5 + jitter)


class ShardJournal:
    """The parent-side replay log of one sharded run.

    Per shard, in exchange order: the raw bytes of every parent->worker
    frame (everything a respawned worker needs to re-ingest), and the
    SHA-256 of every worker->parent barrier frame (what the replay
    verifies the rebuilt worker regenerates).  Appends happen *before*
    the corresponding pipe write, so a send that fails halfway is
    already journaled and the replay leaves the respawned worker in
    exactly the state the parent believes it is in.
    """

    __slots__ = ("shards", "frames", "digests")

    def __init__(self, shards: int) -> None:
        self.shards = int(shards)
        self.frames: List[List[bytes]] = [[] for _ in range(shards)]
        self.digests: List[List[str]] = [[] for _ in range(shards)]

    def record_worker_frame(self, shard: int, frame: bytes) -> None:
        self.digests[shard].append(hashlib.sha256(frame).hexdigest())

    def record_parent_frame(self, shard: int, frame: bytes) -> None:
        self.frames[shard].append(frame)

    def exchanges(self, shard: int) -> int:
        return len(self.frames[shard])


def checkpoint_payload(
    *,
    world_key: str,
    k: int,
    stride: int,
    until_ns: int,
    lookahead_ns: int,
    n_domains: int,
    shards: int,
    coalesce: bool,
    stats: Dict[str, Any],
    journal: ShardJournal,
    shard_map: Optional[Sequence[Sequence[int]]] = None,
) -> Dict[str, Any]:
    """The self-contained resume state written at one barrier.

    ``k`` is the next window index and ``stride`` the stride already
    piggybacked to the workers — together with the journal they are the
    complete parent-side loop state at a barrier.  ``shard_map`` is
    every shard's domains, in shard order: a journal replays only into
    shards that own the same domains.
    """
    payload = {
        "schema": CKPT_SCHEMA,
        "world_key": world_key,
        "k": int(k),
        "stride": int(stride),
        "until_ns": int(until_ns),
        "lookahead_ns": int(lookahead_ns),
        "n_domains": int(n_domains),
        "shards": int(shards),
        "coalesce": bool(coalesce),
        "stats": dict(stats),
        "journal_frames": [list(per) for per in journal.frames],
        "journal_digests": [list(per) for per in journal.digests],
    }
    if shard_map is not None:
        payload["shard_map"] = [list(block) for block in shard_map]
    return payload


def journal_from_payload(payload: Dict[str, Any]) -> ShardJournal:
    """Rebuild the replay journal a checkpoint payload carries."""
    frames = payload["journal_frames"]
    digests = payload["journal_digests"]
    shards = int(payload["shards"])
    if len(frames) != shards or len(digests) != shards:
        raise CheckpointError(
            f"checkpoint journal covers {len(frames)} shard(s), "
            f"payload says {shards}"
        )
    lengths = {len(per) for per in frames} | {len(per) for per in digests}
    if len(lengths) > 1:
        raise CheckpointError(
            f"checkpoint journal is ragged (per-shard exchange counts "
            f"{sorted(lengths)}); strides are global, so a consistent "
            "barrier cut has one count"
        )
    journal = ShardJournal(shards)
    journal.frames = [list(per) for per in frames]
    journal.digests = [list(per) for per in digests]
    return journal


def validate_restore(
    payload: Dict[str, Any],
    *,
    world_key: str,
    shards: int,
    n_domains: int,
    until_ns: int,
    lookahead_ns: int,
    coalesce: bool,
    n_windows: int,
    shard_map: Optional[Sequence[Sequence[int]]] = None,
) -> None:
    """Reject a checkpoint that does not describe *this* run.

    Geometry and horizon must match exactly: a journal recorded under a
    different lookahead, shard count or domain-to-shard map replays a
    different message stream, and restoring it would silently break the
    determinism contract the checkpoint exists to preserve.  A payload
    that predates the recorded map was written under the count split
    (sizes differing by at most one, larger shards first).
    """
    expect = {
        "world_key": world_key,
        "shards": int(shards),
        "n_domains": int(n_domains),
        "until_ns": int(until_ns),
        "lookahead_ns": int(lookahead_ns),
        "coalesce": bool(coalesce),
    }
    if shard_map is not None:
        expect["shard_map"] = [list(block) for block in shard_map]
    for key, want in expect.items():
        got = payload.get(key)
        if key == "shard_map" and got is None:
            # Checked last, so the file's geometry already matches.
            from repro.sim.shard import ShardMap  # imports this module

            legacy = ShardMap(n_domains, shards)
            got = [list(block) for block in legacy.blocks()]
        if got != want:
            raise CheckpointError(
                f"checkpoint does not match this run: {key} is {got!r} "
                f"in the file, {want!r} here"
            )
    k = int(payload["k"])
    if not 0 <= k <= n_windows:
        raise CheckpointError(
            f"checkpoint window index {k} is outside this run's "
            f"{n_windows} windows"
        )


def save_checkpoint(
    config: CheckpointConfig, payload: Dict[str, Any]
) -> Path:
    """Atomically write ``payload`` as a ``ckpt/1`` file; prune old ones.

    The body digest is both the integrity stamp and part of the file
    name, so concurrent or repeated writes of the same barrier state
    converge on one file and a torn write can only ever produce a file
    that fails validation — never one that aliases a good checkpoint.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    name = f"ckpt-{int(payload['k']):08d}-{digest.hex()[:12]}{_SUFFIX}"
    final = config.path / name
    atomic_write(final, CKPT_MAGIC + digest + body)
    _prune(config.path, config.keep)
    return final


def _prune(directory: Path, keep: int) -> None:
    files = list_checkpoints(directory)
    for stale in files[:-keep]:
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - racing cleanup is fine
            pass


def list_checkpoints(directory: Union[str, Path]) -> List[Path]:
    """Checkpoint files in ``directory``, oldest first.

    The window index is zero-padded in the name, so lexicographic order
    is barrier order.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p for p in directory.iterdir()
        if p.name.startswith("ckpt-") and p.name.endswith(_SUFFIX)
    )


def load_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Read + validate one checkpoint file.

    Raises :class:`CheckpointError` on a bad magic, truncated body,
    digest mismatch, undecodable payload or wrong schema — every
    corruption shape the property tests enumerate.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    head = len(CKPT_MAGIC) + _DIGEST_LEN
    if len(blob) < head:
        raise CheckpointError(
            f"checkpoint {path.name} truncated: {len(blob)} bytes is "
            f"shorter than the {head}-byte header"
        )
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError(
            f"checkpoint {path.name} has bad magic "
            f"{blob[:len(CKPT_MAGIC)]!r} (want {CKPT_MAGIC!r})"
        )
    digest = blob[len(CKPT_MAGIC): head]
    body = blob[head:]
    actual = hashlib.sha256(body).digest()
    if actual != digest:
        raise CheckpointError(
            f"checkpoint {path.name} failed its digest check "
            f"(stamped {digest.hex()[:12]}, body {actual.hex()[:12]}); "
            "the file is corrupt or was torn mid-write"
        )
    try:
        payload = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path.name} body does not decode: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("schema") != CKPT_SCHEMA:
        got = payload.get("schema") if isinstance(payload, dict) else payload
        raise CheckpointError(
            f"checkpoint {path.name} carries schema {got!r} "
            f"(want {CKPT_SCHEMA!r})"
        )
    return payload


def load_latest(
    directory: Union[str, Path],
    *,
    world_key: Optional[str] = None,
    on_skip: Optional[Callable[[Path, str], None]] = None,
) -> Optional[Tuple[Dict[str, Any], Path]]:
    """The newest usable checkpoint in ``directory``, or ``None``.

    Walks newest-to-oldest, skipping files that fail validation (each
    skip is reported through ``on_skip``) — a damaged newest file costs
    the barriers since the next-older one, nothing more.  A checkpoint
    recorded for a *different* world is not damage: a ``world_key``
    mismatch raises :class:`CheckpointError` immediately, because every
    other file in that directory describes the same wrong world and
    silently restarting from zero would mask the operator error.
    Returns ``None`` when the directory is empty or absent; raises when
    files exist but none validates.
    """
    files = list_checkpoints(directory)
    if not files:
        return None
    last_error: Optional[CheckpointError] = None
    for path in reversed(files):
        try:
            payload = load_checkpoint(path)
        except CheckpointError as exc:
            last_error = exc
            if on_skip is not None:
                on_skip(path, str(exc))
            continue
        if world_key is not None and payload["world_key"] != world_key:
            raise CheckpointError(
                f"checkpoint {path.name} was recorded for world "
                f"{payload['world_key']!r}, not {world_key!r}; refusing "
                "to restore across worlds"
            )
        return payload, path
    raise CheckpointError(
        f"no usable checkpoint in {directory}: all {len(files)} file(s) "
        f"failed validation (last: {last_error})"
    )
