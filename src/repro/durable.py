"""Crash-safe file writes, sealed records and worker lifetimes.

:func:`atomic_write` leaves either the old file or the complete new one
under the final name, never a torn mix: the bytes go to a temp file in
the target directory (same filesystem, so the rename is atomic), are
fsynced, and the temp file is ``os.replace``d onto the final name.

:func:`canonical_digest` is the content identity of a JSON document,
shared by the result cache's keys, the run manifest's result digests
and every sealed record.

A *sealed record*, ``{"schema": tag, "digest": canonical_digest(payload),
field: payload}``, is the one layout of every durable JSON file: one
record per file (:func:`write_sealed`/:func:`read_sealed`) or one per
line of an append-only log (:func:`append_record`/:func:`read_records`).
Every read verifies the JSON, the schema tag and the digest, and raises
the caller's typed error on a mismatch.

:func:`die_with_parent` ties a forked worker's life to its parent's, so
a killed run leaves no orphan behind.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import multiprocessing
import os
import signal
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type, Union

from repro.errors import ReproError

__all__ = [
    "append_record",
    "atomic_write",
    "canonical_digest",
    "die_with_parent",
    "read_records",
    "read_sealed",
    "write_sealed",
]

#: ``prctl`` option from ``<linux/prctl.h>``.
_PR_SET_PDEATHSIG = 1


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data``, creating its directory.

    The temp file is named ``.<name>.<random>.tmp``: hidden, so a scan
    for final names never sees a half-written file.  On any failure it
    is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def canonical_digest(doc: Any) -> str:
    """SHA-256 hex digest of ``doc``'s canonical JSON (sorted keys, no spaces).

    Digests are persisted (cache keys, manifest records, world files),
    so this encoding must never change.
    """
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _read(path: Union[str, Path], error: Type[ReproError]) -> Optional[bytes]:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _seal(schema: str, field: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"schema": schema, "digest": canonical_digest(payload), field: payload}


def _unseal(
    text: bytes, schema: str, field: str, error: Type[ReproError], where: str
) -> Dict[str, Any]:
    """Parse and verify one sealed record, raising ``error`` naming ``where``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise error(f"invalid JSON in {where}: {exc}") from None
    got = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
    if got != schema:
        raise error(f"schema mismatch in {where}: expected {schema!r}, got {got!r}")
    digest = canonical_digest(doc.get(field))
    if digest != doc.get("digest"):
        raise error(
            f"digest mismatch in {where}: stamped {str(doc.get('digest'))[:12]}"
            f"..., computed {digest[:12]}... (torn write or corruption)"
        )
    return doc[field]


def write_sealed(
    path: Union[str, Path], schema: str, field: str, payload: Dict[str, Any]
) -> str:
    """Atomically write ``payload`` as a sealed JSON document (key-sorted,
    two-space indent); returns the payload's digest."""
    doc = _seal(schema, field, payload)
    atomic_write(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())
    return doc["digest"]


def read_sealed(
    path: Union[str, Path], schema: str, field: str, error: Type[ReproError]
) -> Optional[Dict[str, Any]]:
    """The verified payload of the sealed document at ``path``, or
    ``None`` when it does not exist; any damage raises ``error``."""
    data = _read(path, error)
    return None if data is None else _unseal(data, schema, field, error, str(path))


def append_record(path: Union[str, Path], schema: str, record: Dict[str, Any]) -> None:
    """Append ``record`` to the log at ``path`` as one sealed line of
    compact canonical JSON: a single ``O_APPEND`` write, then fsync."""
    doc = _seal(schema, "record", record)
    line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
        os.fsync(fd)
    finally:
        os.close(fd)


def read_records(
    path: Union[str, Path], schema: str, error: Type[ReproError]
) -> Optional[Tuple[List[Dict[str, Any]], int]]:
    """The verified records of a sealed log and its torn-line count (0
    or 1), or ``None`` when the log does not exist.

    A line is a record only once its newline is on disk, so an
    unterminated last line is a write torn by a crash: it is dropped
    and counted.  A newline-terminated line that fails to verify was
    damaged after it was written and raises ``error`` naming its line.
    """
    data = _read(path, error)
    if data is None:
        return None
    *lines, tail = data.split(b"\n")
    records = [
        _unseal(line, schema, "record", error, f"{path} line {lineno}")
        for lineno, line in enumerate(lines, 1)
    ]
    return records, 1 if tail else 0


def die_with_parent() -> None:
    """Have the kernel SIGKILL this forked worker when its parent dies.

    A worker blocked on a pipe cannot see its parent die: its siblings
    hold inherited copies of the parent's pipe ends, so no EOF arrives.
    Linux's ``PR_SET_PDEATHSIG`` kills the worker instead, idle or
    mid-cell, so no orphan keeps writing heartbeats or checkpoints, and
    its own workers follow it.  A worker whose parent died before the
    request took hold exits at once.

    Linux is the supported platform for sweeps and fork shards.
    Elsewhere ``prctl`` does not exist and this is a no-op, so a worker
    whose parent is killed can outlive it.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    parent = multiprocessing.parent_process()
    if parent is not None and os.getppid() != parent.pid:
        os._exit(1)
