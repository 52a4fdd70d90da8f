"""Crash-safe file writes, content digests and worker lifetimes.

:func:`atomic_write` leaves either the old file or the complete new one
under the final name, never a torn mix: the bytes go to a temp file in
the target directory (same filesystem, so the rename is atomic), are
fsynced, and the temp file is ``os.replace``d onto the final name.

:func:`canonical_digest` is the content identity of a JSON document,
shared by the result cache's keys, the run manifest's result digests
and world-snapshot files.

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
from typing import Any, Union

__all__ = ["atomic_write", "canonical_digest", "die_with_parent"]

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
