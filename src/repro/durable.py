"""Crash-safe file writes.

:func:`atomic_write` leaves either the old file or the complete new one
under the final name, never a torn mix: the bytes go to a temp file in
the target directory (same filesystem, so the rename is atomic), are
fsynced, and the temp file is ``os.replace``d onto the final name.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = ["atomic_write"]


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
