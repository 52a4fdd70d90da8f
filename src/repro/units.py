"""Unit constants and conversion helpers.

Simulation time is expressed in **integer nanoseconds** throughout the
code base.  Using integers keeps the event heap deterministic (no
floating-point tie-break jitter) and gives sub-microsecond resolution,
which is required because InfiniBand wire times are ~1 us per MTU.

Data sizes are expressed in **bytes** (plain ints).
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------
NS: int = 1
US: int = 1_000
MS: int = 1_000_000
SEC: int = 1_000_000_000

# --- data ------------------------------------------------------------------
BYTE: int = 1
KiB: int = 1_024
MiB: int = 1_024 * 1_024
GiB: int = 1_024 * 1_024 * 1_024


def ns_to_us(t_ns: int) -> float:
    """Convert integer nanoseconds to floating-point microseconds."""
    return t_ns / US


def us(value: float) -> int:
    """Microseconds -> integer nanoseconds (rounded)."""
    return round(value * US)


def ms(value: float) -> int:
    """Milliseconds -> integer nanoseconds (rounded)."""
    return round(value * MS)


def seconds(value: float) -> int:
    """Seconds -> integer nanoseconds (rounded)."""
    return round(value * SEC)


def gbps_to_bytes_per_sec(gbps: float) -> float:
    """Link signalling rate in Gbit/s -> payload bytes per second.

    Uses decimal giga for the bit rate (10 Gbps = 1e10 bit/s), matching
    how fabric vendors quote rates.
    """
    return gbps * 1e9 / 8.0


def wire_time_ns(nbytes: int, bytes_per_sec: float) -> int:
    """Time to serialise ``nbytes`` onto a link of ``bytes_per_sec``.

    Rounds up to a whole nanosecond so a transfer never completes in
    zero time.
    """
    if nbytes <= 0:
        return 0
    t = nbytes * SEC / bytes_per_sec
    it = int(t)
    return it + 1 if t > it else max(it, 1)


def format_duration(t_ns: int) -> str:
    """Human-readable duration for logs and bench tables."""
    if t_ns >= SEC:
        return f"{t_ns / SEC:.3f}s"
    if t_ns >= MS:
        return f"{t_ns / MS:.3f}ms"
    if t_ns >= US:
        return f"{t_ns / US:.3f}us"
    return f"{t_ns}ns"


def format_bytes(nbytes: int) -> str:
    """Human-readable size (power-of-two units, as the paper uses)."""
    if nbytes >= GiB and nbytes % GiB == 0:
        return f"{nbytes // GiB}GB"
    if nbytes >= MiB and nbytes % MiB == 0:
        return f"{nbytes // MiB}MB"
    if nbytes >= KiB and nbytes % KiB == 0:
        return f"{nbytes // KiB}KB"
    return f"{nbytes}B"
