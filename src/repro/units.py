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


def format_bytes(nbytes: int) -> str:
    """Human-readable size (power-of-two units, as the paper uses)."""
    if nbytes >= GiB and nbytes % GiB == 0:
        return f"{nbytes // GiB}GB"
    if nbytes >= MiB and nbytes % MiB == 0:
        return f"{nbytes // MiB}MB"
    if nbytes >= KiB and nbytes % KiB == 0:
        return f"{nbytes // KiB}KB"
    return f"{nbytes}B"
