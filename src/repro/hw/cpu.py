"""Physical CPU model.

A PCPU is a passive description (identity + frequency); time-sharing
behaviour lives in the credit scheduler (:mod:`repro.xen.credit`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class PCPU:
    """One physical core.

    Attributes
    ----------
    cpu_id:
        Index of the core within its host.
    freq_hz:
        Core frequency; the testbed's hosts are 1.86 GHz and 2.66 GHz
        Xeons (paper §VII).
    """

    cpu_id: int
    freq_hz: float = 1.86e9

    def __post_init__(self) -> None:
        if self.cpu_id < 0:
            raise ConfigError(f"cpu_id must be >= 0, got {self.cpu_id}")
        if self.freq_hz <= 0:
            raise ConfigError(f"freq_hz must be > 0, got {self.freq_hz}")

    def __repr__(self) -> str:
        return f"<PCPU {self.cpu_id} @ {self.freq_hz / 1e9:.2f}GHz>"
