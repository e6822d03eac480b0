"""IBA VL arbitration tables (InfiniBand spec §7.6.9, simplified).

The paper's transmitters arbitrate VLs round-robin.  Real IBA ports
carry a *VLArbitration* attribute: a high-priority and a low-priority
table of (VL, weight) entries plus a high-priority limit.  Weights are
in units of 64 bytes; an entry lets its VL transmit until the weight is
exhausted or the VL runs dry, then arbitration advances.

This module implements the low-priority table faithfully enough for
QoS experiments (ablation A8): strict table order, 64-byte weight
units, weight carry per entry.  The high-priority table and its limit
are not modelled: ``SimConfig`` configures weights only
(``vl_weights``), so every table is a low-priority one.  The paper's
plain round-robin remains the default (``SimConfig.vl_arbitration ==
"roundrobin"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

__all__ = [
    "WEIGHT_UNIT_BYTES",
    "VlArbEntry",
    "VlArbitrationTable",
    "WeightedVlArbiter",
]

#: IBA weights are in units of 64 bytes.
WEIGHT_UNIT_BYTES = 64
#: IBA weight field is 8 bits.
MAX_WEIGHT = 255


@dataclass(frozen=True)
class VlArbEntry:
    """One (VL, weight) slot of an arbitration table."""

    vl: int
    weight: int

    def __post_init__(self) -> None:
        if self.vl < 0:
            raise ValueError(f"vl must be non-negative, got {self.vl}")
        if not 0 <= self.weight <= MAX_WEIGHT:
            raise ValueError(
                f"weight must be in [0, {MAX_WEIGHT}], got {self.weight}"
            )


@dataclass(frozen=True)
class VlArbitrationTable:
    """The low-priority entry list of one port's VLArbitration."""

    low: Tuple[VlArbEntry, ...]

    def __post_init__(self) -> None:
        if not self.low:
            raise ValueError("arbitration table needs at least one entry")

    @classmethod
    def from_weights(cls, weights: Sequence[int]) -> "VlArbitrationTable":
        """Low-priority table with ``weights[vl]`` per VL (0 skips)."""
        entries = tuple(
            VlArbEntry(vl, w) for vl, w in enumerate(weights) if w > 0
        )
        return cls(low=entries)


class WeightedVlArbiter:
    """IBA-style weighted VL arbiter over one table.

    Drop-in replacement for the transmitter's round-robin ``_pick_vl``:
    ``pick(ready)`` returns the VL to send (or -1), ``charge(vl,
    nbytes)`` accounts a transmitted packet.  The cursor is the active
    entry plus its remaining weight units.
    """

    __slots__ = ("entries", "index", "remaining")

    def __init__(self, table: VlArbitrationTable):
        self.entries = table.low
        self.index = 0
        self.remaining = self.entries[0].weight

    def pick(self, ready: Callable[[int], bool]) -> int:
        """Next sendable VL per table order, or -1.

        The active entry keeps transmitting while it has weight and
        data; otherwise arbitration advances (recharging each entry's
        weight as it becomes active).
        """
        count = len(self.entries)
        for step in range(count):
            idx = (self.index + step) % count
            entry = self.entries[idx]
            if step > 0:
                # Advancing recharges the newly active entry.
                self.index = idx
                self.remaining = entry.weight
            if self.remaining > 0 and entry.weight > 0 and ready(entry.vl):
                return entry.vl
        # Full lap without a sendable VL: recharge the entry after the
        # original position so progress resumes immediately next time.
        self.index = (self.index + 1) % count
        self.remaining = self.entries[self.index].weight
        return -1

    def charge(self, vl: int, nbytes: int) -> None:
        """Deduct a transmitted packet from the active entry."""
        units = max(1, (nbytes + WEIGHT_UNIT_BYTES - 1) // WEIGHT_UNIT_BYTES)
        self.remaining -= units
        if self.remaining <= 0:
            self.index = (self.index + 1) % len(self.entries)
            self.remaining = self.entries[self.index].weight
