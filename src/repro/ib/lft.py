"""Linear Forwarding Tables.

An IBA switch forwards a packet by indexing its LFT with the packet's
DLID; the entry is a *physical* output port number.  Physical ports are
1-based — port 0 is the switch's internal management port and never
appears in a data LFT.

The table is a dense list indexed by ``dlid - 1`` (LID 0 is reserved),
exactly how the Subnet Manager programs real switches (LinearFDBs).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["LinearForwardingTable"]


class LinearForwardingTable:
    """Dense DLID → physical-port map for one switch."""

    __slots__ = ("_ports", "num_physical_ports")

    def __init__(
        self,
        entries: Sequence[int],
        num_physical_ports: int,
        *,
        _validated: bool = False,
    ):
        """``entries[lid - 1]`` is the physical (1-based) output port.

        ``num_physical_ports`` is the count of external ports (the
        paper's m); valid entries are ``1 … num_physical_ports``.
        """
        if num_physical_ports < 1:
            raise ValueError(f"need at least one port, got {num_physical_ports}")
        ports = list(entries)
        if not _validated:
            for i, port in enumerate(ports):
                if not 1 <= port <= num_physical_ports:
                    raise ValueError(
                        f"LFT entry for LID {i + 1} is port {port}, outside "
                        f"[1, {num_physical_ports}]"
                    )
        self._ports: List[int] = ports
        self.num_physical_ports = num_physical_ports

    @classmethod
    def from_zero_based(
        cls, entries: Iterable[int], num_physical_ports: int
    ) -> "LinearForwardingTable":
        """Build from the paper's 0-based ``k`` ports (shifts by +1).

        This is the Subnet Manager's programming path: validation is a
        single vectorized range check instead of the per-entry loop
        (which dominates LFT construction on large fabrics).  Accepts
        any integer iterable, read in one C-level pass; an ndarray (a
        row of the scheme's port matrix, or the fault kernel's repaired
        rows) is converted without per-element iteration.
        """
        if isinstance(entries, np.ndarray):
            arr = entries.astype(np.int64)
        else:
            arr = np.fromiter(entries, dtype=np.int64)
        arr += 1
        bad = (arr < 1) | (arr > num_physical_ports)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"LFT entry for LID {i + 1} is port {int(arr[i])}, outside "
                f"[1, {num_physical_ports}]"
            )
        return cls(arr.tolist(), num_physical_ports, _validated=True)

    def as_array(self) -> np.ndarray:
        """The table as a read-only int64 array (``[dlid - 1] -> port``).

        Built on each call, so the table holds one copy of its entries;
        this is what :meth:`repro.core.kernel.RouteKernel.from_lfts`
        stacks into the next-hop port matrix.
        """
        arr = np.asarray(self._ports, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def lookup(self, dlid: int) -> int:
        """Physical output port for ``dlid``; raises ``KeyError`` for
        LIDs outside the programmed range (the real switch would drop)."""
        idx = dlid - 1
        if not 0 <= idx < len(self._ports):
            raise KeyError(f"DLID {dlid} not present in forwarding table")
        return self._ports[idx]

    def __getitem__(self, dlid: int) -> int:
        """Index by DLID — ``lft[dlid]`` is :meth:`lookup`."""
        return self.lookup(dlid)

    def __len__(self) -> int:
        return len(self._ports)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearForwardingTable):
            return NotImplemented
        return (
            self._ports == other._ports
            and self.num_physical_ports == other.num_physical_ports
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearForwardingTable({len(self._ports)} LIDs)"
