"""The Single LID (SLID) baseline scheme (Section 5 of the paper).

Each processing node gets exactly one LID, ``PID + 1`` (LMC = 0; LID 0
is reserved by IBA).  Forwarding tables are built "based on the
consideration of evenly distributing possible traffic over available
paths": the ascending port at level ``l`` is chosen by the
*destination's own label digit* ``p_l``, so

* distinct destinations spread across distinct root switches (the
  destination-rooted-tree construction of the paper's Figure 7, where
  destinations E, F, G, H ride through roots i, j, k, l), but
* **all** sources sending to one destination funnel through the *same*
  ascending ports — the congestion the MLID scheme removes.

Forwarding rule for DLID ``lid`` (destination ``P(p)``) at ``SW<w, l>``:

* destination below us (``w0…w_{l-1} = p0…p_{l-1}``): ``k = p_l``;
* otherwise: ``k = p_l + m/2``.

This is exactly the MLID Equation (2) specialized to LMC = 0, since
with one LID per node the offset digits collapse onto the destination
label digits, so the scheme reuses MLID's forwarding
(:class:`~repro.core.forwarding.FatTreeForwarding`) and keeps only its
own LID plan and path selection.  It takes nothing of MLID's
addressing, so MLID's IBA LMC ceiling does not apply: FT(32, 3) needs
LMC 8 > 7 under MLID and builds here at LMC 0.
"""

from __future__ import annotations

import numpy as np

from repro.core.forwarding import FatTreeForwarding
from repro.core.scheme import register_scheme
from repro.topology import groups
from repro.topology.labels import NodeLabel, validate_node_label

__all__ = ["SlidScheme"]


class SlidScheme(FatTreeForwarding):
    """The single-LID destination-deterministic baseline."""

    name = "slid"

    # -- LID plan ------------------------------------------------------
    @property
    def lmc(self) -> int:
        return 0

    def base_lid(self, node: NodeLabel) -> int:
        return groups.pid(self.ft.m, self.ft.n, node) + 1

    # -- path selection -------------------------------------------------
    def dlid(self, src: NodeLabel, dst: NodeLabel) -> int:
        validate_node_label(self.ft.m, self.ft.n, src)
        if src == dst:
            raise ValueError(f"no path selection for src == dst == {src!r}")
        return self.base_lid(dst)

    def _dlid_rows(self, src_ids: np.ndarray) -> np.ndarray:
        """Vectorized: the DLID is the destination's single LID."""
        count = self.ft.num_nodes
        out = np.tile(
            np.arange(1, count + 1, dtype=np.int64), (len(src_ids), 1)
        )
        out[np.arange(len(src_ids)), src_ids] = 0
        return out


register_scheme("slid", SlidScheme)
