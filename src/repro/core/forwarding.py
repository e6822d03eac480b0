"""The MLID forwarding-table assignment scheme (Section 4.3).

For a packet with DLID ``lid`` arriving at switch ``SW<w, l>`` of
IBFT(m, n), let ``P(p)`` be the node owning ``lid``
(``PID = (lid - 1) >> LMC``):

* **Case 1 — destination below us** (``w0…w_{l-1} = p0…p_{l-1}``):

  .. math:: k = p_l                                           \\tag{1}

* **Case 2 — destination not below us**:

  .. math:: k = \\left\\lfloor \\frac{lid - 1}{(m/2)^{n-1-l}}
            \\right\\rfloor \\bmod (m/2) + m/2                 \\tag{2}

Equation (2) reads successive base-(m/2) digits of ``lid - 1`` as the
packet climbs: at the leaf row (l = n-1) the least-significant digit of
the path offset, one digit higher per row.  Writing the offset as
``o``, the root reached by a full ascent is exactly ``SW<o, 0>`` when
``o`` is read as the root's base-(m/2) label — so distinct offsets give
link-disjoint ascents, and combined with the path-selection scheme a
packet turns downward exactly at the least common ancestor its source
selected.  Both facts are machine-verified in the test suite.

The rule reads only ``m``, ``n`` and the scheme's LMC, so it lives
once, in :class:`FatTreeForwarding` (a scalar ``output_port`` and one
closed form over arrays), shared by :class:`MlidScheme` and the SLID
baseline (:mod:`repro.core.slid`), which is this rule at LMC 0.

Deadlock freedom: every route produced is an up*/down* path of the
tree (ascending phase strictly before descending phase), so the channel
dependency graph is acyclic — also checked in
:mod:`repro.core.verification`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Tuple

import numpy as np

from repro.core.addressing import MlidAddressing
from repro.core.kernel import fabric_arrays
from repro.core.path_selection import select_dlid
from repro.core.scheme import RoutingScheme, register_scheme
from repro.topology.fattree import FatTree
from repro.topology.labels import NodeLabel, SwitchLabel

__all__ = ["FatTreeForwarding", "MlidScheme"]


class FatTreeForwarding(RoutingScheme):
    """Equations (1)/(2) over a scheme's own LID plan.

    The forwarding reads only the fabric's ``m``, ``n`` and the
    scheme's :attr:`lmc`, so MLID (LMC from the addressing scheme) and
    SLID (LMC 0, where Equation (2)'s offset digits are the
    destination's own label digits) share it.  Subclasses supply the
    LID plan and path selection.
    """

    def output_port(self, switch: SwitchLabel, lid: int) -> int:
        w, level = switch
        dest = self.owner(lid)  # validates lid range
        if w[:level] == dest[:level]:
            return dest[level]  # Equation (1): descend toward the leaf
        # Equation (2): ascend on the offset digit for this level.
        half = self.ft.half
        return (lid - 1) // half ** (self.ft.n - 1 - level) % half + half

    def _output_port_batch(
        self, switch_ids: np.ndarray, lids: np.ndarray
    ) -> np.ndarray:
        """Equations (1)/(2) for arbitrary (switch, DLID) pairs at once.

        With ``d = (m/2)^(n-1-l)`` at a level-``l`` switch and ``p`` the
        owner's PID, ``p // d`` holds the owner's label digits 0..l.
        Equation (1) applies when digits 0..l-1, ``p // d // (m/2)``,
        equal the switch's label prefix (at the root row always) and
        descends on digit ``l``; Equation (2) ascends on
        ``(lid - 1) // d mod (m/2) + m/2``.  ``m`` is a power of two, so
        each division is a shift.  Every temporary is one value per
        pair, so the flow model can hop-step millions of routes on
        fabrics whose tables would never fit in memory.
        """
        half = self.ft.half
        lids0 = lids - 1
        if lids0.size and (lids0.min() < 0 or lids0.max() >= self.num_lids):
            raise ValueError(f"LID must be in [1, {self.num_lids}]")
        bits = half.bit_length() - 1  # m/2 == 2**bits
        level_first, level_shift = self._levels
        level = fabric_arrays(self.ft).switch_level[switch_ids]
        shift = level_shift[level]  # d == 2**shift
        top = (lids0 >> self.lmc) >> shift
        root = level == 0
        # A switch's label value within its level (digit i weighs
        # (m/2)^(n-2-i)) floors to its level-l prefix.
        prefix = (switch_ids - level_first[level]) >> shift
        below = root | (top >> bits == prefix)
        down = np.where(root, top, top & (half - 1))
        return np.where(below, down, (lids0 >> shift & (half - 1)) + half)

    @cached_property
    def _levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per level ``l``: the id of its first switch (ids run level by
        level) and ``log2 (m/2)^(n-1-l)``, Equation (2)'s divisor."""
        ft = self.ft
        levels = np.arange(ft.n)
        first = np.searchsorted(fabric_arrays(ft).switch_level, levels)
        return first, (ft.half.bit_length() - 1) * (ft.n - 1 - levels)


class MlidScheme(FatTreeForwarding):
    """The paper's Multiple LID routing scheme."""

    name = "mlid"

    def __init__(self, ft: FatTree, *, strict_iba: bool = True):
        super().__init__(ft)
        self.addressing = MlidAddressing(ft.m, ft.n, strict_iba=strict_iba)

    # -- LID plan ------------------------------------------------------
    @property
    def lmc(self) -> int:
        return self.addressing.lmc

    def base_lid(self, node: NodeLabel) -> int:
        return self.addressing.base_lid(node)

    # -- path selection -------------------------------------------------
    def dlid(self, src: NodeLabel, dst: NodeLabel) -> int:
        return select_dlid(self.addressing, src, dst)

    def _dlid_rows(self, src_ids: np.ndarray) -> np.ndarray:
        """Vectorized path selection for a block of sources.

        Computes, per (src, dst): the gcp length alpha (first differing
        label digit), the source's rank suffix from position alpha+1,
        and ``BaseLID(dst) + rank mod (m/2)^(n-1-alpha)``.  Working on
        source chunks keeps the (rows x N x n) comparison temporary
        bounded, which is what lets the flow-level evaluator extract
        flow classes on FT(32, 3) without an 8192x8192x3 blow-up per
        call.
        """
        ft = self.ft
        n, half = ft.n, ft.half
        labels = np.array(ft.nodes, dtype=np.int64)  # (N, n)
        count = labels.shape[0]
        rows = labels[src_ids]  # (R, n)
        # alpha[i, d] = number of leading equal digits.
        eq = rows[:, None, :] == labels[None, :, :]  # (R, N, n)
        alpha = np.cumprod(eq, axis=2).sum(axis=2)  # == n iff src == dst
        # suffix_val[i, a] = mixed-radix value of digits a.. of src for
        # a in 1..n (digit 0 never appears in a suffix with a >= 1).
        suffix = np.zeros((len(src_ids), n + 1), dtype=np.int64)
        for a in range(n - 1, 0, -1):
            suffix[:, a] = suffix[:, a + 1] + rows[:, a] * half ** (
                n - 1 - a
            )
        # offset = rank(src at level alpha+1) mod paths(alpha).
        a_idx = np.minimum(alpha + 1, n)  # clamp for alpha >= n-1
        rank = suffix[np.arange(len(src_ids))[:, None], a_idx]
        exponent = np.maximum(n - 1 - alpha, 0)
        paths = np.where(alpha < n - 1, half**exponent, 1).astype(np.int64)
        offset = rank % paths
        base = (
            np.arange(count, dtype=np.int64) * self.lids_per_node + 1
        )  # BaseLID by PID == node index
        out = base[None, :] + offset
        out[alpha == n] = 0
        return out


register_scheme("mlid", MlidScheme)
