"""Generic up*/down* routing — the irregular-topology baseline.

The paper motivates MLID by noting that routing algorithms designed for
*irregular* topologies, "when applied to regular topologies like
fat-trees … may not take all the properties of a regular topology into
account and usually cannot deliver satisfactory performance".  The
canonical such algorithm is up*/down* routing (Autonet; OpenSM's
``updn``): orient every link by a BFS spanning tree from one root
switch, then restrict every route to up moves strictly before down
moves.

:class:`UpDownScheme` implements it *as such an SM would on a fat-tree
it does not recognize*: BFS from an arbitrary root switch, one LID per
node (no LMC), per-destination shortest legal paths with deterministic
tie-breaks and no fat-tree-aware balancing.  On FT(m, n) the BFS
orientation makes every root switch other than the BFS root a dead end
(entering one is a down move, leaving it an up move), so all
inter-group traffic funnels through the BFS root's component — the
"unsatisfactory performance" the paper predicts, measured in ablation
A15 (``benchmarks/test_ablation_updown_baseline.py``).

Deadlock freedom holds by the classic argument: every source-to-
destination path is up*/down*, so channel dependencies follow the
acyclic up-then-down order (machine-checked in the tests).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.core.scheme import RoutingScheme, register_scheme
from repro.topology import groups
from repro.topology.fattree import FatTree
from repro.topology.labels import NodeLabel, SwitchLabel, validate_node_label

__all__ = ["UpDownScheme"]


class UpDownScheme(RoutingScheme):
    """BFS-oriented up*/down* routing with one LID per node."""

    name = "updn"

    def __init__(self, ft: FatTree, bfs_root: Optional[SwitchLabel] = None):
        super().__init__(ft)
        self.bfs_root = bfs_root or ft.switches_at_level(0)[0]
        if self.bfs_root not in ft._switch_index:
            raise ValueError(f"unknown BFS root {self.bfs_root!r}")
        self._bfs_level = self._bfs_levels()
        # tables[sw][pid] -> 0-based out port, built per destination.
        self._tables: Dict[SwitchLabel, List[int]] = {
            sw: [0] * ft.num_nodes for sw in ft.switches
        }
        for pid in range(ft.num_nodes):
            self._route_to(pid)

    # -- orientation ----------------------------------------------------
    def _bfs_levels(self) -> Dict[SwitchLabel, int]:
        from collections import deque

        levels = {self.bfs_root: 0}
        frontier = deque([self.bfs_root])
        while frontier:
            sw = frontier.popleft()
            for ep in self.ft.ports(sw):
                if ep.is_switch and ep.switch not in levels:
                    levels[ep.switch] = levels[sw] + 1
                    frontier.append(ep.switch)
        if len(levels) != self.ft.num_switches:  # pragma: no cover
            raise RuntimeError("fat-tree switch graph must be connected")
        return levels

    def _is_up_move(self, frm: SwitchLabel, to: SwitchLabel) -> bool:
        """Link direction per the BFS orientation (ties by switch id —
        the deterministic tie-break every up*/down* implementation
        needs on equal-level links; fat-trees have none, but the rule
        keeps the method general)."""
        a = (self._bfs_level[frm], self.ft.switch_id(frm))
        b = (self._bfs_level[to], self.ft.switch_id(to))
        return b < a

    # -- per-destination route computation -------------------------------
    def _route_to(self, pid: int) -> None:
        """Consistent per-destination next hops.

        Two regions, computed backward from the destination:

        * the **down region** — switches that reach the destination
          using only down moves; each picks its shortest all-down next
          hop.  A switch with any all-down path *must* use it: packets
          may arrive here on a down move, after which ascending again
          would be illegal.
        * everything else ascends: pick the up move minimizing
          ``1 + dist(successor)``, relaxed to a fixpoint (multiple
          consecutive ups chain toward the BFS root until the down
          region is entered).

        Realized routes are therefore up* then down* from every source,
        which is the up*/down* deadlock-freedom invariant.  Ties break
        on the lowest port index — deterministic and fat-tree-blind,
        like the naive SM implementation this models.
        """
        import heapq

        ft = self.ft
        dst = ft.node_from_pid(pid)
        leaf = ft.node_attachment(dst).switch
        # Down region: backward BFS over reversed down moves.
        down: Dict[SwitchLabel, Tuple[int, int]] = {(leaf): (0, dst[ft.n - 1])}
        heap: List[Tuple[int, int, SwitchLabel]] = [(0, ft.switch_id(leaf), leaf)]
        while heap:
            dist, _sid, sw = heapq.heappop(heap)
            if down[sw][0] < dist:
                continue
            for ep in ft.ports(sw):
                if not ep.is_switch:
                    continue
                p = ep.switch
                if self._is_up_move(p, sw):
                    continue  # p -> sw is up; not a down-region edge
                cand = (dist + 1, ep.port)
                if p not in down or cand < down[p]:
                    down[p] = cand
                    heapq.heappush(heap, (dist + 1, ft.switch_id(p), p))
        # Ascent region: relax up moves toward any settled switch.
        up: Dict[SwitchLabel, Tuple[int, int]] = {}

        def dist_of(sw: SwitchLabel) -> int:
            if sw in down:
                return down[sw][0]
            return up[sw][0] if sw in up else sys.maxsize

        changed = True
        while changed:
            changed = False
            for sw in ft.switches:
                if sw in down:
                    continue
                best: Tuple[int, int] | None = None
                for port, ep in enumerate(ft.ports(sw)):
                    if not ep.is_switch or not self._is_up_move(sw, ep.switch):
                        continue
                    d = dist_of(ep.switch)
                    if d == sys.maxsize:
                        continue
                    cand = (d + 1, port)
                    if best is None or cand < best:
                        best = cand
                if best is not None and (sw not in up or best < up[sw]):
                    up[sw] = best
                    changed = True
        for sw in ft.switches:
            if sw in down:
                self._tables[sw][pid] = down[sw][1]
            elif sw in up:
                self._tables[sw][pid] = up[sw][1]
            else:  # pragma: no cover - fat-trees are covered
                raise RuntimeError(
                    f"up*/down* cannot reach {dst} from {sw} — orientation bug"
                )

    # -- RoutingScheme surface -------------------------------------------
    @property
    def lmc(self) -> int:
        return 0

    def base_lid(self, node: NodeLabel) -> int:
        return groups.pid(self.ft.m, self.ft.n, node) + 1

    def dlid(self, src: NodeLabel, dst: NodeLabel) -> int:
        validate_node_label(self.ft.m, self.ft.n, src)
        if src == dst:
            raise ValueError(f"no path selection for src == dst == {src!r}")
        return self.base_lid(dst)

    def output_port(self, switch: SwitchLabel, lid: int) -> int:
        pid = self.owner_pid(lid)  # validates lid range
        return self._tables[switch][pid]

    # -- diagnostics ------------------------------------------------------
    def _trace_loose(self, src: NodeLabel, dst: NodeLabel) -> List[SwitchLabel]:
        """Trace without the minimal-length bound (updn detours)."""
        ft = self.ft
        lid = self.dlid(src, dst)
        current = ft.node_attachment(src).switch
        path: List[SwitchLabel] = []
        for _ in range(4 * ft.num_switches):
            path.append(current)
            ep = ft.peer(current, self.output_port(current, lid))
            if ep.is_node:
                if ep.node != dst:  # pragma: no cover
                    raise RuntimeError("up*/down* misdelivery")
                return path
            current = ep.switch
        raise RuntimeError("up*/down* routing loop")  # pragma: no cover


register_scheme("updn", UpDownScheme)
