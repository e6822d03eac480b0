"""The Subnet Manager (SM).

In a real IBA subnet the SM sweeps the fabric at initialization,
discovers every switch and endport, assigns each endport a base LID and
an LMC, and programs every switch's linear forwarding table.  Our SM
does the same against the :class:`~repro.topology.fattree.FatTree`
description and a :class:`~repro.core.scheme.RoutingScheme`:

* discovery walks the fat-tree wiring (breadth-first from node P(00…0))
  and cross-checks it against the constructive description — a model of
  the SM's directed-route sweep;
* LID assignment queries the scheme (MLID: ``2^LMC`` LIDs per node;
  SLID: one);
* LFT programming converts the scheme's 0-based paper ports to the
  1-based physical ports of IBA switches (port 0 is management).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.scheme import RoutingScheme
from repro.ib.lft import LinearForwardingTable
from repro.topology.fattree import FatTree
from repro.topology.labels import NodeLabel, SwitchLabel

__all__ = ["SubnetManager", "DiscoveryError"]


class DiscoveryError(RuntimeError):
    """Topology discovery found wiring inconsistent with FT(m, n)."""


class SubnetManager:
    """Configures one IBFT(m, n) subnet for a routing scheme."""

    def __init__(self, scheme: RoutingScheme):
        self.scheme = scheme
        self.ft: FatTree = scheme.ft

    # ------------------------------------------------------------------
    # Discovery (the SM's sweep)
    # ------------------------------------------------------------------
    def discover(self) -> Tuple[Set[SwitchLabel], Set[NodeLabel]]:
        """Breadth-first sweep from the first endport.

        Returns the reachable switches and nodes; raises
        :class:`DiscoveryError` unless everything is reachable exactly
        once (connected, no dangling ports).
        """
        ft = self.ft
        start = ft.node_attachment(ft.nodes[0]).switch
        seen_switches: Set[SwitchLabel] = {start}
        seen_nodes: Set[NodeLabel] = set()
        frontier = deque([start])
        while frontier:
            sw = frontier.popleft()
            for port, ep in enumerate(ft.ports(sw)):
                if ep.is_node:
                    if ep.node in seen_nodes:
                        raise DiscoveryError(
                            f"node {ep.node} reachable from two leaf ports"
                        )
                    seen_nodes.add(ep.node)
                elif ep.is_switch:
                    if ep.switch not in seen_switches:
                        seen_switches.add(ep.switch)
                        frontier.append(ep.switch)
                else:  # pragma: no cover - FatTree wires every port
                    raise DiscoveryError(f"dangling port {port} on {sw}")
        if len(seen_switches) != ft.num_switches:
            raise DiscoveryError(
                f"swept {len(seen_switches)} switches, expected {ft.num_switches}"
            )
        if len(seen_nodes) != ft.num_nodes:
            raise DiscoveryError(
                f"swept {len(seen_nodes)} nodes, expected {ft.num_nodes}"
            )
        return seen_switches, seen_nodes

    # ------------------------------------------------------------------
    # LID assignment
    # ------------------------------------------------------------------
    def assign_lids(self) -> Dict[NodeLabel, range]:
        """Base LID + LMC window per endport, per the scheme.

        Verifies the windows are disjoint, dense and start at LID 1
        (LID 0 is reserved).
        """
        plan: Dict[NodeLabel, range] = {}
        windows: List[Tuple[int, int]] = []
        for node in self.ft.nodes:
            window = self.scheme.lid_set(node)
            plan[node] = window
            windows.append((window.start, window.stop))
        # Disjoint + dense + starting at 1 iff the sorted windows chain
        # exactly: each starts where the previous stopped, ending at
        # num_lids + 1.  O(N) — schemes emit windows in near-sorted
        # (PID) order, so timsort is linear here; no per-LID
        # materialization.
        windows.sort()
        next_start = 1
        for start, stop in windows:
            if start != next_start or stop < start:
                raise RuntimeError(
                    "scheme produced overlapping or sparse LID windows"
                )
            next_start = stop
        if next_start != self.scheme.num_lids + 1:
            raise RuntimeError(
                "scheme produced overlapping or sparse LID windows"
            )
        return plan

    # ------------------------------------------------------------------
    # Forwarding-table programming
    # ------------------------------------------------------------------
    def program_lfts(self) -> Dict[SwitchLabel, LinearForwardingTable]:
        """Build every switch's LFT with physical (1-based) ports, from
        the rows of the scheme's :meth:`RoutingScheme.port_matrix`."""
        return {
            sw: LinearForwardingTable.from_zero_based(row, self.ft.m)
            for sw, row in zip(self.ft.switches, self.scheme.port_matrix())
        }

    def program_delta(
        self, live: np.ndarray, target: np.ndarray
    ) -> Dict[SwitchLabel, Tuple[LinearForwardingTable, int]]:
        """Delta reprogramming: new LFTs for switches whose table moved.

        ``live`` and ``target`` are 0-based paper-port matrices
        (``matrix[switch_id, lid - 1] -> k``, the
        :meth:`RoutingScheme.port_matrix` shape) of any integer dtypes;
        the diff is one entry-wise compare, and only switches that
        actually changed pay for LFT materialization.  Those go through
        the same :meth:`LinearForwardingTable.from_zero_based`
        conversion the initial sweep uses, so delta-programmed entries
        get the identical ``k -> k + 1`` port shift and range
        validation.

        Switches are emitted in fabric (``ft.switches``) order so the
        caller's switch-by-switch programming schedule is deterministic.
        """
        changed = np.count_nonzero(live != target, axis=1)
        switches, m = self.ft.switches, self.ft.m
        return {
            switches[i]: (
                LinearForwardingTable.from_zero_based(target[i], m),
                int(changed[i]),
            )
            for i in np.flatnonzero(changed)
        }

    def configure(self) -> Dict[SwitchLabel, LinearForwardingTable]:
        """Full initialization: discovery, LID plan, LFTs."""
        self.discover()
        self.assign_lids()
        return self.program_lfts()
