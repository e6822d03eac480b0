"""Construction of the m-port n-tree FT(m, n) (Section 3 of the paper).

A :class:`FatTree` enumerates every switch and every processing node of
``FT(m, n)`` and, on the first port query, every port-to-port link:

* **Nodes** ``P(p0 … p_{n-1})`` hang off leaf switches (level n-1):
  ``SW<w, n-1>`` port ``k`` connects ``P(p)`` iff ``w = p0…p_{n-2}``
  and ``k = p_{n-1}``.
* **Switch-to-switch** edges: ``SW<w, l>`` port ``k`` connects to
  ``SW<w', l+1>`` port ``k'`` iff ``w'`` agrees with ``w`` everywhere
  except position ``l``, with ``k = w'_l`` and ``k' = w_l + m/2``.

Hence every switch's **down ports** are ``0 … m/2-1`` (all ``0 … m-1``
for root switches, which have no parents) and **up ports** are
``m/2 … m-1``.  Port numbers here are the paper's 0-based ``k``; the
InfiniBand realization (:mod:`repro.ib`) maps them to physical ports
``k + 1`` because IBA reserves port 0 for management.

The per-port wiring (one :class:`Endpoint` per switch port) is built on
first use: the folded flow model reads only the integer arrays of
:func:`repro.core.kernel.fabric_arrays`, which follow in closed form
from the rules above, and never pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional

from repro.topology import groups
from repro.topology.labels import (
    NodeLabel,
    SwitchLabel,
    check_arity,
    format_node,
    format_switch,
    node_labels,
    switch_labels,
)

__all__ = ["Endpoint", "PortRef", "FatTree"]


@dataclass(frozen=True)
class Endpoint:
    """What a switch port is attached to: a node, a switch port, or nothing.

    Exactly one of ``node`` / ``switch`` is set; both ``None`` means the
    port is unused (never happens in FT(m, n) — every port is wired).
    """

    node: Optional[NodeLabel] = None
    switch: Optional[SwitchLabel] = None
    port: Optional[int] = None  # peer's port when ``switch`` is set

    @property
    def is_node(self) -> bool:
        return self.node is not None

    @property
    def is_switch(self) -> bool:
        return self.switch is not None


@dataclass(frozen=True)
class PortRef:
    """A (switch, port) pair — one side of a link."""

    switch: SwitchLabel
    port: int


class FatTree:
    """The m-port n-tree FT(m, n).

    Parameters
    ----------
    m:
        Switch port count; a power of two, at least 4.
    n:
        Tree dimension; the tree has ``n`` switch levels (0 = root row)
        and height ``n + 1``.

    Examples
    --------
    >>> ft = FatTree(4, 3)
    >>> ft.num_nodes, ft.num_switches
    (16, 20)
    >>> ft.node_attachment((1, 0, 1))
    PortRef(switch=((1, 0), 2), port=1)
    """

    def __init__(self, m: int, n: int):
        check_arity(m, n)
        self.m = m
        self.n = n
        self.half = m // 2

        self.nodes: List[NodeLabel] = list(node_labels(m, n))
        self.switches: List[SwitchLabel] = list(switch_labels(m, n))
        self._node_index: Dict[NodeLabel, int] = {
            p: i for i, p in enumerate(self.nodes)
        }
        self._switch_index: Dict[SwitchLabel, int] = {
            s: i for i, s in enumerate(self.switches)
        }

    # ------------------------------------------------------------------
    # Construction: the per-port wiring, built on first use
    # ------------------------------------------------------------------
    @cached_property
    def _wiring(self) -> Dict[SwitchLabel, List[Endpoint]]:
        """``wiring[switch]``: list of Endpoint, indexed by 0-based port k."""
        self._wire()
        return self.__dict__["_wiring"]

    @cached_property
    def _node_port(self) -> Dict[NodeLabel, PortRef]:
        """The (leaf switch, port) of every node."""
        self._wire()
        return self.__dict__["_node_port"]

    def _wire(self) -> None:
        """Set ``_wiring`` and ``_node_port``; runs when either is first read.

        Both are published whole, at the end: were a tree's first port
        queries to race in two threads, it would be wired twice, each
        time completely.
        """
        m, n, half = self.m, self.n, self.half
        wiring = {s: [Endpoint()] * m for s in self.switches}
        node_port: Dict[NodeLabel, PortRef] = {}
        # Leaf switches to processing nodes.
        for p in self.nodes:
            leaf: SwitchLabel = (p[: n - 1], n - 1)
            k = p[n - 1]
            self._attach(wiring, leaf, k, Endpoint(node=p))
            node_port[p] = PortRef(leaf, k)
        # Switch-to-switch links, level l (parent) to level l+1 (child).
        for (w, l) in self.switches:
            if l == n - 1:
                continue
            child_digit_range = range(m) if l == 0 else range(half)
            for child_digit in child_digit_range:
                w_child = w[:l] + (child_digit,) + w[l + 1 :]
                child: SwitchLabel = (w_child, l + 1)
                k_parent = child_digit  # k = w'_l
                k_child = w[l] + half  # k' = w_l + m/2
                self._attach(wiring, (w, l), k_parent, Endpoint(switch=child, port=k_child))
                self._attach(wiring, child, k_child, Endpoint(switch=(w, l), port=k_parent))
        self._node_port, self._wiring = node_port, wiring

    @staticmethod
    def _attach(
        wiring: Dict[SwitchLabel, List[Endpoint]],
        switch: SwitchLabel,
        port: int,
        endpoint: Endpoint,
    ) -> None:
        ports = wiring[switch]
        existing = ports[port]
        if existing.is_node or existing.is_switch:
            raise RuntimeError(
                f"port {port} of {format_switch(*switch)} wired twice"
            )
        ports[port] = endpoint

    # ------------------------------------------------------------------
    # Counts and enumeration
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``2 * (m/2)^n`` processing nodes."""
        return len(self.nodes)

    @property
    def num_switches(self) -> int:
        """``(2n - 1) * (m/2)^(n-1)`` switches."""
        return len(self.switches)

    @property
    def height(self) -> int:
        """Tree height as the paper counts it: ``n + 1``."""
        return self.n + 1

    def levels(self) -> Iterator[int]:
        """Switch levels, root row first."""
        return iter(range(self.n))

    def switches_at_level(self, level: int) -> List[SwitchLabel]:
        """All switches on one level."""
        return list(switch_labels(self.m, self.n, level))

    # ------------------------------------------------------------------
    # Port queries
    # ------------------------------------------------------------------
    def peer(self, switch: SwitchLabel, port: int) -> Endpoint:
        """What switch ``port`` (0-based k) is wired to."""
        if switch not in self._wiring:
            raise KeyError(f"unknown switch {switch!r}")
        if not 0 <= port < self.m:
            raise ValueError(f"port must be in [0, {self.m}), got {port}")
        return self._wiring[switch][port]

    def ports(self, switch: SwitchLabel) -> List[Endpoint]:
        """All m endpoints of a switch, indexed by 0-based port."""
        if switch not in self._wiring:
            raise KeyError(f"unknown switch {switch!r}")
        return list(self._wiring[switch])

    def node_attachment(self, p: NodeLabel) -> PortRef:
        """The (leaf switch, port) a processing node hangs off."""
        try:
            return self._node_port[p]
        except KeyError:
            raise KeyError(f"unknown node {format_node(p)}") from None

    def down_ports(self, switch: SwitchLabel) -> range:
        """Ports leading toward the leaves: all m for roots, else first m/2."""
        _, level = switch
        return range(self.m) if level == 0 else range(self.half)

    def up_ports(self, switch: SwitchLabel) -> range:
        """Ports leading toward the roots: empty for roots, else last m/2."""
        _, level = switch
        return range(0) if level == 0 else range(self.half, self.m)

    # ------------------------------------------------------------------
    # Index helpers (stable dense ids for simulator arrays)
    # ------------------------------------------------------------------
    def node_id(self, p: NodeLabel) -> int:
        """Dense index of a node; equals its PID."""
        return self._node_index[p]

    def switch_id(self, s: SwitchLabel) -> int:
        """Dense index of a switch (root row first)."""
        return self._switch_index[s]

    def pid(self, p: NodeLabel) -> int:
        """The paper's PID of a node (same as :meth:`node_id`)."""
        return groups.pid(self.m, self.n, p)

    def node_from_pid(self, node_pid: int) -> NodeLabel:
        """Decode a PID back to its node label."""
        return groups.node_from_pid(self.m, self.n, node_pid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FatTree(m={self.m}, n={self.n}, nodes={self.num_nodes}, "
            f"switches={self.num_switches})"
        )
