"""Structural validation of a constructed FT(m, n).

``validate_fattree`` re-derives every invariant Section 3 of the paper
states and raises :class:`TopologyError` on the first violation.  It is
used by the test suite and Table 1, and is cheap enough to run on
construction in examples (O(switches * m)).  Connectivity and the link
count come from one walk over ``ft.ports`` (:func:`link_walk`), so
validation needs no graph library.
"""

from __future__ import annotations

from typing import Tuple

from repro.topology import groups
from repro.topology.fattree import FatTree
from repro.topology.labels import format_switch

__all__ = ["TopologyError", "link_walk", "validate_fattree"]


class TopologyError(AssertionError):
    """A structural invariant of FT(m, n) was violated."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise TopologyError(message)


def validate_fattree(ft: FatTree) -> None:
    """Check all structural invariants of the constructed fat-tree."""
    m, n, half = ft.m, ft.n, ft.half

    _require(
        ft.num_nodes == groups.num_nodes(m, n),
        f"node count {ft.num_nodes} != 2*(m/2)^n",
    )
    _require(
        ft.num_switches == groups.num_switches(m, n),
        f"switch count {ft.num_switches} != (2n-1)*(m/2)^(n-1)",
    )

    for s in ft.switches:
        w, level = s
        ports = ft.ports(s)
        _require(len(ports) == m, f"{format_switch(w, level)} must have {m} ports")
        for k, ep in enumerate(ports):
            _require(
                ep.is_node or ep.is_switch,
                f"{format_switch(w, level)} port {k} is unwired",
            )
            if ep.is_node:
                _require(
                    level == n - 1,
                    f"{format_switch(w, level)}: nodes only hang off level n-1",
                )
                p = ep.node
                _require(
                    p[: n - 1] == w and p[n - 1] == k,
                    f"{format_switch(w, level)} port {k}: wrong node {p}",
                )
            else:
                sw, sl = ep.switch
                _require(
                    abs(sl - level) == 1,
                    f"{format_switch(w, level)}: link must span adjacent levels",
                )
                if sl == level + 1:  # we are the parent
                    _require(
                        k in ft.down_ports(s),
                        f"{format_switch(w, level)} port {k}: child on an up port",
                    )
                    _require(
                        sw[:level] == w[:level] and sw[level + 1 :] == w[level + 1 :],
                        f"{format_switch(w, level)}: child differs beyond pos {level}",
                    )
                    _require(k == sw[level], "parent port k must equal w'_l")
                    _require(
                        ep.port == w[level] + half,
                        "child port k' must equal w_l + m/2",
                    )
                else:  # we are the child
                    _require(
                        k in ft.up_ports(s),
                        f"{format_switch(w, level)} port {k}: parent on a down port",
                    )
                # Symmetry: the peer must point back at us.
                back = ft.peer(ep.switch, ep.port)
                _require(
                    back.is_switch and back.switch == s and back.port == k,
                    f"{format_switch(w, level)} port {k}: asymmetric wiring",
                )

    # Up/down port counts per level.
    for s in ft.switches:
        _, level = s
        expected_up = 0 if level == 0 else half
        _require(
            len(ft.up_ports(s)) == expected_up,
            f"level-{level} switch must have {expected_up} up ports",
        )

    # Every node attaches exactly once and round-trips through peer().
    for p in ft.nodes:
        ref = ft.node_attachment(p)
        ep = ft.peer(ref.switch, ref.port)
        _require(
            ep.is_node and ep.node == p,
            f"node {p} attachment does not round-trip",
        )

    # Global connectivity.
    links, connected = link_walk(ft)
    _require(connected, "FT(m, n) must be connected")
    _require(
        links == ft.num_nodes + (ft.num_switches * m - ft.num_nodes) // 2,
        "edge count mismatch",
    )


def link_walk(ft: FatTree) -> Tuple[int, bool]:
    """``(links, connected)`` from one walk over ``ft.ports``, starting
    at the first switch.

    A link is counted once: a node link from its switch, a switch link
    from its parent's side (the edges of
    :func:`~repro.topology.graph.to_networkx`).  ``connected`` says the
    walk reached every switch and every node; nodes hang off switches,
    so a node is reached through its switch's port.
    """
    start = ft.switches[0]
    seen = {start}
    nodes = set()
    links = 0
    stack = [start]
    while stack:
        s = stack.pop()
        level = s[1]
        for ep in ft.ports(s):
            if ep.is_node:
                nodes.add(ep.node)
                links += 1
            elif ep.is_switch:
                if ep.switch[1] == level + 1:
                    links += 1
                if ep.switch not in seen:
                    seen.add(ep.switch)
                    stack.append(ep.switch)
    connected = len(seen) == ft.num_switches and len(nodes) == ft.num_nodes
    return links, connected
