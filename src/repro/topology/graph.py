"""Graph-level views of FT(m, n).

Exports the constructed fat-tree as a :mod:`networkx` graph for
analyses the simulator does not need on its hot path: bisection width,
hop diameter, connectivity sanity.  These back the topology property
tests.  networkx is imported by the functions that build a graph, so
importing this module (and :mod:`repro.topology`) does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.topology.fattree import FatTree

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["to_networkx", "bisection_links", "diameter_hops"]

#: Graph vertex for a processing node: ("node", label).
#: Graph vertex for a switch: ("switch", w, level).


def to_networkx(ft: FatTree) -> nx.Graph:
    """Undirected graph with node vertices ``("node", p)`` and switch
    vertices ``("switch", w, level)``; edges carry the port pair."""
    import networkx as nx

    g = nx.Graph()
    for p in ft.nodes:
        g.add_node(("node", p), kind="node")
    for (w, level) in ft.switches:
        g.add_node(("switch", w, level), kind="switch", level=level)
    for (w, level) in ft.switches:
        for port, ep in enumerate(ft.ports((w, level))):
            if ep.is_node:
                g.add_edge(
                    ("switch", w, level), ("node", ep.node), ports=(port, 0)
                )
            elif ep.is_switch:
                sw, sl = ep.switch
                # Add each switch-switch edge once (from the parent side).
                if sl == level + 1:
                    g.add_edge(
                        ("switch", w, level),
                        ("switch", sw, sl),
                        ports=(port, ep.port),
                    )
    return g


def bisection_links(ft: FatTree) -> int:
    """Links crossing the natural bisection of FT(m, n).

    The natural halves split at the top digit: nodes with
    ``p0 < m/2`` vs ``p0 >= m/2``.  Every minimal path between halves
    passes through a root switch, so the cut is the number of root
    down-links to each half: ``(m/2)^(n-1) * m/2`` per side.
    """
    return (ft.half ** (ft.n - 1)) * ft.half


def diameter_hops(ft: FatTree) -> int:
    """Maximum node-to-node hop count (switch traversals + links).

    Two nodes with no common prefix traverse up n-1 switch rows, a
    root, and down n-1 rows: ``2n`` links between switches/nodes.
    Computed from the graph to double-check the closed form.
    """
    import networkx as nx

    g = to_networkx(ft)
    # Eccentricity over node vertices only; fat-trees are small enough
    # here that exact BFS from the corner nodes suffices: the diameter
    # is realized between the lexicographically first and last nodes.
    first = ("node", ft.nodes[0])
    last = ("node", ft.nodes[-1])
    return nx.shortest_path_length(g, first, last)
