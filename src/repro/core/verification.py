"""Static verification of routing schemes — no simulator required.

Traces the exact switch-by-switch route every (source, destination)
pair takes under a scheme's forwarding tables and checks:

* **delivery** — the packet reaches the right node (no loops, no
  mis-delivery);
* **minimality** — the route turns at a least common ancestor and its
  length is the minimal ``2 * (n - α)`` links;
* **up*/down*-ness** — ascending hops strictly precede descending
  hops (per-path), which is the basis of the deadlock-freedom check;
* **deadlock freedom** — the channel-dependency graph induced by all
  routes is acyclic (checked with networkx);
* **LCA spreading** (:func:`lca_usage`) — the distribution of turning
  switches for all-to-one traffic, the static signature of the MLID
  improvement (ablation A1).

The fabric-wide entry points (:func:`verify_scheme`, :func:`lca_usage`,
:func:`link_loads_all_to_one`, :func:`channel_dependency_graph`) run on
the vectorized :mod:`repro.core.kernel`.  The scalar tracer
(:func:`trace_path`, and :func:`scalar_verify_scheme` built on it) is
the oracle: the kernel replays any route it flags through
:func:`trace_path` so failures raise the identical scalar exception,
and kernel/scalar equivalence is asserted in
``tests/core/test_kernel.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.core.scheme import RoutingScheme
from repro.topology import groups
from repro.topology.labels import (
    NodeLabel,
    SwitchLabel,
    format_node,
    format_switch,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "RoutingError",
    "PathTrace",
    "trace_path",
    "verify_scheme",
    "scalar_verify_scheme",
    "lca_usage",
    "channel_dependency_graph",
    "link_loads_all_to_one",
]


class RoutingError(RuntimeError):
    """A routing scheme produced an invalid route."""


@dataclass(frozen=True)
class PathTrace:
    """The full route of one packet.

    ``switches`` is the ordered switch sequence; ``ports`` the 0-based
    output port taken at each switch; ``links`` the directed
    switch-to-switch channels traversed (excluding the node-attach
    links).
    """

    src: NodeLabel
    dst: NodeLabel
    dlid: int
    switches: Tuple[SwitchLabel, ...]
    ports: Tuple[int, ...]

    @property
    def hops(self) -> int:
        """Total links traversed, including the two node links."""
        return len(self.switches) + 1

    @property
    def turn(self) -> SwitchLabel:
        """The highest switch on the route (the turning point)."""
        return min(self.switches, key=lambda s: s[1])

    @property
    def links(self) -> Tuple[Tuple[SwitchLabel, int], ...]:
        """Directed switch output channels used: (switch, out_port)."""
        return tuple(zip(self.switches, self.ports))


def trace_path(
    scheme: RoutingScheme,
    src: NodeLabel,
    dst: NodeLabel,
    dlid: Optional[int] = None,
) -> PathTrace:
    """Follow a packet from ``src`` to ``dst`` through the tables.

    ``dlid`` defaults to the scheme's path selection.  Raises
    :class:`RoutingError` on loops, dead ends or mis-delivery.
    """
    ft = scheme.ft
    if dlid is None:
        dlid = scheme.dlid(src, dst)
    ref = ft.node_attachment(src)
    switches: List[SwitchLabel] = []
    ports: List[int] = []
    current = ref.switch
    max_hops = 2 * ft.n + 2  # strictly more than any minimal route
    for _ in range(max_hops):
        switches.append(current)
        k = scheme.output_port(current, dlid)
        if not 0 <= k < ft.m:
            raise RoutingError(
                f"{format_switch(*current)} forwards DLID {dlid} to "
                f"invalid port {k}"
            )
        ports.append(k)
        peer = ft.peer(current, k)
        if peer.is_node:
            if peer.node != dst:
                raise RoutingError(
                    f"DLID {dlid} from {format_node(src)} delivered to "
                    f"{format_node(peer.node)}, expected {format_node(dst)}"
                )
            return PathTrace(src, dst, dlid, tuple(switches), tuple(ports))
        current = peer.switch
    raise RoutingError(
        f"DLID {dlid} from {format_node(src)} did not reach "
        f"{format_node(dst)} within {max_hops} switch hops (loop?)"
    )


def _check_minimal_and_updown(scheme: RoutingScheme, trace: PathTrace) -> None:
    ft = scheme.ft
    alpha = groups.gcp_length(trace.src, trace.dst)
    expected_switches = 2 * (ft.n - alpha) - 1
    if len(trace.switches) != expected_switches:
        raise RoutingError(
            f"route {format_node(trace.src)}->{format_node(trace.dst)} "
            f"(DLID {trace.dlid}) visits {len(trace.switches)} switches, "
            f"minimal is {expected_switches}"
        )
    levels = [s[1] for s in trace.switches]
    turn_idx = levels.index(min(levels))
    ascending = levels[: turn_idx + 1]
    descending = levels[turn_idx:]
    if ascending != sorted(ascending, reverse=True) or descending != sorted(
        descending
    ):
        raise RoutingError(
            f"route {format_node(trace.src)}->{format_node(trace.dst)} "
            f"is not an up*/down* path: levels {levels}"
        )
    # The turn must happen at a least common ancestor.
    turn = trace.switches[turn_idx]
    if turn not in set(groups.lca(ft.m, ft.n, trace.src, trace.dst)):
        raise RoutingError(
            f"route {format_node(trace.src)}->{format_node(trace.dst)} "
            f"turns at {format_switch(*turn)}, not a least common ancestor"
        )


def verify_scheme(
    scheme: RoutingScheme,
    *,
    pairs: Optional[Iterable[Tuple[NodeLabel, NodeLabel]]] = None,
    check_offsets: bool = True,
) -> int:
    """Exhaustively verify a scheme; returns the number of routes checked.

    By default checks every ordered (src, dst) pair with the scheme's
    selected DLID; with ``check_offsets`` additionally checks *every*
    LID of every destination from every source (all paths must deliver,
    not just the selected ones).  Runs on the vectorized route kernel;
    :func:`scalar_verify_scheme` is the per-hop reference.
    """
    from repro.core.kernel import compile_kernel

    return compile_kernel(scheme).verify(pairs=pairs, check_offsets=check_offsets)


def scalar_verify_scheme(
    scheme: RoutingScheme,
    *,
    pairs: Optional[Iterable[Tuple[NodeLabel, NodeLabel]]] = None,
    check_offsets: bool = True,
) -> int:
    """:func:`verify_scheme` on the scalar tracer: every route walked
    hop by hop through :func:`trace_path`.  The reference the kernel is
    tested and benchmarked against."""
    ft = scheme.ft
    checked = 0
    if pairs is None:
        pairs = (
            (s, d) for s in ft.nodes for d in ft.nodes if s != d
        )
    for src, dst in pairs:
        if check_offsets:
            for lid in scheme.lid_set(dst):
                trace = trace_path(scheme, src, dst, dlid=lid)
                _check_minimal_and_updown(scheme, trace)
                checked += 1
        else:
            trace = trace_path(scheme, src, dst)
            _check_minimal_and_updown(scheme, trace)
            checked += 1
    return checked


def lca_usage(scheme: RoutingScheme, dst: NodeLabel) -> Counter[SwitchLabel]:
    """Turning-switch histogram when every other node sends to ``dst``.

    The static signature of congestion: SLID concentrates all-to-one
    traffic on few turning switches, MLID spreads it over every least
    common ancestor available to each source group.
    """
    from repro.core.kernel import compile_kernel

    return compile_kernel(scheme).lca_usage(dst)


def link_loads_all_to_one(
    scheme: RoutingScheme, dst: NodeLabel
) -> Counter[Tuple[SwitchLabel, int]]:
    """Per-directed-channel load when every other node sends one packet
    to ``dst``; max value is the static congestion bound."""
    from repro.core.kernel import compile_kernel

    return compile_kernel(scheme).link_loads_all_to_one(dst)


def channel_dependency_graph(scheme: RoutingScheme) -> nx.DiGraph:
    """Directed graph of channel-to-channel dependencies over all routes.

    Vertices are directed channels ``(switch, out_port)`` plus the
    injection channels; an edge (c1, c2) means some route holds c1 while
    requesting c2.  Acyclicity implies deadlock freedom under credit
    flow control (Dally & Seitz).
    """
    from repro.core.kernel import compile_kernel

    return compile_kernel(scheme).channel_dependency_graph()
