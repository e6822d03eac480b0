"""Vectorized route kernel: whole-fabric static analysis in numpy.

The scalar tracer (:func:`repro.core.verification.trace_path`) walks
one Python hop at a time per (src, dst, DLID) triple — O(nodes² × LIDs
× hops) interpreter work, which makes FT(16, 2)+ verification and the
Table-1 / 32-port ablations the slowest static analyses in the repo.
This module compiles a :class:`~repro.core.scheme.RoutingScheme` into
dense arrays and traces **every** route of the fabric simultaneously:

* ``port`` — the ``(num_switches, num_lids)`` next-hop port matrix,
  lifted straight from the forwarding tables (0-based paper ports);
* ``peer_switch`` / ``peer_node`` — the switch adjacency as integer
  indices (``peer_switch[s, k]`` is the switch reached from switch
  ``s`` out of port ``k``, or -1 when the port attaches a node, in
  which case ``peer_node[s, k]`` holds the node index);
* ``lid_owner`` / ``attach_leaf`` — LID → node and node → leaf-switch
  index vectors.

A route is a pure function of ``(leaf switch of src, DLID)`` — every
source on one leaf follows the same switch sequence for a given DLID —
so the kernel traces the ``(num_leaves, num_lids)`` route tensor once
with at most ``2n + 2`` vectorized hop steps (the scalar tracer's loop
bound) and answers every static query by array indexing: delivery,
minimality and up*/down* verification, LCA-usage histograms,
all-to-one link loads, and channel-dependency-graph edge extraction.
The hop stepper (:func:`trace_routes`) traces any set of routes to
any hop budget, reading ports from a table or from a scheme's closed
form forwarding: :meth:`RouteKernel.retraced` uses it to follow a
table change by retracing only the routes that cross a changed entry,
the dynamic SM to trace migrated flows, and the flow model
(:mod:`repro.experiments.flowlevel`) to trace flow classes on fabrics
whose tables would not fit in memory.

**Scalar-oracle guarantee.**  The scalar tracer remains the oracle:
whenever the kernel flags a route as invalid it *replays that route
through the scalar path* (``trace_path`` plus the scalar minimality /
up*/down* checks) so the exception raised is exactly the scalar one,
and the equivalence of all kernel outputs with the scalar tracer is
asserted in ``tests/core/test_kernel.py``.  Prefer ``trace_path`` for
one-off interactive traces (no compilation cost) and the kernel for
anything that touches a whole fabric.

The kernel reads a scheme only through its public derived forms,
``port_matrix`` and ``dlid_matrix``.  Their override guard lives in
:class:`~repro.core.scheme.RoutingScheme`, so a subclass that corrupts
one ``output_port`` entry (the tests' error doubles) or overrides
``dlid`` is compiled with its override, exactly as the Subnet Manager
programs it.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.scheme import RoutingScheme
from repro.topology.fattree import FatTree
from repro.topology.labels import NodeLabel, SwitchLabel

__all__ = [
    "FabricArrays",
    "fabric_arrays",
    "TracedRoutes",
    "trace_routes",
    "trace_columns",
    "RouteKernel",
    "compile_kernel",
]


@dataclass(frozen=True)
class FabricArrays:
    """Integer-array view of one FT(m, n): adjacency, digits, levels.

    The seed-, scheme- and LID-independent part of a
    :class:`RouteKernel` compilation.  It is cheap (O(switches × ports))
    and small — independent of the LID space — so consumers that cannot
    afford the full (leaf, DLID) route tensor (the flow-level evaluator
    on FT(32, 3)-class fabrics) share the same arrays the kernel uses,
    as does the fault-repair kernel.  Memoized on the :class:`FatTree`
    instance by :func:`fabric_arrays`; consumers never write them.
    """

    m: int
    n: int
    num_switches: int
    num_nodes: int
    num_leaves: int
    #: (S, m) switch index reached out of port k, -1 when not a switch.
    peer_switch: np.ndarray
    #: (S, m) node index reached out of port k, -1 when not a node.
    peer_node: np.ndarray
    #: (S,) level of each switch (0 = root row, n-1 = leaf row).
    switch_level: np.ndarray
    #: (S, n-1) label digits of each switch.
    switch_digits: np.ndarray
    #: (N, n) label digits of each node.
    node_digits: np.ndarray
    #: (F,) switch index of each leaf row entry.
    leaf_switch: np.ndarray
    #: (N,) switch index each node attaches to.
    attach_switch: np.ndarray
    #: (N,) leaf row of each node's attachment switch.
    attach_leaf: np.ndarray
    #: (F, m/2) node indices attached to each leaf.
    leaf_nodes: np.ndarray


def fabric_arrays(ft: FatTree) -> FabricArrays:
    """Build (and memoize on ``ft``) the fabric's integer-array view.

    Closed form from ``(m, n)`` and the Section 3 wiring rules, with no
    walk over the per-port wiring (which the flow model never builds).
    A switch's id is its level's offset plus the mixed-radix value of
    its label, where digit ``i`` weighs ``(m/2)^(n-2-i)`` at every
    level; a node's id is its PID.  The nodes of one leaf are
    consecutive PIDs, hung off its down ports in order.
    """
    cached = getattr(ft, "_fabric_arrays", None)
    if cached is not None:
        return cached
    m, n, half = ft.m, ft.n, ft.half
    num_switches, num_nodes = ft.num_switches, ft.num_nodes
    # The root row has (m/2)^(n-1) switches, every other level twice that.
    roots = half ** (n - 1)
    first = [0] + [roots * (2 * lvl - 1) for lvl in range(1, n)]
    counts = np.diff(first + [num_switches])
    switch_level = np.repeat(np.arange(n, dtype=np.int32), counts)
    in_level = np.arange(num_switches, dtype=np.int64) - np.repeat(first, counts)
    node_weight = half ** np.arange(n - 1, -1, -1, dtype=np.int64)
    weight = node_weight[1:]
    switch_digits = in_level[:, None] // weight
    switch_digits[:, 1:] %= half
    node_digits = np.arange(num_nodes, dtype=np.int64)[:, None] // node_weight
    node_digits[:, 1:] %= half

    num_leaves = num_switches - first[-1]
    per_leaf = num_nodes // num_leaves
    leaf_switch = np.arange(first[-1], num_switches, dtype=np.int32)
    attach_leaf = np.arange(num_nodes, dtype=np.int32) // per_leaf
    attach_switch = leaf_switch[attach_leaf]
    leaf_nodes = np.arange(num_nodes, dtype=np.int32).reshape(num_leaves, per_leaf)
    peer_node = np.full((num_switches, m), -1, np.int32)
    peer_node[leaf_switch, :per_leaf] = leaf_nodes
    # SW<w, l> port c reaches SW<w', l+1>, w' = w with digit l set to c;
    # the child's port w_l + m/2 leads back.
    peer_switch = np.full((num_switches, m), -1, np.int32)
    for lvl in range(n - 1):
        parent = np.arange(first[lvl], first[lvl + 1], dtype=np.int64)
        digit = switch_digits[parent, lvl]
        fanout = np.arange(m if lvl == 0 else half, dtype=np.int64)
        child = (
            first[lvl + 1]
            + (in_level[parent] - digit * weight[lvl])[:, None]
            + fanout * weight[lvl]
        )
        peer_switch[parent, : len(fanout)] = child
        peer_switch[child, (digit + half)[:, None]] = parent[:, None]
    arrays = FabricArrays(
        m=m,
        n=n,
        num_switches=num_switches,
        num_nodes=num_nodes,
        num_leaves=num_leaves,
        peer_switch=peer_switch,
        peer_node=peer_node,
        switch_level=switch_level,
        switch_digits=switch_digits,
        node_digits=node_digits,
        leaf_switch=leaf_switch,
        attach_switch=attach_switch,
        attach_leaf=attach_leaf,
        leaf_nodes=leaf_nodes,
    )
    ft._fabric_arrays = arrays
    return arrays


def _checked_port(
    port_matrix: np.ndarray, num_switches: int, num_lids: int
) -> np.ndarray:
    """``port_matrix`` as a contiguous int64 (switches, LIDs) array."""
    port = np.asarray(port_matrix, dtype=np.int64)
    if port.shape != (num_switches, num_lids):
        raise ValueError(
            f"port matrix must be {(num_switches, num_lids)}, "
            f"got {port.shape}"
        )
    return np.ascontiguousarray(port)


class TracedRoutes(NamedTuple):
    """Hop-by-hop routes, traced by :func:`trace_routes`.

    The leading axes index the routes (one axis per route, or leaf row
    by column from :func:`trace_columns`); the last axis of ``switch``
    and ``port`` is the hop.
    """

    #: switch index at each hop, -1 past the route's end.
    switch: np.ndarray
    #: 0-based out-port at each hop, -1 past the route's end.
    port: np.ndarray
    #: hop count of delivered routes, 0 for the rest.
    length: np.ndarray
    #: node index reached, -1 if none within the hop budget.
    delivered: np.ndarray
    #: the route met a port outside [0, m) and stopped there.
    bad_port: np.ndarray


#: Routes stepped together by :func:`trace_routes`; bounds the size of
#: each hop's temporary arrays.
_TRACE_CHUNK = 8192

#: Route-tensor cells (leaves x columns x hops) whose walks
#: :meth:`RouteKernel._advance` tests together; bounds its temporaries.
_MASK_CHUNK = 1 << 20

#: The per-route arrays a :class:`RouteKernel` writes when it advances.
_ROUTE_ARRAYS = ("route_switch", "route_port", "route_len", "delivered", "bad_port")


def trace_routes(
    arrays: FabricArrays,
    port: Union[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]],
    start: np.ndarray,
    cols: np.ndarray,
    steps: int,
) -> TracedRoutes:
    """Trace route ``i``: leave switch ``start[i]`` and forward on key
    ``cols[i]`` for at most ``steps`` hops.

    ``port`` gives the 0-based out-port of (switch ids, keys): either a
    port matrix with one row per switch, read at column ``key``, or a
    callable such as a scheme's ``output_port_batch``, whose keys are
    DLIDs.  Batched hop stepping over the routes still active: each hop
    looks up every active route's output port, resolves the peer
    through the flattened adjacency, and retires the routes that
    reached a node or met a port outside [0, m).  A route still active
    after ``steps`` hops stays undelivered.
    """
    count, m = len(start), arrays.m
    route_switch = np.full((count, steps), -1, np.int32)
    route_port = np.full((count, steps), -1, np.int32)
    route_len = np.zeros(count, np.int32)
    delivered = np.full(count, -1, np.int32)
    bad_port = np.zeros(count, bool)

    if callable(port):
        lookup = port
    else:
        width = port.shape[1]
        flat_port = port.reshape(-1)

        def lookup(cur: np.ndarray, col: np.ndarray) -> np.ndarray:
            return flat_port[cur * width + col]

    peer_switch = arrays.peer_switch.reshape(-1)
    peer_node = arrays.peer_node.reshape(-1)
    start, cols = np.asarray(start), np.asarray(cols)
    for lo in range(0, count, _TRACE_CHUNK):
        hi = min(lo + _TRACE_CHUNK, count)
        active = np.arange(lo, hi)
        cur = start[lo:hi].astype(np.int64)
        col = cols[lo:hi].astype(np.int64)
        for step in range(steps):
            hop = lookup(cur, col)
            ok = (hop >= 0) & (hop < m)
            if not ok.all():
                bad_port[active[~ok]] = True
                active, cur, col, hop = active[ok], cur[ok], col[ok], hop[ok]
            route_switch[active, step] = cur
            route_port[active, step] = hop
            link = cur * m + hop
            node = peer_node[link]
            arrived = node >= 0
            if arrived.any():
                done = active[arrived]
                delivered[done] = node[arrived]
                route_len[done] = step + 1
                stay = ~arrived
                active, col, link = active[stay], col[stay], link[stay]
            if not active.size:
                break
            cur = peer_switch[link].astype(np.int64)
    return TracedRoutes(route_switch, route_port, route_len, delivered, bad_port)


def trace_columns(
    arrays: FabricArrays, port: np.ndarray, lids: np.ndarray, steps: int
) -> TracedRoutes:
    """Trace DLID columns ``lids`` of ``port`` from every leaf switch:
    :func:`trace_routes` shaped (leaf row, column[, hop])."""
    F, K = arrays.num_leaves, len(lids)
    routes = trace_routes(
        arrays,
        port,
        np.repeat(arrays.leaf_switch, K),
        np.tile(np.asarray(lids, np.int64), F),
        steps,
    )
    return TracedRoutes(*(a.reshape(F, K, *a.shape[1:]) for a in routes))


class RouteKernel:
    """Compiled routes of one scheme, queryable with array indexing."""

    def __init__(self, scheme: RoutingScheme, port_matrix: np.ndarray):
        ft = scheme.ft
        self.scheme = scheme
        self.ft = ft
        self.m = ft.m
        self.n = ft.n
        self.num_switches = ft.num_switches
        self.num_nodes = ft.num_nodes
        self.num_lids = scheme.num_lids
        #: scalar parity: trace_path gives up after this many switches
        self.max_steps = 2 * ft.n + 2

        self.port = _checked_port(port_matrix, self.num_switches, self.num_lids)

        # -- adjacency, digits, levels (shared with flow-level) --------
        arrays = fabric_arrays(ft)
        self.arrays = arrays
        self.peer_switch = arrays.peer_switch
        self.peer_node = arrays.peer_node
        self.switch_level = arrays.switch_level
        self.switch_digits = arrays.switch_digits
        self.node_digits = arrays.node_digits

        # -- leaf row and LID index vectors ----------------------------
        self.num_leaves = arrays.num_leaves
        self.leaf_switch = arrays.leaf_switch
        self.attach_switch = arrays.attach_switch
        self.attach_leaf = arrays.attach_leaf
        self.leaf_nodes = arrays.leaf_nodes
        self.lid_owner = (
            np.arange(self.num_lids, dtype=np.int64) >> scheme.lmc
        ).astype(np.int32)

        self._trace_all()
        self._sel: Optional[np.ndarray] = None
        self._alpha_ln: Optional[np.ndarray] = None
        self._checks: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sel_weights: Optional[np.ndarray] = None
        self._sel_loads: Optional[np.ndarray] = None

    # -- alternate constructors ---------------------------------------
    @classmethod
    def from_scheme(cls, scheme: RoutingScheme) -> "RouteKernel":
        """Compile from the scheme's forwarding tables
        (:meth:`~repro.core.scheme.RoutingScheme.port_matrix`)."""
        return cls(scheme, scheme.port_matrix())

    @classmethod
    def from_lfts(cls, scheme: RoutingScheme, lfts) -> "RouteKernel":
        """Compile from programmed LFTs (physical 1-based ports)."""
        ft = scheme.ft
        mat = np.empty((ft.num_switches, scheme.num_lids), dtype=np.int64)
        for i, sw in enumerate(ft.switches):
            mat[i] = lfts[sw].as_array()
        mat -= 1
        return cls(scheme, mat)

    # ------------------------------------------------------------------
    # Batched hop stepping
    # ------------------------------------------------------------------
    def _trace_all(self) -> None:
        """Trace every (leaf, DLID) route with batched hop steps."""
        (
            self.route_switch,
            self.route_port,
            self.route_len,
            self.delivered,
            self.bad_port,
        ) = trace_columns(
            self.arrays, self.port, np.arange(self.num_lids), self.max_steps
        )

    def retraced(self, port_matrix: np.ndarray) -> "RouteKernel":
        """The kernel of ``port_matrix``: a copy of this kernel, moved to
        it by :meth:`_advance`.

        It equals ``RouteKernel(self.scheme, port_matrix)`` bit for bit,
        whatever tables this kernel was compiled from.  This kernel is
        never written, so a published snapshot holding it stays as it
        was.  Scheme- and topology-derived caches (the DLID matrix, the
        gcp table) carry over; route-derived ones start empty.
        """
        new = copy.copy(self)
        for name in _ROUTE_ARRAYS:
            setattr(new, name, getattr(self, name).copy())
        new._advance(port_matrix)
        return new

    def _advance(self, port_matrix: np.ndarray) -> None:
        """Follow a table change in place: retrace only the routes it
        can move.

        A delivered route whose recorded walk meets no changed (switch,
        DLID) entry takes the same hops through the new tables (by
        induction on the hops), so only the other routes are traced
        again: those meeting a changed entry, and every undelivered one,
        since a walk that met a port outside [0, m) does not record the
        switch it met it at.  The test reads ``route_switch`` over the
        changed columns only, a few columns at a time, which bounds its
        temporaries.  Writes this kernel's route arrays: the caller
        owns it (:meth:`retraced` copies first).
        """
        port = _checked_port(port_matrix, self.num_switches, self.num_lids)
        diff = port != self.port
        cols = np.flatnonzero(diff.any(axis=0))
        self.port = port
        self._checks = None
        self._sel_weights = None
        self._sel_loads = None
        if not cols.size:
            return
        chunk = max(1, _MASK_CHUNK // (self.num_leaves * self.max_steps))
        leaves, lids = [], []
        for lo in range(0, len(cols), chunk):
            col = cols[lo : lo + chunk]
            sw = self.route_switch[:, col]
            meets = (diff[np.maximum(sw, 0), col[:, None]] & (sw >= 0)).any(axis=2)
            leaf, k = np.nonzero(meets | (self.delivered[:, col] < 0))
            leaves.append(leaf)
            lids.append(col[k])
        leaf, lid = np.concatenate(leaves), np.concatenate(lids)
        routes = trace_routes(
            self.arrays, port, self.leaf_switch[leaf], lid, self.max_steps
        )
        self.route_switch[leaf, lid] = routes.switch
        self.route_port[leaf, lid] = routes.port
        self.route_len[leaf, lid] = routes.length
        self.delivered[leaf, lid] = routes.delivered
        self.bad_port[leaf, lid] = routes.bad_port

    # ------------------------------------------------------------------
    # Derived per-route properties (lazy)
    # ------------------------------------------------------------------
    def _route_checks(self) -> Tuple[np.ndarray, np.ndarray]:
        """(updown_ok, turn_id) per (leaf, DLID) route."""
        if self._checks is not None:
            return self._checks
        sw = self.route_switch
        valid = sw >= 0
        lev = self.switch_level[np.where(valid, sw, 0)]
        delta = lev[:, :, 1:] - lev[:, :, :-1]
        pair_ok = valid[:, :, 1:] & valid[:, :, :-1]
        descend = (delta > 0) & pair_ok
        ascend = (delta < 0) & pair_ok
        # descend seen strictly before position j (exclusive prefix OR)
        desc_before = np.zeros_like(descend)
        if descend.shape[2] > 1:
            desc_before[:, :, 1:] = np.cumsum(descend, axis=2)[:, :, :-1] > 0
        updown_ok = ~(ascend & desc_before).any(axis=2)
        # turning switch: first minimum level along the route
        lev_masked = np.where(valid, lev, np.iinfo(np.int32).max)
        turn_pos = lev_masked.argmin(axis=2)
        turn_id = np.take_along_axis(sw, turn_pos[:, :, None], axis=2)[:, :, 0]
        self._checks = (updown_ok, turn_id)
        return self._checks

    def _alpha_leaf_node(self) -> np.ndarray:
        """(num_leaves, num_nodes) gcp length between any source on a
        leaf and a destination node (== per-pair alpha for src != dst)."""
        if self._alpha_ln is None:
            ld = self.switch_digits[self.leaf_switch]  # (F, n-1)
            nd = self.node_digits[:, : self.n - 1]  # (N, n-1)
            eq = ld[:, None, :] == nd[None, :, :]
            self._alpha_ln = np.cumprod(eq, axis=2).sum(axis=2)
        return self._alpha_ln

    @property
    def selected(self) -> np.ndarray:
        """Dense (num_nodes, num_nodes) selected-DLID matrix."""
        if self._sel is None:
            self._sel = self.scheme.dlid_matrix()
        return self._sel

    def _set_selected(self, matrix: np.ndarray) -> None:
        """Install a precomputed DLID matrix (artifact-cache reuse)."""
        if matrix.shape != (self.num_nodes, self.num_nodes):
            raise ValueError(
                f"DLID matrix must be {(self.num_nodes,) * 2}, "
                f"got {matrix.shape}"
            )
        self._sel = matrix

    # ------------------------------------------------------------------
    # Scalar-oracle replay (error paths)
    # ------------------------------------------------------------------
    def _replay_scalar(self, src_id: int, dst_id: int, dlid: int) -> None:
        """Re-run one flagged route through the scalar oracle so the
        raised exception is exactly the scalar tracer's."""
        from repro.core import verification as scalar

        src, dst = self.ft.nodes[src_id], self.ft.nodes[dst_id]
        trace = scalar.trace_path(self.scheme, src, dst, dlid=dlid)
        scalar._check_minimal_and_updown(self.scheme, trace)
        raise scalar.RoutingError(  # pragma: no cover - oracle safety net
            f"kernel flagged route {src}->{dst} (DLID {dlid}) but the "
            "scalar oracle accepts it — kernel/scalar disagreement"
        )

    def _replay_delivery(self, src_id: int, dst_id: int, dlid: int) -> None:
        """Replay delivery only (the aggregate queries' failure mode)."""
        from repro.core import verification as scalar

        src, dst = self.ft.nodes[src_id], self.ft.nodes[dst_id]
        scalar.trace_path(self.scheme, src, dst, dlid=dlid)
        raise scalar.RoutingError(  # pragma: no cover - oracle safety net
            f"kernel flagged route {src}->{dst} (DLID {dlid}) but the "
            "scalar oracle accepts it — kernel/scalar disagreement"
        )

    def _any_source_on_leaf(self, leaf: int, excluding: int) -> int:
        for node_id in self.leaf_nodes[leaf]:
            if node_id != excluding:
                return int(node_id)
        raise RuntimeError(  # pragma: no cover - leaves have >= 2 nodes
            f"leaf row {leaf} has no source other than node {excluding}"
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def _lca_ok(
        self, turn_id: np.ndarray, alpha: np.ndarray, dst_digits: np.ndarray
    ) -> np.ndarray:
        """Turn switch is a least common ancestor: level == alpha and
        the first ``alpha`` label digits match the destination's."""
        tid = np.where(turn_id >= 0, turn_id, 0)
        ok = self.switch_level[tid] == alpha
        if self.n > 1:
            td = self.switch_digits[tid]  # (..., n-1)
            pos = np.arange(self.n - 1)
            prefix = (td == dst_digits[..., : self.n - 1]) | (
                pos >= alpha[..., None]
            )
            ok = ok & prefix.all(axis=-1)
        return ok

    def verify(
        self,
        *,
        pairs: Optional[Iterable[Tuple[NodeLabel, NodeLabel]]] = None,
        check_offsets: bool = True,
    ) -> int:
        """Vectorized :func:`~repro.core.verification.scalar_verify_scheme`
        (what :func:`~repro.core.verification.verify_scheme` runs).

        Same checks, same counting, scalar-identical exceptions (via
        oracle replay).  With ``pairs=None`` and ``check_offsets=True``
        the whole fabric is validated from the (leaf, DLID) route
        tensor directly — sources sharing a leaf share the work.
        """
        updown_ok, turn_id = self._route_checks()
        if pairs is None and check_offsets:
            owner = self.lid_owner  # (L,)
            alpha = self._alpha_leaf_node()[:, owner]  # (F, L)
            expected = 2 * (self.n - alpha) - 1
            ok = (
                (self.delivered == owner[None, :])
                & (self.route_len == expected)
                & updown_ok
                & self._lca_ok(turn_id, alpha, self.node_digits[owner])
            )
            if not ok.all():
                leaf, lix = np.argwhere(~ok)[0]
                dst_id = int(owner[lix])
                src_id = self._any_source_on_leaf(int(leaf), dst_id)
                self._replay_scalar(src_id, dst_id, int(lix) + 1)
            return self.num_lids * (self.num_nodes - 1)

        # Row-per-route mode: explicit pairs and/or selected DLIDs only.
        if pairs is None:
            grid = ~np.eye(self.num_nodes, dtype=bool)
            s_idx, d_idx = (a.astype(np.int64) for a in np.nonzero(grid))
        else:
            node_id = self.ft.node_id
            s_list: List[int] = []
            d_list: List[int] = []
            for src, dst in pairs:
                s_list.append(node_id(src))
                d_list.append(node_id(dst))
            s_idx = np.asarray(s_list, dtype=np.int64)
            d_idx = np.asarray(d_list, dtype=np.int64)
        if check_offsets:
            k = self.scheme.lids_per_node
            s_idx = np.repeat(s_idx, k)
            d_idx = np.repeat(d_idx, k)
            lids = d_idx * k + 1 + np.tile(np.arange(k), len(s_idx) // k)
        else:
            degenerate = np.nonzero(s_idx == d_idx)[0]
            if degenerate.size:  # scalar path-selection error parity
                row = int(degenerate[0])
                self._replay_scalar(int(s_idx[row]), int(d_idx[row]), 0)
            lids = self.selected[s_idx, d_idx]
        leaf = self.attach_leaf[s_idx]
        lix = lids - 1
        alpha = self._alpha_leaf_node()[leaf, d_idx]
        expected = 2 * (self.n - alpha) - 1
        ok = (
            (self.delivered[leaf, lix] == d_idx)
            & (self.route_len[leaf, lix] == expected)
            & updown_ok[leaf, lix]
            & self._lca_ok(turn_id[leaf, lix], alpha, self.node_digits[d_idx])
        )
        if not ok.all():
            row = int(np.nonzero(~ok)[0][0])
            self._replay_scalar(
                int(s_idx[row]), int(d_idx[row]), int(lids[row])
            )
        return int(len(s_idx))

    # ------------------------------------------------------------------
    # Aggregate static queries
    # ------------------------------------------------------------------
    def _all_to_one_rows(
        self, dst: NodeLabel
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """(leaf rows, lid indices) of every source's selected route to
        ``dst``, delivery-checked against the scalar oracle on failure."""
        d = self.ft.node_id(dst)
        s_idx = np.delete(np.arange(self.num_nodes, dtype=np.int64), d)
        lids = self.selected[s_idx, d]
        leaf = self.attach_leaf[s_idx]
        lix = lids - 1
        bad = self.delivered[leaf, lix] != d
        if bad.any():
            row = int(np.nonzero(bad)[0][0])
            self._replay_delivery(int(s_idx[row]), d, int(lids[row]))
        return leaf, lix, d

    def lca_usage(self, dst: NodeLabel) -> Counter:
        """Turning-switch histogram of all-to-one traffic to ``dst``
        (backs :func:`~repro.core.verification.lca_usage`)."""
        leaf, lix, _ = self._all_to_one_rows(dst)
        _, turn_id = self._route_checks()
        counts = np.bincount(
            turn_id[leaf, lix], minlength=self.num_switches
        )
        switches = self.ft.switches
        return Counter(
            {switches[i]: int(c) for i, c in enumerate(counts) if c}
        )

    def link_loads_all_to_one(self, dst: NodeLabel) -> Counter:
        """Per-channel all-to-one loads to ``dst`` (backs
        :func:`~repro.core.verification.link_loads_all_to_one`)."""
        leaf, lix, _ = self._all_to_one_rows(dst)
        sw = self.route_switch[leaf, lix]  # (R, steps)
        ports = self.route_port[leaf, lix]
        valid = sw >= 0
        enc = sw[valid].astype(np.int64) * self.m + ports[valid]
        counts = np.bincount(enc, minlength=self.num_switches * self.m)
        switches = self.ft.switches
        return Counter(
            {
                (switches[i // self.m], int(i % self.m)): int(c)
                for i, c in enumerate(counts)
                if c
            }
        )

    def accumulate_link_loads(self, weights: np.ndarray) -> np.ndarray:
        """Accumulate per-(switch, port) loads over the route tensor.

        ``weights`` is a ``(num_leaves, num_lids)`` array: the traffic
        weight riding route ``(leaf, DLID)``.  Every (switch, out-port)
        channel on that route — inter-switch hops *and* the final
        ejection hop — receives the route's weight; the result is the
        ``(num_switches, m)`` load matrix.

        This is the flow-level evaluator's load-accumulation primitive:
        with integer weights the float64 accumulation is exact (route
        counts are far below 2**53), so
        ``accumulate_link_loads(one_hot_selected_routes)`` is
        *bit-identical* to :meth:`link_loads_all_to_one` — asserted in
        ``tests/core/test_kernel.py`` and used as the oracle for the
        streaming tracer of :mod:`repro.experiments.flowlevel`.
        """
        w = np.asarray(weights)
        if w.shape != (self.num_leaves, self.num_lids):
            raise ValueError(
                f"weights must be {(self.num_leaves, self.num_lids)}, "
                f"got {w.shape}"
            )
        sw = self.route_switch
        valid = sw >= 0
        enc = sw[valid].astype(np.int64) * self.m + self.route_port[valid]
        wf = np.broadcast_to(w[:, :, None], sw.shape)[valid]
        loads = np.bincount(
            enc, weights=wf, minlength=self.num_switches * self.m
        )
        return loads.reshape(self.num_switches, self.m)

    # ------------------------------------------------------------------
    # Snapshot-view queries (the route-query service's primitives)
    # ------------------------------------------------------------------
    def crossing_mask(self, switch_id: int, port: int) -> np.ndarray:
        """(num_leaves, num_lids) bool: route (leaf, DLID) traverses the
        directed channel (switch, 0-based out-port).

        This is the raw "which routes cross link L?" primitive the
        route-query service (:mod:`repro.service`) answers from — pure
        array comparison over the compiled route tensor, no copies.
        """
        if not 0 <= switch_id < self.num_switches:
            raise ValueError(
                f"switch id must be in [0, {self.num_switches}), got {switch_id}"
            )
        if not 0 <= port < self.m:
            raise ValueError(f"port must be in [0, {self.m}), got {port}")
        return (
            (self.route_switch == switch_id) & (self.route_port == port)
        ).any(axis=2)

    def selected_route_weights(self) -> np.ndarray:
        """(num_leaves, num_lids) count of (src, dst) flows riding each
        route class under the scheme's path selection (cached).

        ``weights[f, lix]`` is the number of ordered (src, dst) pairs
        whose source attaches to leaf row ``f`` and whose selected DLID
        is ``lix + 1`` — i.e. one uniform all-to-all round expressed in
        the kernel's (leaf, DLID) route-class coordinates.  Feeding it
        to :meth:`accumulate_link_loads` yields the static link-load
        estimate the service's ``load`` query serves.
        """
        if self._sel_weights is None:
            sel = self.selected
            src, dst = np.nonzero(sel)
            enc = self.attach_leaf[src].astype(np.int64) * self.num_lids + (
                sel[src, dst] - 1
            )
            counts = np.bincount(
                enc, minlength=self.num_leaves * self.num_lids
            ).reshape(self.num_leaves, self.num_lids)
            counts.setflags(write=False)
            self._sel_weights = counts
        return self._sel_weights

    def estimated_link_loads(self) -> np.ndarray:
        """(num_switches, m) flows-per-channel estimate (cached): the
        selected-route weights accumulated over the route tensor."""
        if self._sel_loads is None:
            loads = self.accumulate_link_loads(self.selected_route_weights())
            loads.setflags(write=False)
            self._sel_loads = loads
        return self._sel_loads

    def flows_crossing(
        self, switch_id: int, port: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(src_ids, dst_ids) of every (src, dst) flow whose *selected*
        route traverses the channel (switch, 0-based out-port).

        A flow is an ordered (src, dst) pair; its route is the walk of
        the scheme-selected DLID.  Both arrays are int64 and aligned:
        flow ``i`` is ``src_ids[i] -> dst_ids[i]``.
        """
        mask = self.crossing_mask(switch_id, port)
        sel = self.selected
        lix = np.where(sel > 0, sel - 1, 0)
        cross = mask[self.attach_leaf[:, None], lix] & (sel > 0)
        src_ids, dst_ids = np.nonzero(cross)
        return src_ids.astype(np.int64), dst_ids.astype(np.int64)

    def cdg_edges(self) -> List[Tuple[Tuple[SwitchLabel, int], ...]]:
        """Channel-dependency edges over **all** (leaf, DLID) routes —
        the same edge set the scalar extraction collects over every
        (src, dst, DLID) triple, since each leaf hosts ≥ 2 nodes."""
        bad = self.delivered != self.lid_owner[None, :]
        if bad.any():
            leaf, lix = np.argwhere(bad)[0]
            dst_id = int(self.lid_owner[lix])
            src_id = self._any_source_on_leaf(int(leaf), dst_id)
            self._replay_delivery(src_id, dst_id, int(lix) + 1)
        enc = np.where(
            self.route_switch >= 0,
            self.route_switch.astype(np.int64) * self.m + self.route_port,
            -1,
        )
        a, b = enc[:, :, :-1], enc[:, :, 1:]
        mask = (a >= 0) & (b >= 0)
        held, wanted = a[mask], b[mask]
        uniq = np.unique(held * (self.num_switches * self.m) + wanted)
        switches = self.ft.switches
        base = self.num_switches * self.m

        def channel(code: int) -> Tuple[SwitchLabel, int]:
            return switches[code // self.m], code % self.m

        return [
            (channel(int(e) // base), channel(int(e) % base)) for e in uniq
        ]

    def channel_dependency_graph(self):
        """The channel-dependency graph of every route (backs
        :func:`~repro.core.verification.channel_dependency_graph`)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_edges_from(self.cdg_edges())
        return g

    # ------------------------------------------------------------------
    # Single-route access (tests, CLI)
    # ------------------------------------------------------------------
    def path(
        self, src: NodeLabel, dst: NodeLabel, dlid: Optional[int] = None
    ):
        """One compiled route as a
        :class:`~repro.core.verification.PathTrace` (scalar-identical,
        including the exceptions raised for invalid routes)."""
        from repro.core import verification as scalar

        s, d = self.ft.node_id(src), self.ft.node_id(dst)
        if dlid is None:
            dlid = self.scheme.dlid(src, dst)
        if not 1 <= dlid <= self.num_lids:
            self.scheme.owner(dlid)  # raises the scalar ValueError
        leaf, lix = int(self.attach_leaf[s]), dlid - 1
        if int(self.delivered[leaf, lix]) != d:
            self._replay_delivery(s, d, dlid)
        length = int(self.route_len[leaf, lix])
        switches = self.ft.switches
        return scalar.PathTrace(
            src,
            dst,
            dlid,
            tuple(
                switches[i] for i in self.route_switch[leaf, lix, :length]
            ),
            tuple(int(p) for p in self.route_port[leaf, lix, :length]),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RouteKernel({self.scheme.name} on FT({self.m}, {self.n}), "
            f"{self.num_leaves}x{self.num_lids} routes)"
        )


def compile_kernel(scheme: RoutingScheme) -> RouteKernel:
    """Compile (and memoize on the scheme instance) a scheme's kernel.

    Schemes are immutable after construction, so the compiled kernel is
    cached on the instance — repeated static queries (verify + LCA
    histogram + link loads + CDG) share one compilation.
    """
    kernel = getattr(scheme, "_route_kernel", None)
    if kernel is None:
        kernel = RouteKernel.from_scheme(scheme)
        scheme._route_kernel = kernel
    return kernel
