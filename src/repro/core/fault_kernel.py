"""Vectorized fault-repair kernel: batched + incremental online re-route.

:class:`~repro.core.fault.FaultTolerantTables` repairs tables with one
pure-Python cost propagation per destination — exact, but
O(destinations x switches x ports) of interpreter work, which is what
the :class:`~repro.runtime.manager.DynamicSubnetManager` pays on every
online re-sweep.  :class:`FaultRepairKernel` computes the *same* repair
(bit-identical tables, same ``repaired_entries`` count, same
:class:`~repro.core.fault.DisconnectedError` on disconnection) as numpy
array sweeps:

* **compile once** — the fabric adjacency (peer switch / peer node /
  up-down edge masks in dense ``(switch, port)`` matrices) and the
  scheme's fault-free tables are fixed per scheme; the adjacency,
  levels and leaf plan are the route kernel's own
  :func:`~repro.core.kernel.fabric_arrays`, memoized on the
  :class:`FatTree` and only ever read here;
* **batch over leaves, not destinations** — ``down_cost`` / ``up_cost``
  and the candidate-port sets depend only on the destination's *leaf*
  (the descent cone is rooted at the leaf), so one level-synchronous
  sweep over an ``(switches, leaves)`` cost plane covers every
  destination at once — ``(m/2)`` times fewer columns than
  per-destination work;
* **single-pass up sweep** — the scalar's while-changed relaxation
  converges in its first root-first pass (an up move's target is one
  level *up*, already final when a row is processed), so one sweep in
  level order 1..n-1 reproduces the fixpoint *and* its tie sets;
* **gather-only entry stage** — entry survival collapses to a
  precomputed ``(switch, port, leaf)`` boolean plane, so repairing the
  full ``(switch, LID)`` table is a handful of fancy gathers per slab;
* **incremental re-sweeps** — given the delta between the previous and
  current fault sets, recompute only the leaf columns whose descent
  cone provably changed (exactly the columns where a delta link's
  child switch was cone-interior before the delta), re-derive the up
  fields of the delta endpoints on the remaining columns, cascade any
  *value* change as a full column recompute, and patch the cached
  entry plane only on the changed column slabs plus the delta-endpoint
  row slabs.  ``destinations_recomputed`` exposes the touched count.

The scalar path stays the oracle: the hypothesis suite in
``tests/core/test_fault_kernel.py`` asserts bit-identity on randomized
fault sets and fault *sequences*, ``tests/runtime/test_repair_kernel.py``
compares the live tables with :class:`FaultTolerantTables` after every
sweep of a flap storm, and ``run_failover``'s
``repair_matches_offline`` column checks each failover run against it.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple, Union

import numpy as np

from repro.core.fault import DisconnectedError, FaultSet, LinkId
from repro.core.kernel import fabric_arrays
from repro.core.scheme import RoutingScheme
from repro.topology.fattree import FatTree
from repro.topology.labels import SwitchLabel, format_switch

__all__ = ["FaultRepairKernel", "RepairedTables"]

#: Unreachable-cost sentinel; hop counts stay far below it, and +1
#: never wraps int32.
_INF = np.int32(1 << 28)

#: LID columns per entry-stage slab: bounds the peak temporary to a few
#: MB even on FT(16,3)'s 65536-LID plane.
_LID_CHUNK = 8192

_LidSel = Union[slice, np.ndarray]


class RepairedTables:
    """One repair result: a snapshot of the kernel's table plane.

    Shares the scalar read surface of
    :class:`~repro.core.fault.FaultTolerantTables`
    (``repaired_entries``, ``output_port``, ``as_scheme``); the tables
    themselves are one read-only (switches × LIDs) ``array``, the
    matrix the delta-programming path diffs.
    """

    __slots__ = ("scheme", "ft", "faults", "array", "repaired_entries")

    def __init__(
        self,
        kernel: "FaultRepairKernel",
        faults: FaultSet,
        array: np.ndarray,
        repaired_entries: int,
    ):
        self.scheme = kernel.scheme
        self.ft = kernel.ft
        self.faults = faults
        array.setflags(write=False)
        #: ``array[switch_id, lid - 1] -> 0-based out port`` (int16).
        self.array = array
        self.repaired_entries = repaired_entries

    def output_port(self, sw: SwitchLabel, lid: int) -> int:
        """Repaired 0-based out port (same surface as RoutingScheme)."""
        return int(self.array[self.ft.switch_id(sw), lid - 1])

    def as_scheme(self) -> RoutingScheme:
        """Wrap the repaired tables as a RoutingScheme (the
        :class:`~repro.core.fault._RepairedScheme` facade is duck-typed
        over ``scheme`` / ``ft`` / ``output_port``)."""
        from repro.core.fault import _RepairedScheme

        return _RepairedScheme(self)


class FaultRepairKernel:
    """Batched/incremental repair engine for one routing scheme.

    Stateful: each :meth:`repair` call caches the cost planes,
    candidate sets and repaired tables of its fault set, so the next
    call can repair *incrementally* from the symmetric difference of
    the two link sets.  Results are immutable snapshots — holding an
    old :class:`RepairedTables` across later repairs is safe.
    """

    def __init__(self, scheme: RoutingScheme):
        self.scheme = scheme
        ft: FatTree = scheme.ft
        self.ft = ft
        self.num_switches = ft.num_switches
        self.num_lids = scheme.num_lids
        self.num_nodes = ft.num_nodes
        if ft.m >= 1 << 15:
            raise ValueError("switch arity exceeds the int16 port plane")

        num_s, num_p = ft.num_switches, ft.m
        # Dense adjacency (peer switch id / peer node pid per (sw, port)),
        # levels and the leaf plan, shared with the route kernel through
        # the FatTree's memoized FabricArrays: read, never written.
        fab = fabric_arrays(ft)
        self.peer_switch = fab.peer_switch
        self.peer_node = fab.peer_node
        self.switch_level = fab.switch_level
        self.level_rows = [
            np.flatnonzero(self.switch_level == lvl) for lvl in range(ft.n)
        ]
        is_down = np.zeros((num_s, num_p), dtype=bool)
        is_up = np.zeros((num_s, num_p), dtype=bool)
        for i, sw in enumerate(ft.switches):
            is_down[i, list(ft.down_ports(sw))] = True
            is_up[i, list(ft.up_ports(sw))] = True
        # Edge classification: a down/up port with a switch peer is a
        # down/up *move* (down ports at the leaf row attach nodes), so
        # the scalar's peer-level comparison reduces to these masks.
        has_peer = self.peer_switch >= 0
        self._edge_node = self.peer_node >= 0
        self._edge_down = is_down & has_peer
        self._edge_up = is_up & has_peer
        self._peer_safe = np.where(has_peer, self.peer_switch, 0)

        # Leaf plan: cost columns are per *leaf*, destinations map onto
        # them through their attachment.
        self.num_leaves = fab.num_leaves
        self.leaf_switch = fab.leaf_switch.astype(np.int64)
        self.attach_leaf = fab.attach_leaf.astype(np.int64)
        self.per_leaf = self.num_nodes // self.num_leaves
        node_leaf_port = fab.node_digits[:, ft.n - 1].astype(np.int16)
        # LID plan via the scheme's lid_set (dense by construction; the
        # SM's assign_lids() enforces this fabric-wide).
        owner = np.full(self.num_lids, -1, dtype=np.int64)
        for pid, node in enumerate(ft.nodes):
            for lid in scheme.lid_set(node):
                owner[lid - 1] = pid
        if (owner < 0).any():
            raise ValueError("scheme LID plan is not dense; cannot compile")
        self.lid_owner = owner
        self.lid_leaf = self.attach_leaf[owner]
        #: Destination-leaf node port per LID (the Case-1 entry).
        self.lid_leaf_port = node_leaf_port[owner]

        # Fault-free tables, 0-based — the exact plane the scalar
        # oracle repairs from.
        self.base = scheme.port_matrix().astype(np.int16)
        self._rows_all = np.arange(num_s, dtype=np.int64)

        # Per-repair counters (inspected by tests and the runtime).
        self.last_mode: Optional[str] = None
        self.destinations_recomputed = 0
        self.leaves_recomputed = 0
        self.repairs = 0
        self._reset_state()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def _reset_state(self) -> None:
        """Drop the incremental cache (next repair is a full one)."""
        self._faults: Optional[FrozenSet[LinkId]] = None
        self._alive: Optional[np.ndarray] = None  # (S, P) bool
        self._first_alive: Optional[np.ndarray] = None  # (S,) int16
        self._dc: Optional[np.ndarray] = None  # (S, F) int32 down_cost
        self._uc: Optional[np.ndarray] = None  # (S, F) int32 up_cost
        self._cnt: Optional[np.ndarray] = None  # (S, F) int32 tie-set size
        self._rank: Optional[np.ndarray] = None  # (S, P, F) int16 tie order
        self._ok3: Optional[np.ndarray] = None  # (S, P, F) entry survives
        self._tables: Optional[np.ndarray] = None  # (S, L) int16
        self._broken: Optional[np.ndarray] = None  # (S, L) bool

    def reset(self) -> None:
        """Public cache drop: the next repair is a full one (tests use
        it to start each case from a cold cache)."""
        self._reset_state()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def repair(
        self, faults: FaultSet, *, incremental: bool = True
    ) -> RepairedTables:
        """Repaired tables for ``faults``; bit-identical to the scalar
        :class:`~repro.core.fault.FaultTolerantTables`.

        With ``incremental`` (default) the sweep reuses the previous
        call's cached cost planes where the fault delta provably cannot
        have changed them; pass ``incremental=False`` to force a full
        batched recompute (the cache is refreshed either way).
        """
        links = frozenset(faults.links)
        self.repairs += 1
        try:
            if incremental and self._faults is not None:
                if links == self._faults:
                    self.last_mode = "cached"
                    self.leaves_recomputed = 0
                    self.destinations_recomputed = 0
                else:
                    self._repair_incremental(links)
            else:
                self._repair_full(links)
        except DisconnectedError:
            # A half-updated cache is unusable; the next call recomputes.
            self._reset_state()
            raise
        return RepairedTables(
            self, faults, self._tables.copy(), int(np.count_nonzero(self._broken))
        )

    # ------------------------------------------------------------------
    # Full batched repair
    # ------------------------------------------------------------------
    def _alive_mask(self, links: FrozenSet[LinkId]) -> np.ndarray:
        alive = np.ones((self.num_switches, self.ft.m), dtype=bool)
        for link in links:
            for sw, port in link:
                alive[self.ft.switch_id(sw), port] = False
        return alive

    def _repair_full(self, links: FrozenSet[LinkId]) -> None:
        num_s, num_p, num_f = self.num_switches, self.ft.m, self.num_leaves
        self._alive = self._alive_mask(links)
        self._first_alive = np.argmax(self._alive, axis=1).astype(np.int16)
        self._dc = np.full((num_s, num_f), _INF, dtype=np.int32)
        self._uc = np.full((num_s, num_f), _INF, dtype=np.int32)
        self._cnt = np.zeros((num_s, num_f), dtype=np.int32)
        self._rank = np.zeros((num_s, num_p, num_f), dtype=np.int16)
        self._ok3 = np.zeros((num_s, num_p, num_f), dtype=bool)
        bad: List[Tuple[int, int]] = []
        self._sweep_columns(np.arange(num_f), recompute_down=True, bad_out=bad)
        self._raise_if_disconnected(bad, len(links))
        self._tables = np.empty_like(self.base)
        self._broken = np.empty((num_s, self.num_lids), dtype=bool)
        for start in range(0, self.num_lids, _LID_CHUNK):
            sel = slice(start, min(start + _LID_CHUNK, self.num_lids))
            out, broken = self._entries(None, sel)
            self._tables[:, sel] = out
            self._broken[:, sel] = broken
        self._faults = links
        self.last_mode = "full"
        self.leaves_recomputed = num_f
        self.destinations_recomputed = self.num_nodes

    # ------------------------------------------------------------------
    # Cost sweeps
    # ------------------------------------------------------------------
    def _sweep_columns(
        self,
        cols: np.ndarray,
        *,
        recompute_down: bool,
        bad_out: List[Tuple[int, int]],
    ) -> None:
        """Recompute every cost/candidate field for the leaf columns
        ``cols`` against the current alive mask, write them into the
        cache, and append any disconnected ``(column, leaf row)`` pair
        to ``bad_out`` (the caller raises on the globally-first one,
        matching the scalar's PID-order :class:`DisconnectedError`)."""
        num_c = cols.size
        if recompute_down:
            # Descent cone, level-synchronous from the leaf row up: a
            # switch's cost is 1 + min over alive down links into the
            # cone (the scalar's per-level growth, all columns at once).
            dc = np.full((self.num_switches, num_c), _INF, dtype=np.int32)
            dc[self.leaf_switch[cols], np.arange(num_c)] = 0
            for level in range(self.ft.n - 2, -1, -1):
                rows = self.level_rows[level]
                valid = self._edge_down[rows] & self._alive[rows]
                peer_cost = np.where(
                    valid[:, :, None], dc[self._peer_safe[rows]], _INF
                )
                best = peer_cost.min(axis=1)
                dc[rows] = np.where(best < _INF, best + 1, _INF)
            self._dc[:, cols] = dc
        else:
            dc = self._dc[:, cols]
        in_cone = dc < _INF

        # Ascent costs + up-tie sets, one pass in level order (targets
        # sit one level up, so they are final when a row is processed —
        # exactly the scalar relaxation's first root-first pass, after
        # which it is stable).
        uc = np.full((self.num_switches, num_c), _INF, dtype=np.int32)
        cand = np.zeros((self.num_switches, self.ft.m, num_c), dtype=bool)
        for level in range(1, self.ft.n):
            rows = self.level_rows[level]
            valid = self._edge_up[rows] & self._alive[rows]
            safe = self._peer_safe[rows]
            target = np.where(in_cone[safe], dc[safe], uc[safe])
            target = np.where(valid[:, :, None], target, _INF)
            best = target.min(axis=1)
            row_cone = in_cone[rows]
            uc[rows] = np.where(
                row_cone, _INF, np.where(best < _INF, best + 1, _INF)
            )
            cand[rows] = (
                valid[:, :, None]
                & (target == best[:, None, :])
                & ~row_cone[:, None, :]
                & (best < _INF)[:, None, :]
            )

        # Peer cost planes over every port at once, reused for the
        # down-tie sets and the entry-survival plane.
        peer_dc = dc[self._peer_safe]
        peer_uc = uc[self._peer_safe]
        alive3 = self._alive[:, :, None]

        # Down-tie sets for cone-interior switches (cost > 0): alive
        # down links whose peer is exactly one step closer.
        down_cost = np.where(self._edge_down[:, :, None] & alive3, peer_dc, _INF)
        cand |= (
            (down_cost + 1 == dc[:, None, :])
            & in_cone[:, None, :]
            & (dc > 0)[:, None, :]
        )

        # Entry survival per (switch, port, column): alive, and the
        # next hop still makes progress (node delivery; down move
        # staying in the cone; up move with any finite route).
        peer_fin = peer_dc < _INF
        ok = self._edge_node[:, :, None] | (
            np.where(self._edge_down[:, :, None], peer_fin, peer_fin | (peer_uc < _INF))
            & ~self._edge_node[:, :, None]
        )
        ok &= alive3

        # Connectivity: every leaf must reach every destination.
        leaf_dc = dc[self.leaf_switch]
        leaf_uc = uc[self.leaf_switch]
        dead = (leaf_dc == _INF) & (leaf_uc == _INF)
        if dead.any():
            for local in np.flatnonzero(dead.any(axis=0)):
                leaf_row = int(np.flatnonzero(dead[:, local])[0])
                bad_out.append((int(cols[local]), leaf_row))

        self._uc[:, cols] = uc
        self._cnt[:, cols] = cand.sum(axis=1, dtype=np.int32)
        self._rank[:, :, cols] = np.argsort(
            ~cand, axis=1, kind="stable"
        ).astype(np.int16)
        self._ok3[:, :, cols] = ok

    def _raise_if_disconnected(
        self, bad: List[Tuple[int, int]], num_faults: int
    ) -> None:
        """Scalar-parity raise: the scalar reports the first failing
        destination in PID order (PIDs are contiguous per leaf column)
        and, for it, the first failing leaf in label order — i.e. the
        minimum (column, leaf row) pair over every sweep."""
        if not bad:
            return
        col, leaf_row = min(bad)
        dst = self.ft.nodes[col * self.per_leaf]
        leaf = self.ft.switches[int(self.leaf_switch[leaf_row])]
        raise DisconnectedError(
            f"{format_switch(*leaf)} cannot reach node {dst} "
            f"under {num_faults} failed links"
        )

    def _row_up(self, row: int, cols: np.ndarray) -> np.ndarray:
        """Recompute one switch's up/survival fields on ``cols`` in
        place; returns the boolean mask of columns whose up_cost
        *value* changed (only value changes propagate to other rows)."""
        safe = self._peer_safe[row]
        alive = self._alive[row]
        peer_dc = self._dc[np.ix_(safe, cols)]
        peer_uc = self._uc[np.ix_(safe, cols)]
        peer_fin = peer_dc < _INF
        valid = self._edge_up[row] & alive
        target = np.where(peer_fin, peer_dc, peer_uc)
        target = np.where(valid[:, None], target, _INF)
        best = target.min(axis=0)
        row_cone = self._dc[row, cols] < _INF
        cost = np.where(
            row_cone, _INF, np.where(best < _INF, best + 1, _INF)
        ).astype(np.int32)
        cand = (
            valid[:, None]
            & (target == best[None, :])
            & ~row_cone[None, :]
            & (best < _INF)[None, :]
        )
        changed = cost != self._uc[row, cols]
        self._uc[row, cols] = cost
        self._cnt[row, cols] = cand.sum(axis=0, dtype=np.int32)
        self._rank[row][:, cols] = np.argsort(
            ~cand, axis=0, kind="stable"
        ).astype(np.int16)
        ok = self._edge_node[row][:, None] | (
            np.where(
                self._edge_down[row][:, None], peer_fin, peer_fin | (peer_uc < _INF)
            )
            & ~self._edge_node[row][:, None]
        )
        ok &= alive[:, None]
        self._ok3[row][:, cols] = ok
        return changed

    # ------------------------------------------------------------------
    # Incremental repair
    # ------------------------------------------------------------------
    def _repair_incremental(self, links: FrozenSet[LinkId]) -> None:
        delta = links ^ self._faults
        ft = self.ft
        children: List[int] = []
        endpoints: List[int] = []
        for link in delta:
            (sw_a, _), (sw_b, _) = tuple(link)
            ia, ib = ft.switch_id(sw_a), ft.switch_id(sw_b)
            children.append(ib if self.switch_level[ib] > self.switch_level[ia] else ia)
            endpoints.extend((ia, ib))
        children = sorted(set(children), key=lambda i: int(self.switch_level[i]))

        # Cone-changed columns: exactly those where a delta link's
        # child switch was cone-interior *before* the delta.  (A new
        # descent path's lowest new link descends from its child over
        # old links, and a lost path descended through its child — both
        # require the child's previous down_cost to be finite.)
        cone_cols = (self._dc[children] < _INF).any(axis=0)
        if int(cone_cols.sum()) > self.num_leaves // 2:
            # The delta touches most of the plane; a full batched sweep
            # is cheaper than patching.
            self._repair_full(links)
            return

        self._alive = self._alive_mask(links)
        self._first_alive = np.argmax(self._alive, axis=1).astype(np.int16)
        bad: List[Tuple[int, int]] = []
        if cone_cols.any():
            self._sweep_columns(
                np.flatnonzero(cone_cols), recompute_down=True, bad_out=bad
            )

        # On the remaining columns the cones are unchanged, but the
        # delta endpoints' *up* fields may move (their alive up-port
        # sets changed).  Re-derive those rows (level order: a deeper
        # dirty row sees the shallower one's fresh values); any value
        # change can cascade to other switches, so those columns get a
        # full up-field recompute.
        cascade = np.zeros(self.num_leaves, dtype=bool)
        rest = np.flatnonzero(~cone_cols)
        if rest.size:
            for row in children:
                changed = self._row_up(row, rest)
                cascade[rest[changed]] = True
        if cascade.any():
            self._sweep_columns(
                np.flatnonzero(cascade), recompute_down=False, bad_out=bad
            )
        self._raise_if_disconnected(bad, len(links))

        # Entry stage on the sound slabs: every switch for the LIDs of
        # changed columns, plus the delta-endpoint rows for every LID
        # (their alive masks / tie sets may have changed on unchanged
        # columns too — e.g. a revived port rejoining a tie).
        changed_cols = cone_cols | cascade
        lid_idx = np.flatnonzero(changed_cols[self.lid_leaf])
        for start in range(0, lid_idx.size, _LID_CHUNK):
            lids = lid_idx[start : start + _LID_CHUNK]
            out, broken = self._entries(None, lids)
            self._tables[:, lids] = out
            self._broken[:, lids] = broken
        # Not np.unique: numpy 2.4's imports numpy.ma on its first call,
        # about 10 ms inside the first incremental repair.
        rows = np.array(sorted(set(endpoints)), dtype=np.int64)
        for start in range(0, self.num_lids, _LID_CHUNK):
            sel = slice(start, min(start + _LID_CHUNK, self.num_lids))
            out, broken = self._entries(rows, sel)
            self._tables[rows, sel] = out
            self._broken[rows, sel] = broken

        self._faults = links
        self.last_mode = "incremental"
        self.leaves_recomputed = int(changed_cols.sum())
        self.destinations_recomputed = self.leaves_recomputed * self.per_leaf

    # ------------------------------------------------------------------
    # Entry stage
    # ------------------------------------------------------------------
    def _entries(
        self, rows: Optional[np.ndarray], lids: _LidSel
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Repaired entries + broken mask for a (rows x lids) slab
        (``rows=None`` means every switch; ``lids`` is a slice or an
        index array of 0-based LIDs).

        Reproduces the scalar keep-or-repair decision per entry: keep
        the base port iff its link is alive and its next hop still
        makes progress; otherwise the destination leaf's node port, the
        DLID-rotated tie-set survivor, or the first alive port.
        """
        if rows is None:
            ridx = self._rows_all
            base = self.base[:, lids]
        else:
            ridx = rows
            base = self.base[rows][:, lids]
        if isinstance(lids, slice):
            lid_vals = np.arange(lids.start, lids.stop, dtype=np.int64)
        else:
            lid_vals = lids
        cols = self.lid_leaf[lids]

        rsel = ridx[:, None]
        csel = cols[None, :]
        ok = self._ok3[rsel, base, csel]
        count = self._cnt[rsel, csel]
        pick = lid_vals[None, :] % np.maximum(count, 1)
        rotated = self._rank[rsel, pick, csel]
        at_leaf = rsel == self.leaf_switch[cols][None, :]
        leaf_port = self.lid_leaf_port[lids][None, :]
        first_alive = self._first_alive[ridx][:, None]
        repaired = np.where(
            at_leaf, leaf_port, np.where(count > 0, rotated, first_alive)
        )
        return np.where(ok, base, repaired), ~ok

