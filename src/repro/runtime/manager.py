"""The dynamic subnet manager: online failure handling in a live run.

:class:`DynamicSubnetManager` wraps a built
:class:`~repro.ib.subnet.Subnet` and a
:class:`~repro.runtime.schedule.FaultSchedule` and drives the full
failure lifecycle *inside* the discrete-event simulation:

1. **Physical event** — at the scheduled time the affected
   :class:`~repro.ib.link.Transmitter` pair is failed (in-flight
   packet lost, buffered packets dropped, stale LFT entries keep
   black-holing traffic into the dead port) or revived (flow control
   restarts from the receiver's actual free slots).
2. **Detection** — the SM learns about the change via the
   :class:`~repro.runtime.detection.TrapDetector`
   (``SimConfig.detection_latency_ns``, optional heartbeat
   quantization).
3. **Re-sweep** — the SM snapshots the fabric's current port state
   (sweep semantics: simultaneous failures coalesce into one repair)
   and computes target tables with the vectorized
   :class:`~repro.core.fault_kernel.FaultRepairKernel` (incremental
   across consecutive sweeps; bit-identical to the offline
   :class:`~repro.core.fault.FaultTolerantTables`, which the tests
   check after every sweep) — or, when every link is back, restores
   the kernel's fault-free ``base``, the port matrix the initial sweep
   programmed, bit for bit.
4. **Delta programming** — only switches whose table moved are
   reprogrammed, one ``SimConfig.sm_program_time_ns`` apart, through
   the existing :attr:`SwitchModel.lft` swap path (which re-hoists the
   dense forwarding array into every input unit).  The 0-based
   paper-port → 1-based physical-port conversion is the Subnet
   Manager's own (:meth:`repro.ib.sm.SubnetManager.program_delta`).
5. **Metrics** — each completed re-route appends a
   :class:`ReroutingRecord`; :meth:`DynamicSubnetManager.metrics`
   summarizes time-to-detect, time-to-repair, packets lost, flows
   rerouted and post-repair path-length inflation.  A route depends
   only on (source leaf, DLID), so the flow statistics read the flows
   whose DLID column the repair changed off the live kernel, before
   and after the sweep advances it.

One copy of the forwarding state: the live tables are a single
(switches × LIDs) 0-based port matrix.  Between sweeps it *is* the
live :class:`~repro.core.kernel.RouteKernel`'s ``port``, read-only;
the first switch a sweep programs writes a copy (copy-on-write), and
the sweep's end hands that copy to the kernel, which only rebinds it.
The kernel therefore always holds the tables the current sweep
started from.  The shared :class:`~repro.ib.artifacts.RoutingArtifacts`
cache is never mutated (other subnets may hold the same instance);
the manager compiles its own kernel at construction and advances it
once per sweep, retracing only the routes whose walk crosses a
reprogrammed entry, so it equals a fresh compile of the switches'
current LFTs bit for bit.  :meth:`DynamicSubnetManager.live_kernel`
hands out that same object and marks it shared, so the next advance
copies it first: a kernel once handed out is never written, and
neither is any port matrix a kernel holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.fault import FaultSet, LinkId, link_id
from repro.core.fault_kernel import FaultRepairKernel
from repro.core.kernel import RouteKernel, fabric_arrays, trace_routes
from repro.ib.lft import LinearForwardingTable
from repro.ib.link import Transmitter
from repro.ib.sm import SubnetManager
from repro.ib.subnet import Subnet
from repro.runtime.detection import TrapDetector
from repro.runtime.schedule import FaultEvent, FaultSchedule
from repro.sim.engine import Event
from repro.topology.labels import SwitchLabel

__all__ = ["DynamicSubnetManager", "FailoverMetrics", "ReroutingRecord"]


@dataclass(frozen=True)
class ReroutingRecord:
    """One completed detection → repair cycle."""

    kind: str  # "down" or "up"
    t_event: float  # physical state change
    t_detected: float  # SM awareness
    t_repaired: float  # last delta-programmed switch done
    faults_known: int  # failed links the re-sweep routed around
    switches_programmed: int
    entries_changed: int
    flows_rerouted: int  # (src, dst) pairs whose selected path moved
    path_inflation: float  # mean repaired/minimal hop ratio, 1.0 if none

    @property
    def time_to_detect(self) -> float:
        return self.t_detected - self.t_event

    @property
    def time_to_repair(self) -> float:
        return self.t_repaired - self.t_event

    def to_dict(self) -> dict:
        """Stable, JSON-ready form (telemetry / ``failover --json``)."""
        return {
            "kind": self.kind,
            "t_event_ns": self.t_event,
            "t_detected_ns": self.t_detected,
            "t_repaired_ns": self.t_repaired,
            "time_to_detect_ns": self.time_to_detect,
            "time_to_repair_ns": self.time_to_repair,
            "faults_known": self.faults_known,
            "switches_programmed": self.switches_programmed,
            "entries_changed": self.entries_changed,
            "flows_rerouted": self.flows_rerouted,
            "path_inflation": self.path_inflation,
        }


@dataclass
class FailoverMetrics:
    """The failover metrics bundle of one simulation."""

    records: List[ReroutingRecord] = field(default_factory=list)
    packets_lost: int = 0

    def as_row(self) -> dict:
        """Flat summary row (report / CSV columns)."""
        downs = [r for r in self.records if r.kind == "down"]
        detect = [r.time_to_detect for r in self.records]
        repair = [r.time_to_repair for r in self.records]
        return {
            "reroutes": len(self.records),
            "time_to_detect": max(detect) if detect else math.nan,
            "time_to_repair": max(repair) if repair else math.nan,
            "packets_lost": self.packets_lost,
            "flows_rerouted": max((r.flows_rerouted for r in downs), default=0),
            "entries_changed": sum(r.entries_changed for r in self.records),
            "path_inflation": max(
                (r.path_inflation for r in downs), default=1.0
            ),
        }

    def to_dict(self) -> dict:
        """Stable, JSON-ready form: the :meth:`as_row` summary (NaN
        rendered as ``None``) plus the per-record detail.

        This is the one shape telemetry, the ``failover --json`` CLI
        and the route-query service all emit — consumers parse one
        schema instead of three hand-formatted variants.
        """
        summary = {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in self.as_row().items()
        }
        return {
            "summary": summary,
            "packets_lost": self.packets_lost,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        """:meth:`to_dict` serialized deterministically (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)


class DynamicSubnetManager:
    """Online SM: failure detection, re-routing and path migration."""

    def __init__(
        self,
        net: Subnet,
        schedule: Optional[FaultSchedule] = None,
        heartbeat_period_ns: Optional[float] = None,
    ):
        self.net = net
        self.engine = net.engine
        self.ft = net.ft
        self.scheme = net.scheme
        self.cfg = net.cfg
        self.schedule = schedule if schedule is not None else FaultSchedule(net.ft)
        if self.schedule.ft is not net.ft:
            raise ValueError("schedule was built against a different fabric")
        self.detector = TrapDetector(
            net.engine, net.cfg.detection_latency_ns, heartbeat_period_ns
        )
        self.sm = SubnetManager(net.scheme)
        #: physical state: links currently down.
        self.down_links: Set[LinkId] = set()
        #: physical state: switches downed by a ``switch_down`` event
        #: and not yet recovered.
        self.down_switches: Set[SwitchLabel] = set()
        #: the fault set the currently-programmed tables route around.
        self.programmed_faults: frozenset = frozenset()
        self.records: List[ReroutingRecord] = []
        # Re-sweep backend: the vectorized fault-repair kernel, compiled
        # lazily on the first faulty sweep; incremental across sweeps.
        self.fault_kernel: Optional[FaultRepairKernel] = None
        self._armed = False
        # (fault event, engine handle) per armed event, in time order.
        self._scheduled: List[Tuple[FaultEvent, Event]] = []
        # In-flight delta programming (one sweep at a time; a newer
        # sweep supersedes an unfinished one).
        self._pending_ctx: Optional[dict] = None
        # Bumped on every reprogrammed switch.
        self._generation = 0
        # The live kernel: the routes of the tables the last completed
        # sweep left (generation 0: the initial sweep's), advanced in
        # place once per sweep unless live_kernel() handed it out.  It
        # selects DLIDs by the subnet's own matrix; retraced copies
        # carry it.
        self._kernel = RouteKernel.from_lfts(self.scheme, self.live_lfts())
        self._kernel._set_selected(net.dlid_matrix())
        # The live tables, 0-based (``_live[switch_id, lid - 1] -> port``):
        # between sweeps the kernel's own port matrix.  Read-only while
        # a kernel holds it; _program_step writes a copy.
        self._live = self._kernel.port
        self._live.setflags(write=False)
        self._kernel_generation = 0
        self._kernel_shared = False
        # live_kernel()'s copy for a mid-sweep generation.
        self._mid_kernel: Optional[Tuple[int, RouteKernel]] = None
        # Migration statistics: every flow's leaf row, DLID index and
        # fault-free route length, in (src, dst) row-major order.
        self._flows = self._index_flows()
        #: Optional observer called as ``on_sweep(record)`` after each
        #: detection→repair cycle completes (including zero-delta
        #: sweeps).  Fired from inside the engine's callback, after the
        #: sweep's last table swap — the point where :attr:`generation`
        #: and the live LFTs are mutually consistent, which is what the
        #: route-query service's snapshot publisher
        #: (:class:`repro.service.SnapshotPublisher`) hooks.
        self.on_sweep: Optional[Callable[[ReroutingRecord], None]] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every fault event on the engine; returns the count.

        Call once, before running the simulation past the first event.
        """
        if self._armed:
            raise RuntimeError("schedule already armed")
        self._armed = True
        # Mid-repair, a switch not yet reprogrammed can send a packet to
        # one whose new entry points straight back: drop it, do not
        # raise (SwitchModel.drops_reflected).
        for model in self.net.switches.values():
            model.drops_reflected = True
        self._scheduled = [
            (
                event,
                self.engine.schedule(
                    event.time,
                    lambda ev=event: self._fire(ev),
                    label=event.action,
                ),
            )
            for event in self.schedule.sorted_events()
        ]
        return len(self._scheduled)

    def cancel_pending_faults(self) -> int:
        """Cancel every armed fault event that has not fired yet, except
        the first pending recovery of each link and switch that is down
        now; returns how many were cancelled.

        Running the engine dry afterwards ends the schedule early on a
        fabric with those recoveries applied, instead of playing out
        the rest of the timeline.  Call between engine runs: an event
        counts as fired once the clock has reached its time.
        """
        now = self.engine.now
        down = set(self.down_links) | self.down_switches
        cancelled = 0
        for event, handle in self._scheduled:
            if handle.time <= now or handle.cancelled:
                continue
            target = event.link if event.link is not None else event.switch
            if event.action.endswith("_up") and target in down:
                down.discard(target)  # keep only the first recovery
                continue
            handle.cancel()
            cancelled += 1
        return cancelled

    def _fire(self, event: FaultEvent) -> None:
        if event.action == "link_down":
            self._link_down(event.link)
        elif event.action == "link_up":
            self._link_up(event.link)
        elif event.action == "switch_down":
            self.down_switches.add(event.switch)
            for link in self._switch_links(event.switch):
                self._link_down(link, notice=False)
            self._notice("down")
        else:  # switch_up
            self.down_switches.discard(event.switch)
            for link in self._switch_links(event.switch):
                self._link_up(link, notice=False)
            self._notice("up")

    def _switch_links(self, sw: SwitchLabel) -> List[LinkId]:
        return [
            link_id(sw, port, ep.switch, ep.port)
            for port, ep in enumerate(self.ft.ports(sw))
            if ep.is_switch
        ]

    # ------------------------------------------------------------------
    # Physical state changes
    # ------------------------------------------------------------------
    def _directions(
        self, link: LinkId
    ) -> List[Tuple[Transmitter, SwitchLabel, int]]:
        """Both (transmitter, receiving switch, receiving port) of a link."""
        (a, ap), (b, bp) = tuple(link)
        return [
            (self.net.switches[a].tx[ap + 1], b, bp + 1),
            (self.net.switches[b].tx[bp + 1], a, ap + 1),
        ]

    def _link_down(self, link: LinkId, notice: bool = True) -> None:
        if link in self.down_links:
            return
        self.down_links.add(link)
        for tx, _, _ in self._directions(link):
            tx.fail()
        if notice:
            self._notice("down")

    def _link_up(self, link: LinkId, notice: bool = True) -> None:
        if link not in self.down_links:
            return
        self.down_links.discard(link)
        for tx, peer, phys in self._directions(link):
            # Link retraining: credits restart from the peer input
            # unit's actual free slots (packets that arrived before the
            # failure may still be queued there).
            rx = self.net.switches[peer].rx[phys]
            tx.revive([buf.free_slots for buf in rx.buffers])
        if notice:
            self._notice("up")

    # ------------------------------------------------------------------
    # Detection → re-sweep → delta programming
    # ------------------------------------------------------------------
    def _notice(self, kind: str) -> None:
        t_event = self.engine.now
        self.detector.notice(
            lambda: self._resweep(kind, t_event), label=f"detect-{kind}"
        )

    def _resweep(self, kind: str, t_event: float) -> None:
        """SM awareness fired: sweep port state, repair, program deltas."""
        t_detected = self.engine.now
        known = frozenset(self.down_links)  # sweep sees the live fabric
        if known == self.programmed_faults:
            # The last sweep — completed or still programming — already
            # targets exactly this fault set (e.g. a second trap for a
            # coalesced multi-link event): detected, zero delta.
            self._finish_record(kind, t_event, t_detected, t_detected, known, {})
            return
        # A newer sweep supersedes an unfinished one; completing it
        # advances the kernel, so the live tables are its port again.
        self._abort_pending()
        target = self._target(known)
        deltas = self.sm.program_delta(self._live, target)
        self.programmed_faults = known
        if not deltas:
            self._finish_record(kind, t_event, t_detected, t_detected, known, {})
            return
        # Program switch-by-switch: one MAD round per modified switch,
        # serially (fabric order is deterministic — program_delta
        # guarantees it).
        ctx = {
            "kind": kind,
            "t_event": t_event,
            "t_detected": t_detected,
            "known": known,
            "target": target,
            "items": list(deltas.items()),
            "programmed": 0,
            "events": [],
        }
        self._pending_ctx = ctx
        step = self.cfg.sm_program_time_ns
        for i, (sw, (lft, _changed)) in enumerate(ctx["items"]):
            ctx["events"].append(
                self.engine.schedule(
                    t_detected + (i + 1) * step,
                    lambda c=ctx, s=sw, table=lft: self._program_step(
                        c, s, table
                    ),
                    label="sm-program",
                )
            )

    def _target(self, known: frozenset) -> np.ndarray:
        """0-based port matrix the SM wants programmed for a fault set;
        full recovery restores the kernel's fault-free ``base``, the
        scheme's port matrix the initial sweep programmed."""
        if self.fault_kernel is None:
            self.fault_kernel = FaultRepairKernel(self.scheme)
        if not known:
            return self.fault_kernel.base
        return self.fault_kernel.repair(FaultSet(links=known)).array

    def _program_step(
        self, ctx: dict, sw: SwitchLabel, table: LinearForwardingTable
    ) -> None:
        """One SubnSet: swap the switch's LFT through the normal path;
        the live matrix takes the switch's row of the sweep's target."""
        self.net.switches[sw].lft = table
        if not self._live.flags.writeable:
            self._live = self._live.copy()  # a kernel holds the old one
        i = self.ft.switch_id(sw)
        self._live[i] = ctx["target"][i]
        self._generation += 1  # the live kernel advances at the sweep's end
        ctx["programmed"] += 1
        if ctx["programmed"] == len(ctx["items"]):
            self._pending_ctx = None
            self._complete_record(ctx)

    def _abort_pending(self) -> None:
        """Cancel an unfinished delta program (superseded by a newer
        sweep); the switches it did reach stay programmed and are
        recorded, the rest will be covered by the new sweep's delta."""
        ctx = self._pending_ctx
        if ctx is None:
            return
        for event in ctx["events"]:
            event.cancel()
        self._pending_ctx = None
        self._complete_record(ctx)

    def _complete_record(self, ctx: dict) -> None:
        deltas = dict(ctx["items"][: ctx["programmed"]])
        self._finish_record(
            ctx["kind"],
            ctx["t_event"],
            ctx["t_detected"],
            self.engine.now,
            ctx["known"],
            deltas,
        )

    def _finish_record(
        self,
        kind: str,
        t_event: float,
        t_detected: float,
        t_repaired: float,
        known: frozenset,
        deltas: Dict[SwitchLabel, Tuple[LinearForwardingTable, int]],
    ) -> None:
        flows, inflation = self._migration_stats(known) if deltas else (0, 1.0)
        record = ReroutingRecord(
            kind=kind,
            t_event=t_event,
            t_detected=t_detected,
            t_repaired=t_repaired,
            faults_known=len(known),
            switches_programmed=len(deltas),
            entries_changed=sum(c for _, c in deltas.values()),
            flows_rerouted=flows,
            path_inflation=inflation,
        )
        self.records.append(record)
        if self.on_sweep is not None:
            self.on_sweep(record)

    # ------------------------------------------------------------------
    # Migration statistics
    # ------------------------------------------------------------------
    def _migration_stats(
        self, known: frozenset, kernel: Optional[RouteKernel] = None
    ) -> Tuple[int, float]:
        """How many flows moved, and how much longer their paths got.

        A *flow* is a (src, dst) pair; its path is the walk of the
        selected DLID through the tables, from the source's leaf.  A
        walk still undelivered after ``2n + 2·max(1, |known|) + 2`` hops
        is "no path", and two of those count as the same path.  Only
        flows whose DLID column changed can move.  Inflation compares
        the new path length against the fault-free one, averaged over
        rerouted flows that still have a path.

        The tables before the sweep are ``kernel.port``; by default the
        kernel is the live one, which still holds them and which this
        call advances to the live tables.  Each compared flow's old
        route is read from it before the advance and its new route
        after.  The kernel's hop budget is ``2n + 2``: if a compared
        route is undelivered within it, in either kernel, the flows are
        walked through both tables instead (:meth:`_walk_flows`).
        """
        old = self._kernel if kernel is None else kernel
        before = old.port
        changed = (before != self._live).any(axis=0)
        flow_leaf, flow_lix, base_len = self._flows
        hit = changed[flow_lix]
        leaf, lix = flow_leaf[hit], flow_lix[hit]
        old_hops = old.route_port[leaf, lix]
        old_ok = old.delivered[leaf, lix] >= 0
        if kernel is None:
            new = self._advance_kernel()
        else:
            new = kernel.retraced(self._hand_over())
        new_ok = new.delivered[leaf, lix] >= 0
        if old_ok.all() and new_ok.all():
            moved = (old_hops != new.route_port[leaf, lix]).any(axis=1)
            length = new.route_len[leaf, lix]
        else:
            moved, new_ok, length = self._walk_flows(
                before, known, changed, leaf, lix
            )
        kept = moved & new_ok
        ratios = (length[kept] / base_len[hit][kept]).tolist()
        inflation = sum(ratios) / len(ratios) if ratios else 1.0
        return int(moved.sum()), inflation

    def _walk_flows(
        self,
        before: np.ndarray,
        known: frozenset,
        changed: np.ndarray,
        leaf: np.ndarray,
        lix: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(moved, new walk delivered, new length) of the flows at
        (``leaf``, ``lix``), walked through ``before`` and through the
        live tables side by side, in one batched hop stepper over the
        ``changed`` DLID columns, to the budget ``2n + 2·max(1, |known|)
        + 2``.  A flow moved if exactly one of its walks is delivered,
        or both are and their hops differ."""
        arrays = fabric_arrays(self.ft)
        start = arrays.leaf_switch[leaf]
        cols = np.flatnonzero(changed)
        col = np.searchsorted(cols, lix)
        switches = self.ft.switches
        port = np.concatenate([before[:, cols], self._live[:, cols]], axis=1)
        route_start = np.concatenate([start, start])
        route_col = np.concatenate([col, col + len(cols)])
        max_hops = 2 * self.ft.n + 2 * max(1, len(known)) + 2
        routes = trace_routes(arrays, port, route_start, route_col, max_hops)
        compared = len(lix)
        if routes.bad_port.any():
            # A walk asks the fabric for the bad port's peer, which
            # raises.  The first flow in (src, dst) order with a bad old
            # or new walk raises, and its old walk comes first.
            bad = routes.bad_port[:compared] | routes.bad_port[compared:]
            i = int(np.argmax(bad))
            i = i if routes.bad_port[i] else compared + i
            hops = int((routes.switch[i] >= 0).sum())
            sw = int(
                arrays.peer_switch[
                    routes.switch[i, hops - 1], routes.port[i, hops - 1]
                ]
                if hops
                else route_start[i]
            )
            self.ft.peer(switches[sw], int(port[sw, route_col[i]]))
        old_ok = routes.delivered[:compared] >= 0
        new_ok = routes.delivered[compared:] >= 0
        old_hops, new_hops = routes.port[:compared], routes.port[compared:]
        same_hops = (old_hops == new_hops).all(axis=1)
        moved = ~np.where(old_ok & new_ok, same_hops, old_ok == new_ok)
        return moved, new_ok, routes.length[compared:]

    def _index_flows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every flow's leaf row and DLID index, in (src, dst) row-major
        order, and its fault-free route length, read off the
        generation-0 kernel (the initial sweep delivers every route
        within ``2n − 1`` hops)."""
        num = self.ft.num_nodes
        src, dst = np.nonzero(~np.eye(num, dtype=bool))
        leaf = self._kernel.attach_leaf[src].astype(np.int64)
        lix = self.net.dlid_matrix()[src, dst].astype(np.int64) - 1
        return leaf, lix, self._kernel.route_len[leaf, lix]

    # ------------------------------------------------------------------
    # The live kernel
    # ------------------------------------------------------------------
    def _hand_over(self) -> np.ndarray:
        """The live tables, made read-only for a kernel to hold: the
        next :meth:`_program_step` writes a copy."""
        self._live.setflags(write=False)
        return self._live

    def _advance_kernel(self) -> RouteKernel:
        """Advance the live kernel to the live tables, once per sweep,
        in place unless :meth:`live_kernel` handed it out (then a
        :meth:`~repro.core.kernel.RouteKernel.retraced` copy).  Either
        way the kernel takes the live matrix as its ``port``."""
        port = self._hand_over()
        if self._kernel_shared:
            self._kernel = self._kernel.retraced(port)
            self._kernel_shared = False
        else:
            self._kernel._advance(port)
        self._kernel_generation = self._generation
        self._mid_kernel = None
        return self._kernel

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_kernel(self) -> RouteKernel:
        """Route kernel of the tables the switches forward with now.

        Between sweeps this is the manager's own kernel, which each
        sweep advances once (:meth:`_migration_stats`).  Handing it out
        marks it shared, so the next sweep advances a copy instead: a
        kernel once returned is never written.  Mid-sweep, after some
        switches were reprogrammed, the manager's kernel keeps the
        tables the sweep started from, which the sweep's statistics
        read; the caller gets a
        :meth:`~repro.core.kernel.RouteKernel.retraced` copy, cached for
        that generation.  Either way the result equals a fresh
        ``RouteKernel.from_lfts`` of the live LFTs bit for bit.  The
        shared :mod:`repro.ib.artifacts` cache is left untouched — its
        kernel describes the fault-free tables.

        Note the kernel's hop budget is the fault-free bound
        (``2n + 2``); on deep trees a repaired route that detours past
        it shows up as undelivered rather than raising.
        """
        if self._kernel_generation == self._generation:
            self._kernel_shared = True
            return self._kernel
        if self._mid_kernel is None or self._mid_kernel[0] != self._generation:
            kernel = self._kernel.retraced(self._hand_over())
            self._mid_kernel = (self._generation, kernel)
        return self._mid_kernel[1]

    @property
    def generation(self) -> int:
        """The live forwarding-state generation counter (read-only).

        Consistency contract:

        * starts at 0 (the initial SM sweep) and is bumped **once per
          reprogrammed switch**, so it increases monotonically and
          never repeats;
        * two reads returning the same value bracket a window in which
          no live LFT changed — any table, kernel or snapshot derived
          in between describes exactly what the fabric forwards with;
        * mid-sweep values are observable (delta programming lands
          switch-by-switch); a *sweep-consistent* generation is one
          read inside :attr:`on_sweep`, which fires after the sweep's
          last swap;
        * consumers keying caches or snapshots by this value
          (:meth:`live_kernel`, :class:`repro.service.SnapshotStore`)
          treat an equal generation as "nothing changed" — publishing
          the same generation twice is a no-op by contract.
        """
        return self._generation

    def packets_lost(self) -> int:
        """Packets dropped on dead links so far, fabric-wide."""
        total = sum(
            tx.packets_dropped
            for model in self.net.switches.values()
            for tx in model.tx.values()
        )
        total += sum(node.tx.packets_dropped for node in self.net.endnodes)
        return total

    def metrics(self) -> FailoverMetrics:
        """The metrics bundle accumulated so far."""
        return FailoverMetrics(
            records=list(self.records), packets_lost=self.packets_lost()
        )

    def live_lfts(self) -> Dict[SwitchLabel, LinearForwardingTable]:
        """The LFT instances the switches currently forward with."""
        return {sw: model.lft for sw, model in self.net.switches.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSubnetManager(down={len(self.down_links)}, "
            f"reroutes={len(self.records)}, generation={self._generation})"
        )
