"""Immutable route snapshots and the atomic snapshot store.

The serving split (Extreme-Scale Interconnection Networks,
arXiv:2605.26960, makes the same one): a **fast queryable model** of
the fabric in front, a **slow repair loop** behind.  Here the model is
a :class:`RouteSnapshot` — one compiled
:class:`~repro.core.kernel.RouteKernel` plus the generation counter,
simulated time and fault set it was taken at — and the repair loop is
the :class:`~repro.runtime.DynamicSubnetManager` reprogramming LFTs
switch-by-switch underneath.

Consistency model
-----------------
* A snapshot is **immutable**: its kernel is the manager's live kernel
  of that generation
  (:meth:`~repro.runtime.DynamicSubnetManager.live_kernel`), which the
  sweep already advanced to its tables, retracing only the routes that
  cross a reprogrammed entry.  Publishing hands that kernel over; the
  manager copies it before the next sweep's advance, so nothing writes
  its arrays afterwards, and queries answer by zero-copy array
  indexing.
* The :class:`SnapshotStore` publishes by a single reference
  assignment, which is atomic under the GIL — a reader in any thread
  sees either the old snapshot or the new one, never a torn mix, and
  never blocks on a repair sweep.
* Generations are **monotonic**: the store rejects a publish that
  moves backwards and treats a double-publish of the current
  generation as a no-op (the
  :attr:`~repro.runtime.DynamicSubnetManager.generation` contract).
* The :class:`SnapshotPublisher` builds snapshots only inside the
  manager's ``on_sweep`` hook — i.e. in the simulation thread, after a
  sweep's last table swap — so every published snapshot is
  sweep-consistent: it equals a fresh ``RouteKernel`` compiled from
  the LFTs of that generation, bit for bit (asserted under a live
  flapping storm in ``tests/service/test_consistency_stress.py``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernel import RouteKernel
from repro.topology.labels import SwitchLabel

__all__ = [
    "RouteSnapshot",
    "SnapshotStore",
    "SnapshotPublisher",
    "baseline_snapshot",
]


class RouteSnapshot:
    """One immutable, generation-stamped view of the forwarding state.

    All queries are pure reads of the compiled kernel's arrays; node
    endpoints are PIDs and switches are row indices into the fabric's
    ``switches`` list (the server layer translates wire labels).
    """

    __slots__ = (
        "kernel",
        "generation",
        "sim_time_ns",
        "published_wall_s",
        "down_links",
    )

    def __init__(
        self,
        kernel: RouteKernel,
        generation: int,
        sim_time_ns: float = 0.0,
        down_links: frozenset = frozenset(),
    ):
        self.kernel = kernel
        self.generation = generation
        self.sim_time_ns = sim_time_ns
        self.published_wall_s = time.monotonic()
        self.down_links = down_links

    # -- queries -------------------------------------------------------
    def dlid(self, src_pid: int, dst_pid: int) -> int:
        """The scheme-selected DLID ``src`` uses to reach ``dst``."""
        k = self.kernel
        if src_pid == dst_pid:
            raise ValueError(f"src == dst == {src_pid}")
        if not 0 <= src_pid < k.num_nodes or not 0 <= dst_pid < k.num_nodes:
            raise ValueError(
                f"PIDs must be in [0, {k.num_nodes}), got {src_pid}, {dst_pid}"
            )
        return int(k.selected[src_pid, dst_pid])

    def trace(self, src_pid: int, dst_pid: int, dlid: Optional[int] = None):
        """Full hop path as a
        :class:`~repro.core.verification.PathTrace` — bit-identical to
        the :class:`~repro.core.kernel.RouteKernel` / scalar-tracer
        answer for this snapshot's generation, including the exceptions
        raised for undeliverable routes (a mid-repair black hole shows
        up as the scalar ``RoutingError``)."""
        ft = self.kernel.ft
        return self.kernel.path(
            ft.node_from_pid(src_pid), ft.node_from_pid(dst_pid), dlid=dlid
        )

    def flows_crossing(
        self, switch_id: int, port: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(src_pids, dst_pids) of flows whose selected route crosses
        the directed channel (switch row, 0-based out-port)."""
        return self.kernel.flows_crossing(switch_id, port)

    def link_load(self, switch_id: int, port: int) -> float:
        """Static load estimate of one channel: selected flows crossing
        it per uniform all-to-all round."""
        loads = self.kernel.estimated_link_loads()
        if not 0 <= switch_id < self.kernel.num_switches:
            raise ValueError(
                f"switch id must be in [0, {self.kernel.num_switches}), "
                f"got {switch_id}"
            )
        if not 0 <= port < self.kernel.m:
            raise ValueError(f"port must be in [0, {self.kernel.m}), got {port}")
        return float(loads[switch_id, port])

    def top_loads(self, k: int = 5) -> List[Tuple[int, int, float]]:
        """The ``k`` most loaded (switch row, port, load) channels."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        loads = self.kernel.estimated_link_loads()
        flat = loads.reshape(-1)
        k = min(k, int((flat > 0).sum()))
        if k == 0:
            return []
        order = np.argsort(-flat, kind="stable")[:k]
        m = self.kernel.m
        return [
            (int(code) // m, int(code) % m, float(flat[code])) for code in order
        ]

    def age_s(self) -> float:
        """Wall-clock seconds since this snapshot was published."""
        return time.monotonic() - self.published_wall_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RouteSnapshot(gen={self.generation}, "
            f"t={self.sim_time_ns:.0f}ns, down={len(self.down_links)})"
        )


class SnapshotStore:
    """Atomic publication point between one writer and many readers.

    One thread publishes (the simulation/storm thread, inside the SM's
    ``on_sweep`` hook); any number of threads read.  Reading is a bare
    attribute load — lock-free, wait-free — because publication is a
    single reference assignment.  Generations only move forward:
    publishing the *current* generation again is a counted no-op and
    publishing an older one raises.
    """

    def __init__(self):
        self._current: Optional[RouteSnapshot] = None
        self._generations: List[int] = []
        self._noops = 0

    @property
    def current(self) -> Optional[RouteSnapshot]:
        """The latest published snapshot (``None`` before the first)."""
        return self._current

    def get(self) -> RouteSnapshot:
        """The latest snapshot; raises if nothing was published yet."""
        snap = self._current
        if snap is None:
            raise RuntimeError("no snapshot published yet")
        return snap

    def publish(self, snap: RouteSnapshot) -> bool:
        """Install ``snap`` atomically; returns whether it took effect.

        Same-generation double-publish is a no-op (returns ``False``);
        a generation lower than the current one is a contract violation
        and raises ``ValueError``.
        """
        cur = self._current
        if cur is not None:
            if snap.generation == cur.generation:
                self._noops += 1
                return False
            if snap.generation < cur.generation:
                raise ValueError(
                    f"snapshot generation must be monotonic: have "
                    f"{cur.generation}, got {snap.generation}"
                )
        self._current = snap
        self._generations.append(snap.generation)
        return True

    @property
    def generations(self) -> List[int]:
        """Generations published so far, in order (strictly increasing)."""
        return list(self._generations)

    def stats(self) -> dict:
        """Publication counters (telemetry)."""
        cur = self._current
        return {
            "publishes": len(self._generations),
            "noop_publishes": self._noops,
            "generation": None if cur is None else cur.generation,
            "snapshot_age_s": None if cur is None else round(cur.age_s(), 6),
            "snapshot_sim_time_ns": None if cur is None else cur.sim_time_ns,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SnapshotStore({self.stats()})"


def baseline_snapshot(artifacts) -> RouteSnapshot:
    """Generation-0 snapshot straight from cached routing artifacts.

    The snapshot holds the artifact's kernel, compiled from the
    programmed LFTs with the precomputed DLID matrix on its first read
    and shared with every later one, so a second static (storm-less)
    service on the same fabric traces no route.  ``artifacts`` is a
    :class:`~repro.ib.artifacts.RoutingArtifacts`.
    """
    return RouteSnapshot(artifacts.kernel, generation=0)


class SnapshotPublisher:
    """Publishes one snapshot per completed SM sweep.

    Hooks :attr:`DynamicSubnetManager.on_sweep` (chaining any observer
    already installed) and, at attach time, publishes the current state
    as the baseline.  The manager's live kernel is advanced in the
    calling (simulation) thread, by the sweep itself; the store swap is
    the only thing readers ever see.

    ``keep_lfts=True`` additionally archives the (immutable) LFT
    objects of every published generation in :attr:`lft_archive` —
    the stress tests and the e2e flap-storm workload check sampled
    answers against independent kernels compiled from these, to prove
    answers were never torn.
    """

    def __init__(self, store: SnapshotStore, mgr, *, keep_lfts: bool = False):
        self.store = store
        self.mgr = mgr
        self.lft_archive: Optional[Dict[int, Dict[SwitchLabel, object]]] = (
            {} if keep_lfts else None
        )
        self._attached = False

    def attach(self) -> "SnapshotPublisher":
        """Publish the baseline and subscribe to sweep completions."""
        if self._attached:
            raise RuntimeError("publisher already attached")
        self._attached = True
        self.publish_now()
        prev: Optional[Callable] = self.mgr.on_sweep

        def hook(record):
            if prev is not None:
                prev(record)
            self.publish_now()

        self.mgr.on_sweep = hook
        return self

    def publish_now(self) -> bool:
        """Publish the manager's live kernel (no-op when the store
        already holds this generation).  Its DLID selection is the
        subnet's own matrix, which the manager installed once."""
        mgr = self.mgr
        generation = mgr.generation
        cur = self.store.current
        if cur is not None and cur.generation == generation:
            return False
        snap = RouteSnapshot(
            mgr.live_kernel(),
            generation=generation,
            sim_time_ns=mgr.engine.now,
            down_links=frozenset(mgr.down_links),
        )
        if self.lft_archive is not None:
            self.lft_archive[generation] = mgr.live_lfts()
        return self.store.publish(snap)
