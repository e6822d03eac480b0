"""Scripted link-flap storms behind the snapshot store.

:func:`flap_schedule` builds a deterministic
:class:`~repro.runtime.FaultSchedule` that flaps a set of
switch-to-switch links (down/up, staggered phases) over a horizon —
the adversarial workload the route-query service must stay consistent
under.  :class:`LinkFlapStorm` owns the whole repair loop: a fresh
subnet, a :class:`~repro.runtime.DynamicSubnetManager` re-sweeping
around each flap, and a :class:`~repro.service.snapshot.SnapshotPublisher`
pushing a sweep-consistent snapshot into the store after every repair.

The storm runs the simulation engine on a daemon thread in bounded
time chunks with an optional wall-clock pace between chunks, so query
threads (the actual service workload) keep getting CPU on small hosts
while repairs land continuously throughout a measurement window.  All
snapshot publication happens inside that thread (the ``on_sweep``
hook); readers only ever touch the store.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Tuple

from repro.ib.config import SimConfig
from repro.ib.subnet import Subnet, build_subnet
from repro.runtime import DynamicSubnetManager, FaultSchedule
from repro.service.snapshot import SnapshotPublisher, SnapshotStore
from repro.topology.fattree import FatTree
from repro.topology.labels import SwitchLabel

__all__ = ["flap_schedule", "pick_flap_links", "LinkFlapStorm"]

#: Simulated time the storm thread runs per engine step.
CHUNK_NS = 2_000.0


def pick_flap_links(
    ft: FatTree, count: int
) -> List[Tuple[SwitchLabel, int]]:
    """``count`` distinct victim (switch, 0-based port) pairs.

    Deterministic: walks the root row's down-links first (one per root
    switch, then second ports, ...), which spreads the flaps across
    subtrees so consecutive repairs touch different tables.  All picks
    are switch-to-switch links (node links cannot be failed).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    roots = ft.switches_at_level(0)
    picks: List[Tuple[SwitchLabel, int]] = []
    for port in range(ft.m):
        for sw in roots:
            if len(picks) == count:
                return picks
            if ft.peer(sw, port).is_switch:
                picks.append((sw, port))
    raise ValueError(
        f"fabric has only {len(picks)} root switch-to-switch links, "
        f"need {count}"
    )


def flap_schedule(
    ft: FatTree,
    *,
    links: Optional[List[Tuple[SwitchLabel, int]]] = None,
    count: int = 2,
    start_ns: float = 5_000.0,
    period_ns: float = 10_000.0,
    down_ns: float = 4_000.0,
    horizon_ns: float = 100_000.0,
) -> FaultSchedule:
    """A staggered link-flap storm as a declarative fault timeline.

    Each victim link repeats down-for-``down_ns`` / up cycles every
    ``period_ns``, phase-shifted per link so sweeps keep superseding
    and coalescing — the worst case for snapshot consistency.  Every
    down has its matching up inside the horizon (the storm ends with a
    fully healthy fabric).
    """
    if down_ns <= 0 or down_ns >= period_ns:
        raise ValueError(
            f"need 0 < down_ns < period_ns, got {down_ns} / {period_ns}"
        )
    victims = links if links is not None else pick_flap_links(ft, count)
    schedule = FaultSchedule(ft)
    stagger = period_ns / max(1, len(victims))
    for i, (sw, port) in enumerate(victims):
        t = start_ns + i * stagger
        while t + down_ns < horizon_ns:
            schedule.fail_and_recover(sw, port, t, t + down_ns)
            t += period_ns
    return schedule


class LinkFlapStorm:
    """A live fabric under a flap storm, publishing snapshots.

    Usage::

        storm = LinkFlapStorm(4, 2, "mlid")   # builds net + SM + store
        storm.start()                         # background repair loop
        snap = storm.store.get()              # query plane: lock-free
        ...
        storm.stop()                          # run down and join

    The constructor publishes the generation-0 baseline synchronously,
    so the store is queryable before (and without) :meth:`start`.
    """

    def __init__(
        self,
        m: int,
        n: int,
        scheme: str = "mlid",
        *,
        cfg: Optional[SimConfig] = None,
        schedule: Optional[FaultSchedule] = None,
        flap_links: int = 2,
        horizon_ns: float = 100_000.0,
        pace_s: float = 0.0,
        keep_lfts: bool = False,
    ):
        cfg = cfg or SimConfig()
        # Fresh (uncached) build: the runtime reprograms live LFTs, so
        # the shared artifact cache must not supply this subnet.
        self.net: Subnet = build_subnet(m, n, scheme, cfg)
        if schedule is None:
            schedule = flap_schedule(
                self.net.ft, count=flap_links, horizon_ns=horizon_ns
            )
        self.horizon_ns = max(
            horizon_ns, max((e.time for e in schedule.events), default=0.0)
        )
        self.pace_s = pace_s
        self.mgr = DynamicSubnetManager(self.net, schedule)
        self.store = SnapshotStore()
        self.publisher = SnapshotPublisher(self.store, self.mgr, keep_lfts=keep_lfts).attach()
        self.mgr.arm()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def start(self) -> "LinkFlapStorm":
        """Run the repair loop on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("storm already started")
        self._thread = threading.Thread(
            target=self._run, name="link-flap-storm", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        engine = self.net.engine
        try:
            while not self._stop.is_set() and engine.now < self.horizon_ns:
                engine.run(until=min(engine.now + CHUNK_NS, self.horizon_ns))
                if self.pace_s > 0:
                    time.sleep(self.pace_s)
            if engine.now < self.horizon_ns:
                # Stopped early: drop the rest of the flap schedule but
                # keep the recoveries of whatever is down right now.
                self.mgr.cancel_pending_faults()
            # Run down cleanly: fire whatever remains (recoveries, SM
            # programming) so the storm always ends on a healthy,
            # fully-repaired fabric with its final snapshot published.
            engine.run()
        except BaseException as exc:  # pragma: no cover - surfaced by join
            self.error = exc

    def stop(self) -> None:
        """Signal the loop to finish and wait for it (re-raises any
        error the storm thread hit)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self.error is not None:
            raise self.error

    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "LinkFlapStorm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
