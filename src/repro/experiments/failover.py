"""The failover scenario: measure reaction-to-change, not just steady state.

The paper's evaluation measures throughput/latency of *static* tables;
this experiment measures what modern fabrics care about (FatPaths,
adaptive-routing literature): the window between a link dying and the
Subnet Manager repairing around it.  One :func:`run_failover` run is
the canonical timeline —

    t_fail             link goes down (in-flight packet lost; stale
                       LFT entries black-hole traffic into the port)
    + detection        SM notices (trap latency / heartbeat)
    + programming      LFT deltas land switch-by-switch
    t_recover          link comes back up
    + detection        SM notices
    + programming      original (paper-optimal) tables restored

— and the row it returns carries the resilience columns: time-to-detect,
time-to-repair, packets lost, flows rerouted, path inflation, plus
delivery accounting, making MLID-vs-SLID resilience a measurable result.

Two built-in consistency checks ride along (both are invariants of the
delta-programming design, independent of traffic and latency knobs, as
long as each repair completes before the next event):

* ``repair_matches_offline`` — mid-outage live LFTs are bit-identical
  to :class:`repro.core.fault.FaultTolerantTables`' offline repair;
* ``recovery_matches_initial`` — post-recovery live LFTs are
  bit-identical to the initial SM sweep.

:data:`FAILOVER_COLUMNS` orders a row's scalar columns for report
tables and CSV.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.core.fault import FaultSet, FaultTolerantTables
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet
from repro.runtime import DynamicSubnetManager, FaultSchedule
from repro.sim.engine import Engine
from repro.topology.fattree import FatTree
from repro.topology.labels import SwitchLabel
from repro.traffic.patterns import make_pattern

__all__ = ["default_link", "run_failover", "FAILOVER_COLUMNS"]

#: Column order for report tables / CSV.
FAILOVER_COLUMNS = [
    "scheme",
    "offered",
    "time_to_detect",
    "time_to_repair",
    "packets_lost",
    "flows_rerouted",
    "path_inflation",
    "entries_changed",
    "generated",
    "delivered",
    "backlog",
    "repair_matches_offline",
    "recovery_matches_initial",
]


def default_link(ft: FatTree) -> Tuple[SwitchLabel, int]:
    """The canonical victim: the first root switch's first down link."""
    return ft.switches_at_level(0)[0], 0


def run_failover(
    m: int,
    n: int,
    scheme: str = "mlid",
    *,
    link: Optional[Tuple[SwitchLabel, int]] = None,
    t_fail: float = 20_000.0,
    t_recover: float = 60_000.0,
    run_until: Optional[float] = None,
    load: float = 0.0,
    pattern: str = "uniform",
    cfg: Optional[SimConfig] = None,
    seed: int = 1,
    engine: Optional[Engine] = None,
) -> dict:
    """One link-down/link-up failover simulation; returns the report row.

    ``load`` is offered load in bytes/ns/node (0 = no traffic —
    exercises the control plane alone; negative raises ``ValueError``).
    ``link`` is a ``(switch, 0-based port)`` pair, default
    :func:`default_link`.
    Generation stops at ``run_until`` and the simulation then runs to
    quiescence so the delivery accounting is exact:
    ``generated == delivered + packets_lost + backlog``.

    The SM re-sweeps with the vectorized fault-repair kernel;
    ``repair_matches_offline`` checks its mid-outage tables against the
    scalar :class:`~repro.core.fault.FaultTolerantTables`.  ``engine``
    is forwarded to :func:`~repro.ib.subnet.build_subnet` (a test seam
    for the heap-vs-wheel differential).
    """
    if load < 0:
        raise ValueError(f"load={load} must be non-negative (0 = no traffic)")
    if t_recover <= t_fail:
        raise ValueError(f"t_recover={t_recover} must follow t_fail={t_fail}")
    cfg = cfg or SimConfig()
    run_until = (
        run_until
        if run_until is not None
        else t_recover + (t_recover - t_fail) / 2
    )
    if run_until <= t_recover:
        raise ValueError(
            f"run_until={run_until} must leave room past t_recover={t_recover}"
        )
    # A fresh (uncached) build: the runtime reprograms live LFTs, so the
    # shared artifact cache must not supply this subnet.
    net = build_subnet(m, n, scheme, cfg, seed=seed, engine=engine)
    sw, port = link if link is not None else default_link(net.ft)
    initial = {s: model.lft for s, model in net.switches.items()}
    schedule = FaultSchedule(net.ft).fail_and_recover(sw, port, t_fail, t_recover)
    mgr = DynamicSubnetManager(net, schedule)
    mgr.arm()

    if load > 0:
        net.attach_pattern(make_pattern(pattern, net.num_nodes))
        rate = cfg.offered_load_to_rate(load)
        for node in net.endnodes:
            node.start_generation(rate)

    # Pause just before the recovery event: if the down-repair has
    # completed by then, the live tables must equal the offline repair.
    engine = net.engine
    engine.run(until=math.nextafter(t_recover, -math.inf))
    repair_ok: Optional[bool] = None
    if any(r.kind == "down" for r in mgr.records):
        faults = FaultSet.from_pairs(net.ft, [(sw, port)])
        expected = FaultTolerantTables(net.scheme, faults).tables
        live = mgr.live_lfts()
        repair_ok = all(
            np.array_equal(live[s].as_array() - 1, expected[s])
            for s in net.ft.switches
        )

    engine.run(until=run_until)
    if load > 0:
        for node in net.endnodes:
            node.stop_generation()
        engine.run()
    recovery_ok: Optional[bool] = None
    if any(r.kind == "up" for r in mgr.records):
        live = mgr.live_lfts()
        recovery_ok = all(live[s] == initial[s] for s in net.ft.switches)

    row = {"scheme": scheme, "offered": load}
    row.update(mgr.metrics().as_row())
    row.update(
        {
            "generated": sum(nd.packets_generated for nd in net.endnodes),
            "delivered": sum(nd.packets_received for nd in net.endnodes),
            "backlog": sum(nd.backlog for nd in net.endnodes),
            "repair_matches_offline": repair_ok,
            "recovery_matches_initial": recovery_ok,
        }
    )
    row["records"] = mgr.records
    return row
