"""Migration statistics against the per-flow table walk they replaced.

``DynamicSubnetManager._migration_stats`` reads each flow whose DLID
column a repair changed off the live route kernel, before and after the
sweep advances it, and walks the tables only when a compared route is
undelivered within the kernel's hop budget.  The oracle below is the
original per-(src, dst) Python walk, kept verbatim over per-switch
table rows (row views of the manager's port matrices): every repair
record must get exactly the same ``flows_rerouted`` and
``path_inflation`` from both, and a table port outside [0, m) must
raise the same ``ValueError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import RouteKernel
from repro.experiments.failover import run_failover
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet
from repro.runtime import DynamicSubnetManager, FaultSchedule
from repro.service import LinkFlapStorm
from repro.topology.labels import SwitchLabel


# ----------------------------------------------------------------------
# The oracle: one Python table walk per flow
# ----------------------------------------------------------------------
def _walk(
    mgr, tables, src_pid: int, dlid: int, max_hops: int
) -> Optional[List[Tuple[SwitchLabel, int]]]:
    """(switch, port) sequence of one table walk, None on non-delivery."""
    ft = mgr.ft
    sw = ft.node_attachment(ft.node_from_pid(src_pid)).switch
    path: List[Tuple[SwitchLabel, int]] = []
    for _ in range(max_hops):
        port = int(tables[sw][dlid - 1])
        path.append((sw, port))
        ep = ft.peer(sw, port)
        if ep.is_node:
            return path
        sw = ep.switch
    return None


def rows(mgr, matrix) -> Dict[SwitchLabel, np.ndarray]:
    """Per-switch row views of a (switches, LIDs) port matrix."""
    return dict(zip(mgr.ft.switches, matrix))


def oracle_migration_stats(mgr, before, known: frozenset) -> Tuple[int, float]:
    """How many flows moved, and how much longer their paths got.

    A *flow* is a (src, dst) pair; its path is the walk of the
    selected DLID through the tables.  Inflation compares the new
    path length against the fault-free minimal one (the baseline
    tables: the scheme's port matrix), averaged over rerouted flows.
    """
    tables, baseline = rows(mgr, mgr._live), rows(mgr, mgr.scheme.port_matrix())
    changed = np.zeros(mgr.scheme.num_lids, dtype=bool)
    for sw, old in before.items():
        live = tables[sw]
        if live is not old:
            np.logical_or(changed, old != live, out=changed)
    if not changed.any():
        return 0, 1.0
    max_hops = 2 * mgr.ft.n + 2 * max(1, len(known)) + 2
    num = mgr.ft.num_nodes
    flows = 0
    ratios: List[float] = []
    for src in range(num):
        for dst in range(num):
            if src == dst:
                continue
            dlid = mgr.net.dlid_for(src, dst)
            if not changed[dlid - 1]:
                continue
            old = _walk(mgr, before, src, dlid, max_hops)
            new = _walk(mgr, tables, src, dlid, max_hops)
            if old == new:
                continue
            flows += 1
            if new is not None:
                base = _walk(mgr, baseline, src, dlid, max_hops)
                ratios.append(len(new) / len(base))
    inflation = sum(ratios) / len(ratios) if ratios else 1.0
    return flows, inflation


# ----------------------------------------------------------------------
# Harness: compare on every call the manager makes
# ----------------------------------------------------------------------
@pytest.fixture
def checked(monkeypatch):
    """(manager, fast result, oracle result) of every statistics call
    any manager makes while the test runs."""
    calls = []
    fast = DynamicSubnetManager._migration_stats

    def both(self, known):
        # The live kernel still holds the tables the sweep started from.
        want = oracle_migration_stats(self, rows(self, self._kernel.port), known)
        got = fast(self, known)
        calls.append((self, got, want))
        return got

    monkeypatch.setattr(DynamicSubnetManager, "_migration_stats", both)
    return calls


def assert_every_record_matches(calls, mgr) -> None:
    """Every record with a programmed delta got its numbers from one
    checked call, and the fast numbers equal the walk's exactly."""
    mine = [(got, want) for owner, got, want in calls if owner is mgr]
    stats = [
        (r.flows_rerouted, r.path_inflation)
        for r in mgr.records
        if r.switches_programmed
    ]
    assert mine, "no repair ran the statistics"
    assert stats == [got for got, _ in mine]
    assert [got for got, _ in mine] == [want for _, want in mine]


@pytest.mark.parametrize(
    "m,n,horizon_ns",
    [(4, 2, 60_000.0), (8, 2, 60_000.0), (4, 3, 60_000.0), (8, 3, 16_000.0)],
    ids=["ft4x2", "ft8x2", "ft4x3", "ft8x3"],
)
@pytest.mark.parametrize("scheme", ["mlid", "slid"])
def test_flap_storm_matches_walk(checked, m, n, horizon_ns, scheme):
    storm = LinkFlapStorm(m, n, scheme, flap_links=2, horizon_ns=horizon_ns)
    storm.net.engine.run()
    assert not storm.mgr.down_links
    assert_every_record_matches(checked, storm.mgr)
    assert any(flows for (_, (flows, _), _) in checked)


def test_switch_down_with_link_faults_matches_walk(checked):
    """A switch outage overlapping link faults, with one of the dead
    switch's links revived early.  Superseded programs leave mixed
    tables whose routes loop (no path) or detour past ``2n + 2`` hops
    but still arrive within the walk's budget."""
    net = build_subnet(
        4,
        3,
        "mlid",
        SimConfig(detection_latency_ns=100.0, sm_program_time_ns=200.0),
        seed=1,
    )
    ft = net.ft
    down = ((1, 0), 1)
    sched = (
        FaultSchedule(ft)
        .switch_down(414.0, down)
        .link_up(2_343.0, down, 2)
        .link_down(2_428.0, ((0, 1), 0), 0)
        .link_down(3_588.0, ((0, 0), 0), 2)
        .switch_up(4_035.0, down)
        .link_up(5_000.0, ((0, 1), 0), 0)
        .link_up(5_500.0, ((0, 0), 0), 2)
    )
    mgr = DynamicSubnetManager(net, sched)
    longest = []
    undelivered = []
    fast = DynamicSubnetManager._migration_stats  # the checking wrapper

    def probe(known):
        # Walk every flow whose DLID the repair changed, as the
        # statistics do, to see which kinds of route they compare.
        before, live = rows(mgr, mgr._kernel.port), rows(mgr, mgr._live)
        budget = 2 * ft.n + 2 * max(1, len(known)) + 2
        for src in range(ft.num_nodes):
            for dst in range(ft.num_nodes):
                dlid = src != dst and net.dlid_for(src, dst)
                if not dlid or all(
                    before[sw][dlid - 1] == live[sw][dlid - 1]
                    for sw in ft.switches
                ):
                    continue
                for tables in (before, live):
                    path = _walk(mgr, tables, src, dlid, budget)
                    if path is None:
                        undelivered.append((src, dst))
                    else:
                        longest.append(len(path))
        return fast(mgr, known)

    mgr._migration_stats = probe
    mgr.arm()
    net.engine.run()
    assert not mgr.down_links and not mgr.down_switches
    assert_every_record_matches(checked, mgr)
    assert max(longest) > 2 * ft.n + 2
    assert undelivered


def test_superseded_program_matches_walk(checked):
    """The supersede scenario of ``test_manager``: a second fault lands
    while the first repair is still programming."""
    net = build_subnet(
        8, 2, "mlid",
        SimConfig(detection_latency_ns=0.0, sm_program_time_ns=500.0),
        seed=1,
    )
    root = net.ft.switches_at_level(0)[0]
    sched = (
        FaultSchedule(net.ft)
        .link_down(1_000.0, root, 0)
        .link_down(2_000.0, root, 1)
    )
    mgr = DynamicSubnetManager(net, sched)
    mgr.arm()
    net.engine.run()
    assert [r.kind for r in mgr.records] == ["down", "down"]
    assert_every_record_matches(checked, mgr)


def test_mid_sweep_live_kernel_matches_walk(checked):
    """A kernel asked for between two switches of one sweep describes the
    half-programmed tables, and neither it nor a kernel handed out
    before the sweep is the one the sweep's statistics advance."""
    net = build_subnet(
        8, 2, "mlid",
        SimConfig(detection_latency_ns=0.0, sm_program_time_ns=500.0),
        seed=1,
    )
    root = net.ft.switches_at_level(0)[0]
    sched = FaultSchedule(net.ft).fail_and_recover(root, 0, 1_000.0, 20_000.0)
    mgr = DynamicSubnetManager(net, sched)
    handed_out = mgr.live_kernel()
    handed_out_routes = handed_out.route_port.copy()
    step = mgr._program_step
    mid = []

    def program_step(ctx, sw, table):
        step(ctx, sw, table)
        if mgr._pending_ctx is ctx:  # switches of this sweep remain
            kernel = mgr.live_kernel()
            fresh = RouteKernel.from_lfts(mgr.scheme, mgr.live_lfts())
            for name in ("port", "route_switch", "route_port", "route_len",
                         "delivered", "bad_port"):
                assert np.array_equal(getattr(kernel, name), getattr(fresh, name)), name
            assert mgr.live_kernel() is kernel
            mid.append(kernel)

    mgr._program_step = program_step
    mgr.arm()
    net.engine.run()
    assert [r.kind for r in mgr.records] == ["down", "up"]
    assert mid
    assert_every_record_matches(checked, mgr)
    assert np.array_equal(handed_out.route_port, handed_out_routes)


@pytest.mark.parametrize("m,n,scheme", [(8, 3, "mlid"), (4, 3, "slid")])
def test_failover_without_publisher_matches_walk(checked, m, n, scheme):
    row = run_failover(m, n, scheme)
    assert row["repair_matches_offline"] and row["recovery_matches_initial"]
    assert len(checked) == 2
    assert [got for _, got, _ in checked] == [want for _, _, want in checked]
    assert row["flows_rerouted"] == checked[0][1][0]
    assert row["path_inflation"] == checked[0][1][1]


# ----------------------------------------------------------------------
# Arbitrary tables: out-of-range ports and forwarding loops
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def idle_managers():
    """A manager with no faults scheduled, per (m, n)."""
    managers = {}
    for m, n in [(4, 2), (4, 3)]:
        net = build_subnet(m, n, "mlid", SimConfig(), seed=1)
        managers[m, n] = DynamicSubnetManager(net, FaultSchedule(net.ft))
    return managers


def _outcome(stats, *args):
    try:
        return stats(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from([(4, 2), (4, 3)]),
    known=st.integers(min_value=0, max_value=3),
)
def test_perturbed_tables_match_walk(idle_managers, data, shape, known):
    """Random entries of the before and the live tables rewritten to
    any port in [-1, m]: moved flows, loops that exhaust the budget,
    and out-of-range ports all agree with the walk, error included."""
    mgr = idle_managers[shape]
    ft = mgr.ft
    switches = ft.switches
    lids = mgr.scheme.num_lids
    entry = st.tuples(
        st.integers(0, len(switches) - 1),
        st.integers(0, lids - 1),
        st.integers(-1, ft.m),
    )
    saved = mgr._live
    try:
        before, live = mgr.scheme.port_matrix(), saved.copy()
        for name, tables in (("before", before), ("live", live)):
            for sw_id, lix, port in data.draw(
                st.lists(entry, max_size=12), label=name
            ):
                tables[sw_id, lix] = port
        mgr._live = live
        faults = frozenset(range(known))
        # The fast path reads the before-tables and routes off a kernel
        # of them.
        kernel = RouteKernel(mgr.scheme, before)
        got = _outcome(mgr._migration_stats, faults, kernel)
        want = _outcome(oracle_migration_stats, mgr, rows(mgr, before), faults)
        assert got == want
    finally:
        mgr._live = saved
