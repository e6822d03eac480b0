"""Runtime-facing fault-kernel tests: incremental counters and the
kernel-vs-oracle equivalence inside the SM loop.

The counter test pins down the kernel's *incrementality*: a second
single-link failure on a disjoint subtree must recompute only the
destinations whose descent cone touches the new link — one leaf's
worth — not the whole fabric.  The equivalence test pins down the
*wiring*: through a multi-link flap storm, every sweep the dynamic SM
completes leaves the live tables equal to the scalar
:class:`~repro.core.fault.FaultTolerantTables` repair of the fault set
it saw.
"""

import numpy as np
import pytest

from repro.core.fault import FaultSet, FaultTolerantTables
from repro.ib.config import SimConfig
from repro.ib.lft import LinearForwardingTable
from repro.ib.subnet import build_subnet
from repro.runtime import DynamicSubnetManager, FaultSchedule
from repro.service.storm import flap_schedule

#: Flapping links per fabric as (root index, 0-based port).  The flaps
#: overlap, and every fault set they pass through stays connected: on
#: FT(4, 2) they share one root, because two leaves each cut off a
#: different root of the two could not reach each other up and down.
FLAPS = {
    (4, 2): [(0, 0), (0, 1), (0, 2)],
    (8, 2): [(0, 0), (1, 1), (2, 2), (3, 0)],
}


def make_net(m=4, n=3, scheme="mlid"):
    cfg = SimConfig(detection_latency_ns=0.0, sm_program_time_ns=0.0)
    return build_subnet(m, n, scheme, cfg, seed=1)


class TestIncrementalCounters:
    def test_disjoint_second_failure_recomputes_one_leaf(self):
        net = make_net()
        ft = net.ft
        level1 = ft.switches_at_level(1)
        # Two leaf-level links in disjoint subtrees, same routing plane
        # (taking one link from each plane would disconnect the two
        # leaves from each other under up/down routing — the scalar
        # oracle raises DisconnectedError on that pair too).
        first = (level1[0], next(iter(ft.down_ports(level1[0]))))
        second = (level1[-2], next(iter(ft.down_ports(level1[-2]))))
        sched = (
            FaultSchedule(ft)
            .link_down(1_000.0, *first)
            .link_down(2_000.0, *second)
        )
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()

        kern = mgr.fault_kernel
        assert kern is not None
        # First re-sweep compiled and filled the cache (full); the
        # second only touched the new link's descent cone: the one leaf
        # below it, i.e. per-leaf destinations — far from all of them.
        assert kern.repairs == 2
        assert kern.last_mode == "incremental"
        per_leaf = ft.num_nodes // len(ft.switches_at_level(ft.n - 1))
        assert kern.destinations_recomputed == per_leaf
        assert kern.destinations_recomputed < ft.num_nodes
        assert kern.leaves_recomputed == 1

    def test_full_first_sweep_counts_every_destination(self):
        net = make_net()
        ft = net.ft
        sw, port = ft.switches_at_level(0)[0], 0
        sched = FaultSchedule(ft).link_down(1_000.0, sw, port)
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()
        assert mgr.fault_kernel.last_mode == "full"
        assert mgr.fault_kernel.destinations_recomputed == ft.num_nodes



class TestBackendEquivalence:
    @pytest.mark.parametrize("m,n", sorted(FLAPS))
    def test_sweeps_match_scalar_repair(self, m, n):
        """With zero detection and programming time, and no two link
        changes at one instant, every sweep completes before the next
        change.  Each one must end with the live LFTs equal to the
        scalar repair of the fault set it saw, through full and
        incremental kernel repairs and the recoveries between them."""
        net = make_net(m, n)
        ft = net.ft
        roots = ft.switches_at_level(0)
        links = [(roots[i], port) for i, port in FLAPS[(m, n)]]
        schedule = flap_schedule(
            ft, links=links, period_ns=6_000.0, down_ns=2_500.0,
            horizon_ns=40_000.0,
        )
        assert len({event.time for event in schedule}) == len(schedule)
        mgr = DynamicSubnetManager(net, schedule)
        seen = []

        def check(record):
            known = mgr.programmed_faults
            assert known == frozenset(mgr.down_links)  # no sweep pending
            assert record.faults_known == len(known)
            tables = FaultTolerantTables(net.scheme, FaultSet(links=known)).tables
            live = mgr.live_lfts()
            for sw in ft.switches:
                assert live[sw] == LinearForwardingTable.from_zero_based(
                    tables[sw], ft.m
                ), sw
            seen.append((len(known), mgr.fault_kernel.last_mode))

        mgr.on_sweep = check
        mgr.arm()
        net.engine.run()
        assert len(seen) == len(mgr.records) == len(schedule)
        assert max(faults for faults, _ in seen) >= 2
        assert seen[-1][0] == 0  # the storm ends on a healthy fabric
        assert {"full", "incremental"} <= {mode for _, mode in seen}

    def test_program_delta_rows_accept_kernel_arrays(self):
        # The repair kernel hands the SM a read-only int16 target matrix
        # and the live tables are the route kernel's int64 port matrix;
        # the delta path must diff and materialize them exactly like
        # same-dtype tables.
        from repro.ib.sm import SubnetManager

        net = make_net(4, 2)
        sm = SubnetManager(net.scheme)
        live = net.scheme.port_matrix()
        target = live.astype(np.int16)
        target.setflags(write=False)
        assert sm.program_delta(live, target) == {}
        target = target.copy()
        target[0, 0] = (target[0, 0] + 1) % net.ft.m
        target.setflags(write=False)
        out = sm.program_delta(live, target)
        first = net.ft.switches[0]
        assert set(out) == {first}
        lft, changed = out[first]
        assert changed == 1
        assert lft[1] == target[0, 0] + 1
        assert lft == LinearForwardingTable.from_zero_based(target[0].tolist(), net.ft.m)
