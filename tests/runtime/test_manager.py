"""Tests for the dynamic subnet manager: the full online lifecycle."""

import numpy as np
import pytest

from repro.core.fault import FaultSet, FaultTolerantTables
from repro.core.kernel import RouteKernel
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet
from repro.runtime import DynamicSubnetManager, FaultSchedule
from repro.traffic import UniformPattern


def make_net(m=4, n=2, scheme="mlid", **cfg_kw):
    return build_subnet(m, n, scheme, SimConfig(**cfg_kw), seed=1)


def victim(net):
    """The canonical victim link: first root's first down port."""
    return net.ft.switches_at_level(0)[0], 0


def run_scenario(net, t_fail=1_000.0, t_recover=5_000.0, until=8_000.0):
    sw, port = victim(net)
    sched = FaultSchedule(net.ft).fail_and_recover(sw, port, t_fail, t_recover)
    mgr = DynamicSubnetManager(net, sched)
    mgr.arm()
    net.engine.run(until=until)
    return mgr


class TestLifecycle:
    def test_down_and_up_both_recorded(self):
        net = make_net()
        mgr = run_scenario(net)
        assert [r.kind for r in mgr.records] == ["down", "up"]

    def test_detection_and_repair_timing(self):
        net = make_net(detection_latency_ns=500.0, sm_program_time_ns=100.0)
        mgr = run_scenario(net)
        down = mgr.records[0]
        assert down.t_event == 1_000.0
        assert down.time_to_detect == 500.0
        # One program slot per modified switch, serially.
        assert down.time_to_repair == 500.0 + 100.0 * down.switches_programmed

    def test_zero_latency_instant_detection(self):
        net = make_net(detection_latency_ns=0.0, sm_program_time_ns=0.0)
        mgr = run_scenario(net)
        assert all(r.time_to_detect == 0.0 for r in mgr.records)
        assert all(r.time_to_repair == 0.0 for r in mgr.records)

    def test_arm_twice_rejected(self):
        net = make_net()
        mgr = DynamicSubnetManager(net, FaultSchedule(net.ft))
        mgr.arm()
        with pytest.raises(RuntimeError, match="armed"):
            mgr.arm()

    def test_schedule_for_other_fabric_rejected(self):
        net = make_net()
        other = make_net()
        with pytest.raises(ValueError, match="fabric"):
            DynamicSubnetManager(net, FaultSchedule(other.ft))

    def test_heartbeat_detection_quantizes(self):
        net = make_net(detection_latency_ns=100.0)
        sw, port = victim(net)
        sched = FaultSchedule(net.ft).link_down(1_234.0, sw, port)
        mgr = DynamicSubnetManager(net, sched, heartbeat_period_ns=1_000.0)
        mgr.arm()
        net.engine.run()
        assert mgr.records[0].t_detected == 2_100.0


class TestTableIdentity:
    def test_repaired_tables_match_offline_repair(self):
        """Mid-outage live tables == core.fault's offline repair,
        bit-for-bit (the acceptance invariant)."""
        net = make_net(detection_latency_ns=0.0, sm_program_time_ns=0.0)
        sw, port = victim(net)
        sched = FaultSchedule(net.ft).link_down(1_000.0, sw, port)
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()
        ftt = FaultTolerantTables(
            net.scheme, FaultSet.from_pairs(net.ft, [(sw, port)])
        )
        live = mgr.live_lfts()
        for label in net.ft.switches:
            expected = [p + 1 for p in ftt.tables[label]]
            got = [
                live[label].lookup(lid)
                for lid in range(1, net.scheme.num_lids + 1)
            ]
            assert got == expected

    def test_recovery_restores_initial_sweep(self):
        net = make_net()
        initial = {sw: model.lft for sw, model in net.switches.items()}
        mgr = run_scenario(net)
        live = mgr.live_lfts()
        assert all(live[sw] == initial[sw] for sw in net.ft.switches)

    def test_delta_port_conversion_matches_initial_sweep(self):
        """Delta-programmed entries go through the same 0-based paper
        port -> 1-based physical port shift as the initial sweep: every
        live physical entry is exactly offline-target + 1."""
        net = make_net(8, 2, detection_latency_ns=0.0, sm_program_time_ns=0.0)
        sw, port = victim(net)
        sched = FaultSchedule(net.ft).link_down(1_000.0, sw, port)
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()
        target = FaultTolerantTables(
            net.scheme, FaultSet.from_pairs(net.ft, [(sw, port)])
        ).tables
        for label, model in net.switches.items():
            for lid in range(1, net.scheme.num_lids + 1):
                assert model.lft.lookup(lid) == target[label][lid - 1] + 1

    def test_only_changed_switches_programmed(self):
        net = make_net(8, 2)
        mgr = run_scenario(net, until=20_000.0)
        down = mgr.records[0]
        assert 0 < down.switches_programmed < len(net.ft.switches)

    def test_simultaneous_failures_coalesce_into_one_sweep(self):
        """Two links dying at the same instant produce one combined
        repair (sweep semantics), plus a zero-delta record for the
        second trap."""
        net = make_net(8, 2)
        root = net.ft.switches_at_level(0)[0]
        sched = (
            FaultSchedule(net.ft)
            .link_down(1_000.0, root, 0)
            .link_down(1_000.0, root, 1)
        )
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()
        assert len(mgr.records) == 2
        # Records land in completion order: the second trap's zero-delta
        # record completes at detection, before the combined repair does.
        dedup, combined = mgr.records
        assert dedup.entries_changed == 0
        assert dedup.faults_known == 2
        assert combined.faults_known == 2
        assert combined.switches_programmed > 0


class TestSupersede:
    def test_new_fault_mid_program_aborts_and_reroutes(self):
        """A different fault detected while a delta program is still in
        flight supersedes it; the final tables route around both."""
        net = make_net(8, 2, detection_latency_ns=0.0, sm_program_time_ns=500.0)
        root = net.ft.switches_at_level(0)[0]
        # Second failure lands while the first repair (9 switches x
        # 500ns) is still programming.
        sched = (
            FaultSchedule(net.ft)
            .link_down(1_000.0, root, 0)
            .link_down(2_000.0, root, 1)
        )
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()
        assert [r.kind for r in mgr.records] == ["down", "down"]
        aborted, final = mgr.records
        assert aborted.faults_known == 1
        assert final.faults_known == 2
        # Partial progress was kept, not rolled back.
        assert aborted.switches_programmed < 9
        faults = FaultSet.from_pairs(net.ft, [(root, 0), (root, 1)])
        target = FaultTolerantTables(net.scheme, faults).tables
        for label, model in net.switches.items():
            for lid in range(1, net.scheme.num_lids + 1):
                assert model.lft.lookup(lid) == target[label][lid - 1] + 1


class TestKernelCoherence:
    def test_live_kernel_recompiled_after_reprogram(self):
        net = make_net()
        mgr = DynamicSubnetManager(net, FaultSchedule(net.ft))
        before = mgr.live_kernel()
        assert mgr.live_kernel() is before  # cached while coherent
        sw, port = victim(net)
        net2 = make_net()
        sched = FaultSchedule(net2.ft).link_down(1_000.0, sw, port)
        mgr2 = DynamicSubnetManager(net2, sched)
        mgr2.arm()
        gen0 = mgr2.generation
        k0 = mgr2.live_kernel()
        net2.engine.run()
        assert mgr2.generation > gen0
        k1 = mgr2.live_kernel()
        assert k1 is not k0
        assert mgr2.live_kernel() is k1

    def test_live_kernel_delivers_around_the_fault(self):
        net = make_net(8, 2)
        sw, port = victim(net)
        sched = FaultSchedule(net.ft).link_down(1_000.0, sw, port)
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run()
        kernel = mgr.live_kernel()
        assert np.array_equal(
            kernel.delivered, np.broadcast_to(kernel.lid_owner, kernel.delivered.shape)
        )

    def test_unqueried_kernel_advances_in_place(self):
        """A manager nobody asks for its kernel never copies it."""
        net = make_net(8, 2)
        mgr = run_scenario(net)
        kernel = mgr._kernel
        assert len(mgr.records) == 2
        assert mgr._kernel is kernel
        assert mgr.live_kernel() is kernel


class TestOneTableCopy:
    """The live tables are one port matrix: between sweeps the live
    kernel's own, read-only, and copied by the first switch a sweep
    programs."""

    @staticmethod
    def superseding_storm():
        net = make_net(8, 2, detection_latency_ns=0.0, sm_program_time_ns=500.0)
        root = net.ft.switches_at_level(0)[0]
        sched = (
            FaultSchedule(net.ft)
            .link_down(1_000.0, root, 0)
            .link_down(2_000.0, root, 1)  # lands mid-program
            .link_up(20_000.0, root, 0)
            .link_up(30_000.0, root, 1)
        )
        return net, DynamicSubnetManager(net, sched)

    def test_between_sweeps_live_tables_are_the_kernel_port(self):
        net, mgr = self.superseding_storm()
        checked = []

        def check(record):
            assert mgr._live is mgr._kernel.port
            assert not mgr._live.flags.writeable
            checked.append(record)

        check(None)
        mgr.on_sweep = check
        mgr.arm()
        net.engine.run()
        assert [r.kind for r in checked[1:]] == ["down", "down", "up", "up"]
        assert checked[1].switches_programmed < checked[2].switches_programmed
        fresh = RouteKernel.from_lfts(mgr.scheme, mgr.live_lfts())
        assert np.array_equal(mgr._live, fresh.port)

    def test_kernels_handed_out_keep_their_port(self):
        net, mgr = self.superseding_storm()
        first = mgr.live_kernel()
        first_port = first.port.copy()
        step = mgr._program_step
        held = []

        def program_step(ctx, sw, table):
            step(ctx, sw, table)
            if mgr._pending_ctx is ctx:  # switches of this sweep remain
                kernel = mgr.live_kernel()
                held.append((kernel, kernel.port, kernel.port.copy()))

        mgr._program_step = program_step
        mgr.arm()
        net.engine.run()
        assert len(held) > 4
        # Each later step wrote a copy, never the matrix a kernel holds.
        assert len({id(port) for _, port, _ in held}) == len(held)
        for kernel, port, values in held:
            assert kernel.port is port
            assert np.array_equal(port, values)
        assert np.array_equal(first.port, first_port)


@pytest.fixture(scope="module")
def storm_traces():
    """(records, [(sweep index, routes)] of every trace_routes call) over
    one FT(8,3) mlid storm play, the e2e flap-storm's, traced after the
    storm's set-up."""
    import repro.core.kernel
    import repro.runtime.manager
    from repro.service import LinkFlapStorm

    storm = LinkFlapStorm(8, 3, "mlid", flap_links=2, horizon_ns=100_000.0)
    calls = []
    trace_routes = repro.core.kernel.trace_routes

    def spy(arrays, port, start, cols, steps):
        calls.append((len(storm.mgr.records), len(start)))
        return trace_routes(arrays, port, start, cols, steps)

    with pytest.MonkeyPatch.context() as patch:
        for module in (repro.core.kernel, repro.runtime.manager):
            patch.setattr(module, "trace_routes", spy, raising=False)
        storm.net.engine.run()
    return storm.mgr.records, calls


class TestOneTracePerSweep:
    def test_first_sweep_traces_only_routes_crossing_a_change(self, storm_traces):
        """The first sweep's advance retraces, once, the 896 routes whose
        walk crosses a reprogrammed entry: not all 32 leaves of the 704
        DLID columns it changed (22,528 routes) for the snapshot, plus a
        second walk of every flow in them for the statistics."""
        _, calls = storm_traces
        assert [n for sweep, n in calls if sweep == 0] == [896]

    def test_storm_play_traces_each_sweep_once(self, storm_traces):
        records, calls = storm_traces
        assert len(records) == 38
        assert all(r.switches_programmed for r in records)
        assert sorted({sweep for sweep, _ in calls}) == list(range(38))
        assert len(calls) == 38
        assert sum(n for _, n in calls) == 34_048


class TestMigrationAndLoss:
    def test_no_traffic_no_loss(self):
        net = make_net()
        mgr = run_scenario(net)
        assert mgr.packets_lost() == 0

    def test_flows_rerouted_and_inflation_reported(self):
        net = make_net(8, 2)
        mgr = run_scenario(net, until=20_000.0)
        down = mgr.records[0]
        assert down.flows_rerouted > 0
        assert down.path_inflation >= 1.0

    def test_packet_conservation_under_load(self):
        """No silent loss, no silent duplication: every generated packet
        is delivered, dropped on a dead link, or still queued."""
        net = make_net(8, 2)
        sw, port = victim(net)
        sched = FaultSchedule(net.ft).fail_and_recover(
            sw, port, 2_000.0, 10_000.0
        )
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.attach_pattern(UniformPattern(net.num_nodes))
        rate = net.cfg.offered_load_to_rate(0.3)
        for node in net.endnodes:
            node.start_generation(rate)
        net.engine.run(until=15_000.0)
        for node in net.endnodes:
            node.stop_generation()
        net.engine.run()
        generated = sum(nd.packets_generated for nd in net.endnodes)
        delivered = sum(nd.packets_received for nd in net.endnodes)
        backlog = sum(nd.backlog for nd in net.endnodes)
        assert generated > 0
        assert generated == delivered + mgr.packets_lost() + backlog

    def test_metrics_row_shape(self):
        net = make_net()
        mgr = run_scenario(net)
        row = mgr.metrics().as_row()
        assert row["reroutes"] == 2
        assert row["packets_lost"] == 0
        assert row["time_to_detect"] >= 0
        assert row["time_to_repair"] >= row["time_to_detect"]


class TestCancelPendingFaults:
    def test_keeps_first_recovery_of_what_is_down(self):
        net = make_net(4, 3)
        root, other = net.ft.switches_at_level(0)[:2]
        sched = (
            FaultSchedule(net.ft)
            .switch_down(1_000.0, root)
            .link_down(2_000.0, other, 0)
            .switch_up(5_000.0, root)
            .link_up(6_000.0, other, 0)
            .switch_down(20_000.0, root)
            .switch_up(25_000.0, root)
        )
        mgr = DynamicSubnetManager(net, sched)
        mgr.arm()
        net.engine.run(until=3_000.0)
        assert mgr.down_switches == {root}
        # Only the later down/up pair goes; both recoveries stay.
        assert mgr.cancel_pending_faults() == 2
        net.engine.run()
        assert not mgr.down_links and not mgr.down_switches
        assert len(mgr.records) == 4
        assert net.engine.now < 20_000.0
