"""Integration tests for the assembled subnet."""

import math

import pytest

from repro.core.forwarding import MlidScheme
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet
from repro.topology.fattree import FatTree
from repro.traffic import UniformPattern


def test_build_subnet_component_counts():
    net = build_subnet(4, 2)
    assert len(net.switches) == 6
    assert len(net.endnodes) == 8
    assert net.num_nodes == 8


def test_build_with_scheme_instance():
    ft = FatTree(4, 2)
    scheme = MlidScheme(ft)
    net = build_subnet(4, 2, scheme)
    assert net.scheme is scheme


def test_build_with_unknown_scheme_name():
    with pytest.raises(KeyError):
        build_subnet(4, 2, "bogus")


def test_dlid_matrix_matches_scheme():
    net = build_subnet(4, 2, "mlid")
    for s_pid in range(net.num_nodes):
        for d_pid in range(net.num_nodes):
            if s_pid == d_pid:
                continue
            src = net.ft.node_from_pid(s_pid)
            dst = net.ft.node_from_pid(d_pid)
            assert net.dlid_for(s_pid, d_pid) == net.scheme.dlid(src, dst)


def test_dlid_for_self_rejected():
    net = build_subnet(4, 2)
    with pytest.raises(ValueError):
        net.dlid_for(3, 3)


@pytest.mark.parametrize("src,dst", [(0, 8), (0, -1), (8, 0), (-1, 0)])
def test_dlid_for_out_of_range_rejected(src, dst):
    """The flattened matrix would answer (0, 8) with pair (1, 0)'s DLID
    and wrap a negative PID to the other end; both are errors."""
    net = build_subnet(4, 2)
    with pytest.raises(ValueError, match=r"\[0, 8\)"):
        net.dlid_for(src, dst)


class TestSinglePacketTiming:
    """Closed-form end-to-end latency of one unloaded packet."""

    def test_cross_tree_latency(self):
        """src -> leaf -> root -> leaf -> dst: per switch hop the
        cut-through cost is flying + routing; the terminal link adds
        flying + serialization."""
        cfg = SimConfig()
        net = build_subnet(4, 2, "mlid", cfg)
        src, dst = 0, net.num_nodes - 1  # prefix-disjoint pair
        p = net.endnodes[src].send_now(dst)
        net.engine.run()
        expected = 4 * cfg.flying_time_ns + 3 * cfg.routing_time_ns + 256.0
        assert p.t_delivered == pytest.approx(expected)
        assert p.hops == 3  # three switches traversed

    def test_same_leaf_latency(self):
        cfg = SimConfig()
        net = build_subnet(4, 2, "mlid", cfg)
        p = net.endnodes[0].send_now(1)  # same leaf switch
        net.engine.run()
        expected = 2 * cfg.flying_time_ns + 1 * cfg.routing_time_ns + 256.0
        assert p.t_delivered == pytest.approx(expected)

    def test_deeper_tree_adds_two_hops_per_level(self):
        cfg = SimConfig()
        net = build_subnet(4, 3, "mlid", cfg)
        p = net.endnodes[0].send_now(net.num_nodes - 1)
        net.engine.run()
        expected = 6 * cfg.flying_time_ns + 5 * cfg.routing_time_ns + 256.0
        assert p.t_delivered == pytest.approx(expected)

    def test_slid_same_unloaded_latency(self):
        cfg = SimConfig()
        for scheme in ("mlid", "slid"):
            net = build_subnet(4, 2, scheme, cfg)
            p = net.endnodes[0].send_now(net.num_nodes - 1)
            net.engine.run()
            expected = 4 * cfg.flying_time_ns + 3 * cfg.routing_time_ns + 256.0
            assert p.t_delivered == pytest.approx(expected)


class TestMeasurement:
    def test_low_load_accepted_equals_offered(self):
        net = build_subnet(4, 2, "mlid", seed=3)
        net.attach_pattern(UniformPattern(net.num_nodes))
        res = net.run_measurement(0.05, warmup_ns=5_000, measure_ns=40_000)
        assert res["accepted"] == pytest.approx(0.05, rel=0.15)
        assert res["latency_mean"] > 0
        assert res["backlog"] == 0

    def test_measurement_single_shot(self):
        net = build_subnet(4, 2, "mlid")
        net.attach_pattern(UniformPattern(net.num_nodes))
        net.run_measurement(0.05, 1_000, 5_000)
        with pytest.raises(RuntimeError, match="single-shot"):
            net.run_measurement(0.05, 1_000, 5_000)

    def test_invalid_windows_rejected(self):
        net = build_subnet(4, 2, "mlid")
        net.attach_pattern(UniformPattern(net.num_nodes))
        with pytest.raises(ValueError):
            net.run_measurement(0.05, -1.0, 5_000)
        with pytest.raises(ValueError):
            net.run_measurement(0.05, 1_000, 0.0)

    @pytest.mark.parametrize(
        "warmup,measure",
        [(1_000, math.nan), (1_000, math.inf), (math.nan, 5_000), (math.inf, 5_000)],
    )
    def test_non_finite_windows_rejected(self, warmup, measure):
        # At offered load 0 nothing is scheduled, so a window that is
        # wrongly accepted returns instead of running forever.
        net = build_subnet(4, 2, "mlid")
        net.attach_pattern(UniformPattern(net.num_nodes))
        with pytest.raises(ValueError, match="finite"):
            net.run_measurement(0.0, warmup, measure)

    def test_conservation_generated_equals_delivered_plus_inflight(self):
        net = build_subnet(4, 2, "mlid", seed=7)
        net.attach_pattern(UniformPattern(net.num_nodes))
        net.run_measurement(0.3, warmup_ns=0.0, measure_ns=60_000)
        generated = sum(nd.packets_generated for nd in net.endnodes)
        received = sum(nd.packets_received for nd in net.endnodes)
        backlog = sum(nd.backlog for nd in net.endnodes)
        in_fabric = generated - received - backlog
        # Everything in flight must fit in the finite fabric buffers
        # (NIC + per-switch input/output buffers + wires).
        assert 0 <= in_fabric <= 2 * net.ft.num_switches * net.ft.m + 2 * net.num_nodes

    def test_seed_reproducibility(self):
        results = []
        for _ in range(2):
            net = build_subnet(4, 2, "mlid", seed=11)
            net.attach_pattern(UniformPattern(net.num_nodes))
            results.append(net.run_measurement(0.2, 5_000, 30_000))
        assert results[0]["accepted"] == results[1]["accepted"]
        assert results[0]["latency_mean"] == results[1]["latency_mean"]
        assert results[0]["events"] == results[1]["events"]

    def test_different_seeds_differ(self):
        outs = []
        for seed in (1, 2):
            net = build_subnet(4, 2, "mlid", seed=seed)
            net.attach_pattern(UniformPattern(net.num_nodes))
            outs.append(net.run_measurement(0.2, 5_000, 30_000))
        assert outs[0]["latency_mean"] != outs[1]["latency_mean"]

    def test_zero_traffic_yields_nan_latency(self):
        net = build_subnet(4, 2, "mlid")
        net.attach_pattern(UniformPattern(net.num_nodes))
        res = net.run_measurement(0.0, 1_000, 5_000)
        assert res["accepted"] == 0.0
        assert math.isnan(res["latency_mean"])
