"""Tests for the receive-fairness metric."""

import math

import pytest

from repro.ib.subnet import build_subnet
from repro.traffic import CentricPattern, UniformPattern


class TestFairness:
    def test_uniform_traffic_is_fair(self):
        net = build_subnet(8, 2, "mlid", seed=1)
        net.attach_pattern(UniformPattern(net.num_nodes))
        res = net.run_measurement(0.2, warmup_ns=5_000, measure_ns=50_000)
        assert res["fairness"] > 0.9

    def test_hotspot_traffic_is_unfair(self):
        net = build_subnet(8, 2, "mlid", seed=1)
        net.attach_pattern(CentricPattern(net.num_nodes, 0, 0.9))
        res = net.run_measurement(0.2, warmup_ns=5_000, measure_ns=50_000)
        assert res["fairness"] < 0.5

    def test_no_traffic_is_nan(self):
        net = build_subnet(4, 2, "mlid", seed=1)
        net.attach_pattern(UniformPattern(net.num_nodes))
        res = net.run_measurement(0.0, warmup_ns=1_000, measure_ns=5_000)
        assert math.isnan(res["fairness"])

    def test_fairness_requires_measurement(self):
        net = build_subnet(4, 2, "mlid", seed=1)
        with pytest.raises(RuntimeError):
            net.receive_fairness()

    def test_fairness_bounds(self):
        net = build_subnet(4, 2, "mlid", seed=4)
        net.attach_pattern(UniformPattern(net.num_nodes))
        res = net.run_measurement(0.3, warmup_ns=5_000, measure_ns=30_000)
        assert 1.0 / net.num_nodes <= res["fairness"] <= 1.0
