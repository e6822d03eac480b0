"""Tests for the sweep runner (small, fast configurations)."""

import math

import pytest

from repro.experiments.runner import run_point
from repro.experiments.sweep import run_sweep, saturation_throughput
from repro.ib.config import SimConfig

FAST = dict(warmup_ns=2_000.0, measure_ns=20_000.0)


def test_run_point_returns_measurement():
    res = run_point(4, 2, "mlid", "uniform", 0.1, seed=1, **FAST)
    assert res["accepted"] == pytest.approx(0.1, rel=0.3)
    assert res["latency_mean"] > 0


def test_run_point_centric_uses_fraction():
    res = run_point(
        4, 2, "mlid", "centric", 0.1, hotspot_fraction=1.0, seed=1, **FAST
    )
    assert res["packets"] > 0


def test_run_sweep_shapes():
    points = run_sweep(4, 2, "slid", "uniform", [0.05, 0.1], seeds=(1,), **FAST)
    assert [p.offered for p in points] == [0.05, 0.1]
    assert all(p.scheme == "slid" for p in points)
    assert all(p.replicas == 1 for p in points)


def test_run_sweep_averages_seeds():
    points = run_sweep(
        4, 2, "mlid", "uniform", [0.1], seeds=(1, 2, 3), **FAST
    )
    assert points[0].replicas == 3
    assert points[0].packets > 0


def test_run_sweep_empty_inputs_rejected():
    with pytest.raises(ValueError):
        run_sweep(4, 2, "mlid", "uniform", [], seeds=(1,))
    with pytest.raises(ValueError):
        run_sweep(4, 2, "mlid", "uniform", [0.1], seeds=())


@pytest.mark.parametrize("mode", ["packet", "flow", "hybrid"])
def test_run_sweep_repeated_seeds_rejected(mode):
    # One seed is one replica; repeating it would count it twice.
    with pytest.raises(ValueError, match="repeated seeds"):
        run_sweep(4, 2, "mlid", "uniform", [0.1], seeds=(1, 1), mode=mode)


def test_zero_load_gives_nan_latency():
    points = run_sweep(4, 2, "mlid", "uniform", [0.0], seeds=(1,), **FAST)
    assert points[0].accepted == 0.0
    assert math.isnan(points[0].latency_mean)


def test_saturation_throughput():
    points = run_sweep(
        4, 2, "mlid", "uniform", [0.05, 0.1], seeds=(1,), **FAST
    )
    assert saturation_throughput(points) == max(p.accepted for p in points)


def test_saturation_throughput_empty_curve_is_nan():
    # An empty curve degrades to NaN rather than raising and poisoning
    # the whole figure report.
    assert math.isnan(saturation_throughput([]))


def test_unknown_sweep_mode_rejected():
    with pytest.raises(ValueError, match="unknown sweep mode"):
        run_sweep(4, 2, "mlid", "uniform", [0.1], seeds=(1,), mode="magic")


def test_points_default_packet_backend():
    points = run_sweep(4, 2, "mlid", "uniform", [0.1], seeds=(1,), **FAST)
    assert points[0].backend == "packet"
    assert points[0].as_row()["backend"] == "packet"


def test_custom_cfg_respected():
    cfg = SimConfig(num_vls=2)
    points = run_sweep(
        4, 2, "mlid", "uniform", [0.1], cfg=cfg, seeds=(1,), **FAST
    )
    assert points[0].num_vls == 2


def test_as_row_round_trip():
    points = run_sweep(4, 2, "mlid", "uniform", [0.1], seeds=(1,), **FAST)
    row = points[0].as_row()
    assert row["scheme"] == "mlid"
    assert row["offered"] == 0.1
