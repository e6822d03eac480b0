"""Tests for SimConfig validation and derived quantities."""

import dataclasses

import pytest

from repro.ib.config import IBA_MAX_DATA_VLS, SimConfig


def test_paper_defaults():
    cfg = SimConfig()
    assert cfg.flying_time_ns == 20.0
    assert cfg.routing_time_ns == 100.0
    assert cfg.byte_time_ns == 1.0
    assert cfg.packet_bytes == 256
    assert cfg.num_vls == 1
    assert cfg.buffer_packets_per_vl == 1
    assert cfg.injection_queueing == "per_destination"
    assert cfg.routing_engines_per_switch == 1


def test_serialization_time():
    assert SimConfig().serialization_ns == 256.0
    assert SimConfig(packet_bytes=64, byte_time_ns=0.5).serialization_ns == 32.0


def test_link_bandwidth():
    assert SimConfig().link_bandwidth == 1.0
    assert SimConfig(byte_time_ns=0.25).link_bandwidth == 4.0


def test_with_vls():
    cfg = SimConfig(num_vls=1, packet_bytes=128)
    cfg2 = cfg.with_vls(4)
    assert cfg2.num_vls == 4
    assert cfg2.packet_bytes == 128
    assert cfg.num_vls == 1  # original untouched (frozen)


def test_offered_load_conversion():
    cfg = SimConfig(packet_bytes=256)
    assert cfg.offered_load_to_rate(0.512) == pytest.approx(0.002)
    assert cfg.offered_load_to_rate(0.0) == 0.0
    with pytest.raises(ValueError):
        cfg.offered_load_to_rate(-0.1)


@pytest.mark.parametrize("bad", [
    dict(flying_time_ns=-1.0),
    dict(routing_time_ns=-5.0),
    dict(byte_time_ns=0.0),
    dict(packet_bytes=0),
    dict(num_vls=0),
    dict(num_vls=IBA_MAX_DATA_VLS + 1),
    dict(buffer_packets_per_vl=0),
    dict(vl_policy="magic"),
    dict(vl_policy="roundrobin"),
    dict(injection_queueing="lifo"),
    dict(routing_engines_per_switch=-1),
    dict(vl_policy="random"),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        SimConfig(**bad)


def test_fifteen_fields():
    assert len(dataclasses.fields(SimConfig)) == 15


@pytest.mark.parametrize(
    "removed", ["arrival_process", "onoff_peak_ratio", "onoff_burst_packets"]
)
def test_removed_arrival_fields_rejected(removed):
    # Generation is Poisson only: the arrival-process knobs are gone.
    with pytest.raises(TypeError, match=removed):
        SimConfig(**{removed: 1})


def test_vl_count_up_to_iba_limit():
    SimConfig(num_vls=IBA_MAX_DATA_VLS)  # must not raise


def test_frozen():
    cfg = SimConfig()
    with pytest.raises(Exception):
        cfg.num_vls = 2
