"""A finished figure point frees itself by refcount.

``Subnet.close`` breaks every reference cycle among a subnet's
components, and ``run_point`` closes the subnet it built, with the
cyclic garbage collector paused for the point's lifetime.  So with the
collector off, a collection right after a point must find nothing: a
cycle left behind would be garbage that only the collector can free.

The points run past saturation, so that every kind of state a stopped
run can hold is there when it stops: crossbar waiters on full output
buffers, fused hops queued on a busy routing engine, injection
backlogs, and packets on the wires.  ``test_stopped_run_holds_state``
checks that it is.
"""

import gc

import pytest

from repro.experiments.runner import _build_pattern, run_point
from repro.ib.artifacts import get_artifacts
from repro.ib.config import SimConfig
from repro.ib.endnode import TrafficTapes
from repro.ib.fastpath import HopEvent
from repro.ib.subnet import build_subnet
from repro.sim.engine import Engine

M, N = 4, 2
OVERLOAD = 0.9
WINDOWS = dict(warmup_ns=2_000.0, measure_ns=8_000.0)

CONFIGS = {
    "1vl": SimConfig(),
    "2vl": SimConfig(num_vls=2),
    "4vl": SimConfig(num_vls=4),
    "weighted": SimConfig(num_vls=2, vl_arbitration="weighted"),
    "fifo": SimConfig(injection_queueing="fifo"),
    "per-port-routing": SimConfig(routing_engines_per_switch=0),
}
CASES = [
    pytest.param(cfg, pattern, id=f"{name}-{pattern}")
    for name, cfg in CONFIGS.items()
    for pattern in ("uniform", "centric")
]


@pytest.fixture
def collector_off():
    """Collector off for the test body, and the caller's state back after."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _warm(pattern):
    """Fill the per-process caches a point reads (routing artifacts,
    traffic pattern), then clear out earlier garbage: what remains to
    be found afterwards is the point's own."""
    artifacts = get_artifacts(M, N, "mlid")
    _build_pattern(pattern, artifacts.ft.num_nodes, 0.5)
    gc.collect()


def _overloaded(cfg, pattern, engine=None):
    net = build_subnet(
        M, N, "mlid", cfg, seed=1,
        artifacts=get_artifacts(M, N, "mlid"), engine=engine,
    )
    net.attach_pattern(_build_pattern(pattern, net.num_nodes, 0.5))
    net.run_measurement(OVERLOAD, **WINDOWS)
    return net


@pytest.mark.parametrize("cfg,pattern", CASES)
def test_point_leaves_no_cyclic_garbage(collector_off, cfg, pattern):
    _warm(pattern)
    result = run_point(M, N, "mlid", pattern, OVERLOAD, cfg=cfg, seed=1, **WINDOWS)
    assert gc.collect() == 0
    assert result["packets"] > 0


def test_points_sharing_tapes_leave_no_cyclic_garbage(collector_off):
    """A recording point and a replaying one: the tapes hold numbers
    only, so neither point leaves a cycle behind, and the tapes outlive
    the subnets that read them."""
    cfg = SimConfig(num_vls=2)
    _warm("centric")
    traffic = TrafficTapes(1)
    results = [
        run_point(M, N, "mlid", "centric", OVERLOAD, cfg=point_cfg, seed=1,
                  traffic=traffic, **WINDOWS)
        for point_cfg in (cfg, SimConfig())
    ]
    assert gc.collect() == 0
    assert all(result["packets"] > 0 for result in results)
    assert all(tape for tape in traffic.tapes)


def test_heap_engine_subnet_closed_by_hand(collector_off):
    cfg = SimConfig()
    _warm("centric")
    net = _overloaded(cfg, "centric", engine=Engine())
    assert type(net.engine) is Engine
    net.close()
    net.close()  # idempotent
    del net
    assert gc.collect() == 0


@pytest.mark.parametrize("cfg,pattern", CASES)
def test_stopped_run_holds_state(cfg, pattern):
    """The same points, built by hand: the state a close must release
    is there when the run stops."""
    net = _overloaded(cfg, pattern)
    txs = [tx for sw in net.switches.values() for tx in sw.tx.values()]
    assert any(queue for tx in txs for queue in tx.waiters)
    assert sum(node.backlog for node in net.endnodes) > 0
    assert net.engine.pending > 0
    queued = [req for sw in net.switches.values() for req in sw.router.queue]
    if cfg.routing_engines_per_switch and pattern == "uniform":
        assert any(req.__class__ is HopEvent for req in queued)
    net.close()
    assert net.engine.pending == 0
    assert not any(sw.router.queue for sw in net.switches.values())


def test_closed_subnet_cannot_run():
    net = build_subnet(M, N)
    net.close()
    with pytest.raises(RuntimeError, match="closed"):
        net.run_measurement(0.1, **WINDOWS)


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_run_point_restores_collector_state(collecting):
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        run_point(M, N, "mlid", "uniform", 0.1, seed=1, **WINDOWS)
        assert gc.isenabled() is collecting
        with pytest.raises(ValueError, match="warmup"):
            run_point(M, N, "mlid", "uniform", 0.1, warmup_ns=-1.0)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
