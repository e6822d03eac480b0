"""Differential tests: the wheel backend must be *bit-identical* to
the heap oracle.

The wheel engine (repro.sim.wheel) reproduces the heap engine's exact
total event order — (time, schedule-sequence) with FIFO tie-break —
so every derived number must match exactly: StatsCollector output,
per-channel drop and send counters, events_processed, and the failover
metrics of the dynamic subnet manager.  Any divergence, however small,
means the scheduler or the fused hop path (repro.ib.fastpath) changed
simulation semantics and is a bug.  The cases cover every path the
paper's figures run (1, 2 and 4 VLs, uniform and 50%-centric traffic)
and the fallbacks around the fused start: weighted VL arbitration,
per-port routing engines, FIFO injection of multi-packet messages,
and generation stopped and restarted mid-run.  The fused source is
covered under both VL policies and both injection queues.

The fused source reads its draws through each node's traffic tape,
while the heap draws inline; so the cases where the wheel replays a
tape recorded by another point, at another scheme and VL count, check
replay against fresh draws.

The heap side goes through ``build_subnet``'s ``engine=`` seam, and
asserts that the seam took: a seam that stopped applying would
compare the wheel with itself.
"""

import pytest

from repro.experiments.failover import FAILOVER_COLUMNS, run_failover
from repro.ib.config import SimConfig
from repro.ib.endnode import TrafficTapes
from repro.ib.subnet import build_subnet
from repro.sim.engine import Engine
from repro.sim.wheel import WheelEngine
from repro.traffic.patterns import make_pattern

ENGINES = {"heap": Engine, "wheel": WheelEngine}


def _build(engine, m, n, cfg, seed, scheme="mlid", traffic=None):
    """A subnet on a fresh engine of the named backend."""
    net = build_subnet(
        m, n, scheme, cfg=cfg, seed=seed, engine=ENGINES[engine](), traffic=traffic
    )
    assert type(net.engine) is ENGINES[engine]
    return net


def _channels(net):
    """Every channel's (dropped, sent) counters, in a fixed order."""
    txs = [
        sw.tx[port] for sw in net.switches.values() for port in sorted(sw.tx)
    ] + [node.tx for node in net.endnodes]
    return [(tx.packets_dropped, tx.packets_sent) for tx in txs]


def _measure(
    engine, m, n, seed, load, pattern="uniform", scheme="mlid", traffic=None,
    measure_ns=20_000, **cfg_kw,
):
    net = _build(engine, m, n, SimConfig(**cfg_kw), seed, scheme, traffic)
    net.attach_pattern(make_pattern(pattern, net.num_nodes))
    stats = net.run_measurement(load, warmup_ns=2_000, measure_ns=measure_ns)
    # Per-destination deliveries in full: the fairness index in `stats`
    # does not change when every count scales alike.
    per_destination = net.throughput.per_destination
    return stats, per_destination, _channels(net), net.engine.events_processed


@pytest.mark.parametrize("m,n", [(4, 2), (8, 2)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_measurement_bit_identical(m, n, seed):
    """Full measurement dict, per-channel drops and the event count
    match exactly across backends (3 seeds x 2 topologies)."""
    heap = _measure("heap", m, n, seed, 0.3)
    wheel = _measure("wheel", m, n, seed, 0.3)
    assert heap == wheel


def test_measurement_bit_identical_contended():
    """High load + shared routing-engine pool: the fused fast path must
    fall back under contention without perturbing results."""
    heap = _measure("heap", 4, 2, 1, 0.8, routing_engines_per_switch=1)
    wheel = _measure("wheel", 4, 2, 1, 0.8, routing_engines_per_switch=1)
    assert heap == wheel


def test_measurement_bit_identical_multi_packet_messages():
    heap = _measure("heap", 8, 2, 2, 0.2, message_packets=4)
    wheel = _measure("wheel", 8, 2, 2, 0.2, message_packets=4)
    assert heap == wheel


def test_per_port_buffered_messages_ft8x3_bit_identical_and_repeatable():
    """FT(8,3) uniform at 0.22 with per-port routing engines, 4-packet
    buffers and 4-packet messages: the backends agree, and a second
    run of either backend repeats the first exactly."""
    cfg_kw = dict(
        routing_engines_per_switch=0, buffer_packets_per_vl=4, message_packets=4
    )
    runs = {
        engine: [_measure(engine, 8, 3, 1, 0.22, **cfg_kw) for _ in range(2)]
        for engine in ENGINES
    }
    assert runs["heap"][0] == runs["heap"][1]
    assert runs["wheel"][0] == runs["wheel"][1]
    assert runs["heap"][0] == runs["wheel"][0]


@pytest.mark.parametrize(
    "m,n,pattern,cfg_kw",
    [
        pytest.param(8, 2, "uniform", {"num_vls": 2}, id="ft8x2-uniform-2vl"),
        pytest.param(8, 2, "uniform", {"num_vls": 4}, id="ft8x2-uniform-4vl"),
        pytest.param(8, 2, "centric", {"num_vls": 2}, id="ft8x2-centric-2vl"),
        pytest.param(8, 2, "centric", {"num_vls": 4}, id="ft8x2-centric-4vl"),
        pytest.param(8, 3, "centric", {"num_vls": 2}, id="ft8x3-centric-2vl"),
        pytest.param(
            4, 2, "centric",
            {"num_vls": 2, "vl_arbitration": "weighted", "vl_weights": (12, 4)},
            id="weighted-arbitration",
        ),
        pytest.param(
            4, 2, "centric", {"num_vls": 2, "routing_engines_per_switch": 0},
            id="per-port-routing",
        ),
        pytest.param(
            4, 2, "centric",
            {"num_vls": 2, "injection_queueing": "fifo", "message_packets": 3},
            id="fifo-messages",
        ),
        pytest.param(4, 2, "uniform", {"num_vls": 2}, id="ft4x2-uniform-2vl"),
        pytest.param(4, 2, "uniform", {"num_vls": 4}, id="ft4x2-uniform-4vl"),
        pytest.param(
            8, 2, "centric", {"num_vls": 2, "vl_policy": "dest"},
            id="dest-vl-policy",
        ),
        pytest.param(8, 3, "centric", {}, id="ft8x3-centric-1vl"),
        pytest.param(
            4, 2, "centric", {"num_vls": 2, "message_packets": 3},
            id="per-destination-exponential-messages",
        ),
    ],
)
def test_measurement_bit_identical_multi_vl(m, n, pattern, cfg_kw):
    """The figures' 2- and 4-VL points, where the fused start scans the
    VLs round-robin from the transmitter's pointer exactly as kick does,
    and the cases around it: weighted arbitration stays on kick(); the
    others run the fused start under per-port routing, FIFO-queued
    multi-packet messages and the dest VL policy.  The fused source
    draws the destination and the gap from the node's stream in the
    oracle's order: fig19's 1-VL centric points queue most of what
    they generate, and multi-packet messages go through the
    per-destination queues."""
    heap = _measure("heap", m, n, 1, 0.7, pattern, **cfg_kw)
    wheel = _measure("wheel", m, n, 1, 0.7, pattern, **cfg_kw)
    assert heap == wheel


@pytest.mark.parametrize(
    "m,n,pattern,recorder_vls,cfg_kw",
    [
        pytest.param(8, 2, "uniform", 4, {}, id="ft8x2-uniform"),
        pytest.param(8, 2, "centric", 2, {"num_vls": 4}, id="ft8x2-centric-4vl"),
        pytest.param(
            4, 2, "centric", 1,
            {"num_vls": 2, "injection_queueing": "fifo", "message_packets": 3},
            id="fifo-messages",
        ),
    ],
)
def test_replayed_tape_equals_heap_oracle(m, n, pattern, recorder_vls, cfg_kw):
    """A wheel point replaying tapes that an SLID point at another VL
    count recorded, over a shorter window, equals the heap oracle drawing
    fresh: the tape yields the oracle's draws in the oracle's order,
    and continues the stream past its end."""
    traffic = TrafficTapes(1)
    recorder_kw = dict(cfg_kw, num_vls=recorder_vls)
    _measure(
        "wheel", m, n, 1, 0.7, pattern,
        scheme="slid", traffic=traffic, measure_ns=10_000, **recorder_kw,
    )
    recorded = sum(len(tape) for tape in traffic.tapes)
    replay = _measure("wheel", m, n, 1, 0.7, pattern, traffic=traffic, **cfg_kw)
    assert sum(len(tape) for tape in traffic.tapes) > recorded > 0
    heap = _measure("heap", m, n, 1, 0.7, pattern, **cfg_kw)
    assert replay == heap


def test_shared_tapes_refused_where_drawn_inline():
    """The heap draws inline, so it cannot replay a tape; and tapes
    spawned from one seed replay only that seed."""
    traffic = TrafficTapes(1)
    with pytest.raises(ValueError, match="draws inline"):
        build_subnet(4, 2, "mlid", seed=1, engine=Engine(), traffic=traffic)
    with pytest.raises(ValueError, match="seed 1"):
        build_subnet(4, 2, "mlid", seed=2, traffic=traffic)


def _stop_restart(engine, traffic=None, num_vls=2):
    """Generation stopped mid-run and restarted before every cancelled
    generation event has come due, then drained."""
    cfg = SimConfig(num_vls=num_vls)
    net = _build(engine, 4, 2, cfg, 3, traffic=traffic)
    net.attach_pattern(make_pattern("uniform", net.num_nodes))
    rate = cfg.offered_load_to_rate(0.6)
    eng = net.engine
    for until in (5_000.0, 5_300.0, 12_000.0):
        for node in net.endnodes:
            node.stop_generation()
            node.start_generation(rate)
        eng.run(until=until)
    for node in net.endnodes:
        node.stop_generation()
    eng.run()
    nodes = [
        (node.packets_generated, node.packets_received, node.backlog)
        for node in net.endnodes
    ]
    return nodes, _channels(net), eng.events_processed, eng.now


def test_stop_and_restart_generation_bit_identical():
    """The wheel's pooled generation handle: a stopped process never
    fires again, and a restarted one draws and fires as the oracle's."""
    heap = _stop_restart("heap")
    wheel = _stop_restart("wheel")
    assert heap == wheel
    nodes, _, _, _ = wheel
    assert sum(node[0] for node in nodes) == sum(node[1] for node in nodes) > 0
    # Every start records its own phase: a replay of the same stops and
    # restarts, at another VL count, still equals the oracle.
    traffic = TrafficTapes(3)
    _stop_restart("wheel", traffic, num_vls=1)
    assert _stop_restart("wheel", traffic) == heap


def _nic_fail_revive(engine):
    """Two NICs die mid-run and come back: while dead, each generation
    queues its message and the refill drops the queue head; after the
    revive, a NIC with a free slot faces an injection backlog."""
    cfg = SimConfig(num_vls=2)
    net = _build(engine, 4, 2, cfg, 5)
    net.attach_pattern(make_pattern("uniform", net.num_nodes))
    rate = cfg.offered_load_to_rate(0.9)
    for node in net.endnodes:
        node.start_generation(rate)
    eng = net.engine
    nics = [net.endnodes[0].tx, net.endnodes[3].tx]
    eng.run(until=4_000.0)
    for tx in nics:
        tx.fail()
    eng.run(until=7_000.0)
    for tx in nics:
        rx = tx.receiver
        tx.revive([rx._cap - len(fifo) for fifo in rx._fifos])
    eng.run(until=15_000.0)
    for node in net.endnodes:
        node.stop_generation()
    eng.run()
    nodes = [
        (node.packets_generated, node.packets_received, node.backlog)
        for node in net.endnodes
    ]
    return nodes, _channels(net), eng.events_processed, eng.now


def test_nic_fail_and_revive_bit_identical():
    """The fused source's queueing branches: a dead NIC, and a live
    one with a free slot behind an injection backlog, take the
    oracle's push-and-refill."""
    heap = _nic_fail_revive("heap")
    wheel = _nic_fail_revive("wheel")
    assert heap == wheel
    _, channels, _, _ = wheel
    assert sum(dropped for dropped, _ in channels) > 0


def _failover_row(engine, m=8, n=2, **kwargs):
    eng = ENGINES[engine]()
    kwargs = {"t_fail": 6_000.0, "t_recover": 18_000.0, "load": 0.1, **kwargs}
    row = run_failover(m, n, "mlid", seed=1, engine=eng, **kwargs)
    # The run happened on the engine passed in, not on a default one.
    assert eng.events_processed > 0 and eng.now >= kwargs["t_recover"]
    metrics = {col: row[col] for col in FAILOVER_COLUMNS}
    records = [
        (
            r.kind,
            r.time_to_detect,
            r.time_to_repair,
            r.switches_programmed,
            r.entries_changed,
            r.flows_rerouted,
            r.path_inflation,
        )
        for r in row["records"]
    ]
    return metrics, records


def test_failover_metrics_identical_across_backends():
    """Live fail/recover on the dynamic subnet manager: time-to-detect,
    time-to-repair, packets lost, flows rerouted and the per-transition
    records are identical on both engines."""
    heap = _failover_row("heap")
    wheel = _failover_row("wheel")
    assert heap == wheel
    metrics, records = wheel
    # Sanity: the scenario actually exercised a failure and a recovery.
    assert {r[0] for r in records} == {"down", "up"}
    assert metrics["time_to_detect"] > 0.0
    assert metrics["generated"] > 0


def test_failover_reflected_drops_identical_across_backends():
    """FT(4,2) at load 0.6: mid-repair, packets that a stale switch
    sends to one whose new entry points back out of their input port
    are dropped (not forwarded, not fatal) the same way on both
    engines."""
    kwargs = dict(m=4, n=2, t_fail=20_000.0, t_recover=60_000.0, load=0.6)
    heap = _failover_row("heap", **kwargs)
    wheel = _failover_row("wheel", **kwargs)
    assert heap == wheel
    metrics, _ = wheel
    assert metrics["packets_lost"] > 0
    assert metrics["generated"] == (
        metrics["delivered"] + metrics["packets_lost"] + metrics["backlog"]
    )
