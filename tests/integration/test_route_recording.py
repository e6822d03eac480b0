"""Cross-validation: simulated routes equal statically traced routes.

With ``record_routes`` on, every delivered packet carries its actual
switch sequence; it must match :func:`repro.core.verification
.trace_path` for the same (src, dst, DLID) — tying the simulator and
the static verifier together.
"""

import pytest

from repro.core.verification import trace_path
from repro.ib import endnode
from repro.ib.config import SimConfig
from repro.ib.packet import Packet
from repro.ib.subnet import build_subnet
from repro.topology.labels import format_switch
from repro.traffic import UniformPattern


@pytest.mark.parametrize("scheme", ["mlid", "slid"])
def test_single_packet_route_matches_static_trace(scheme):
    cfg = SimConfig(record_routes=True)
    net = build_subnet(4, 3, scheme, cfg, seed=1)
    packets = []
    for src, dst in [(0, 15), (3, 12), (7, 8), (0, 1)]:
        packets.append((src, dst, net.endnodes[src].send_now(dst)))
    net.engine.run()
    for src, dst, p in packets:
        static = trace_path(
            net.scheme,
            net.ft.node_from_pid(src),
            net.ft.node_from_pid(dst),
        )
        expected = [format_switch(*sw) for sw in static.switches]
        assert p.route == expected


@pytest.mark.parametrize("scheme", ["mlid", "slid"])
def test_loaded_run_routes_all_match(scheme, monkeypatch):
    """Under real load with contention, every delivered packet still
    took exactly its statically predicted route (deterministic
    forwarding is load-independent)."""
    cfg = SimConfig(record_routes=True)
    net = build_subnet(4, 2, scheme, cfg, seed=3)
    net.attach_pattern(UniformPattern(net.num_nodes))

    # Every packet the sources build, recorded at construction: the
    # fused sink consumes packets without a per-node method to hook.
    generated = []

    class RecordedPacket(Packet):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            generated.append(self)

    monkeypatch.setattr(endnode, "Packet", RecordedPacket)
    net.run_measurement(0.4, warmup_ns=2_000, measure_ns=20_000)
    captured = [p for p in generated if p.t_delivered >= 0]
    assert len(captured) > 100
    for p in captured:
        static = trace_path(
            net.scheme,
            net.ft.node_from_pid(p.src_pid),
            net.ft.node_from_pid(p.dst_pid),
            dlid=p.dlid,
        )
        assert p.route == [format_switch(*sw) for sw in static.switches]


def test_recording_off_by_default():
    net = build_subnet(4, 2, "mlid", seed=1)
    p = net.endnodes[0].send_now(5)
    net.engine.run()
    assert p.route is None
