"""Tests for the endnode: generation, injection queues, sink."""

import itertools

import numpy as np
import pytest

from repro.ib.config import SimConfig
from repro.ib.endnode import (
    Endnode,
    FifoInjection,
    PerDestinationInjection,
    TrafficTapes,
)
from repro.ib.packet import Packet
from repro.sim.engine import Engine
from repro.sim.stats import LatencyStats, ThroughputMeter, WarmupFilter
from repro.sim.wheel import WheelEngine
from repro.traffic.patterns import UniformPattern


def make_node(num_vls=1, queueing="per_destination", seed=0, **cfg_kw):
    cfg = SimConfig(num_vls=num_vls, injection_queueing=queueing, **cfg_kw)
    eng = Engine()
    node = Endnode(eng, cfg, pid=0, slid=1, rng=np.random.default_rng(seed))
    node.dlid_for = lambda s, d: d + 1
    node.choose_destination = lambda rng: 1
    return eng, cfg, node


class Recorder:
    def __init__(self, engine):
        self.engine = engine
        self.got = []

    def receive(self, packet):
        self.got.append((self.engine.now, packet))


def pkt(dst=0, vl=0):
    return Packet(5, dst + 1, 4, dst, 256, vl, 0.0)


class TestInjectionQueues:
    def test_fifo_order(self):
        q = FifoInjection(1)
        a, b = pkt(1), pkt(2)
        q.push(a)
        q.push(b)
        assert q.pull(0) is a
        assert q.pull(0) is b
        assert q.pull(0) is None
        assert q.backlog == 0

    def test_fifo_per_vl(self):
        q = FifoInjection(2)
        a, b = pkt(1, vl=0), pkt(2, vl=1)
        q.push(a)
        q.push(b)
        assert q.pull(1) is b
        assert q.pull(0) is a

    def test_per_destination_round_robin(self):
        q = PerDestinationInjection(1)
        a1, a2 = pkt(1), pkt(1)
        b1 = pkt(2)
        q.push(a1)
        q.push(a2)
        q.push(b1)
        # RR over destinations: 1, 2, 1.
        assert q.pull(0) is a1
        assert q.pull(0) is b1
        assert q.pull(0) is a2
        assert q.pull(0) is None

    def test_per_destination_backlog(self):
        q = PerDestinationInjection(1)
        for d in (1, 1, 2, 3):
            q.push(pkt(d))
        assert q.backlog == 4
        q.pull(0)
        assert q.backlog == 3

    def test_per_destination_hot_flow_does_not_block_others(self):
        """The key property: an arbitrarily deep hot queue still lets
        other destinations drain at the RR share."""
        q = PerDestinationInjection(1)
        for _ in range(100):
            q.push(pkt(9))  # hot backlog
        q.push(pkt(1))
        got = [q.pull(0).dst_pid for _ in range(3)]
        assert 1 in got[:2]  # served within one RR round

    def test_per_destination_pull_serves_only_its_vl(self):
        """Per-packet VL policies spread one destination's packets over
        VLs; each (destination, VL) pair keeps its own queue, so
        pull(vl) never hands the NIC a packet of another VL."""
        q = PerDestinationInjection(2)
        a0, a1, b1, a0b = pkt(1, vl=0), pkt(1, vl=1), pkt(2, vl=1), pkt(1, vl=0)
        for p in (a0, a1, b1, a0b):
            q.push(p)
        assert q.pull(1) is a1
        assert q.pull(1) is b1
        assert q.pull(1) is None
        assert q.pull(0) is a0
        assert q.pull(0) is a0b
        assert q.pull(0) is None
        assert q.backlog == 0


class TestGeneration:
    def test_zero_rate_generates_nothing(self):
        eng, cfg, node = make_node()
        node.start_generation(0.0)
        eng.run(until=10_000)
        assert node.packets_generated == 0

    def test_negative_rate_rejected(self):
        eng, cfg, node = make_node()
        with pytest.raises(ValueError):
            node.start_generation(-1.0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_rate_rejected(self, rate):
        # An infinite rate would schedule every gap at one instant, and
        # run() would never return.
        eng, cfg, node = make_node()
        with pytest.raises(ValueError, match="finite"):
            node.start_generation(rate)

    def test_exponential_rate_mean(self):
        eng, cfg, node = make_node()
        node.tx.connect(Recorder(eng))
        node.start_generation(0.01)
        eng.run(until=100_000)
        assert node.packets_generated == pytest.approx(1000, rel=0.15)

    @pytest.mark.parametrize("engine", [Engine, WheelEngine], ids=["heap", "wheel"])
    @pytest.mark.parametrize("packets", [1, 3])
    def test_gap_is_one_exponential_draw_per_packet(self, engine, packets):
        """After a uniform initial phase, each message waits the sum of
        one exponential draw per packet, in the oracle (heap) and in
        the fused source (wheel, with a DLID row) alike."""
        eng = engine()
        cfg = SimConfig(message_packets=packets)
        node = Endnode(eng, cfg, pid=0, slid=1, rng=np.random.default_rng(4))
        node.dlid_for = lambda s, d: d + 1
        node.dlid_row = [d + 1 for d in range(4)]
        node.tx.connect(Recorder(eng))
        times = []
        node.choose_destination = lambda rng: times.append(eng.now) or 1
        rate = 0.01
        node.start_generation(rate)
        eng.run(until=5_000)
        replica = np.random.default_rng(4)
        interval = 1.0 / rate
        t = replica.uniform(0.0, interval)
        expected = []
        while t <= 5_000:
            expected.append(t)
            gap = 0.0
            for _ in range(packets):
                gap += replica.exponential(interval)
            t += gap
        assert len(expected) > 10
        assert times == expected
        assert node.packets_generated == packets * len(expected)

    def test_self_traffic_detected(self):
        eng, cfg, node = make_node()
        node.choose_destination = lambda rng: 0  # self!
        node.start_generation(0.001)
        with pytest.raises(RuntimeError, match="itself"):
            eng.run(until=5_000)

    def test_send_now_returns_packet(self):
        eng, cfg, node = make_node()
        p = node.send_now(3)
        assert p.dst_pid == 3
        assert p.dlid == 4
        assert node.packets_generated == 1
        # The ambient chooser is restored.
        assert node.choose_destination(None) == 1

    def test_dlid_taken_from_resolver(self):
        eng, cfg, node = make_node()
        node.dlid_for = lambda s, d: 777
        assert node.send_now(5).dlid == 777


    @pytest.mark.parametrize("engine", [Engine, WheelEngine], ids=["heap", "wheel"])
    def test_second_start_raises(self, engine):
        """A node runs one generation process at a time.  Two would
        share one handle: the heap would run both, and
        ``stop_generation`` cancel only the newer, while on the wheel
        the older would reschedule onto the newer's handle."""
        eng = engine()
        node = Endnode(eng, SimConfig(), pid=0, slid=1, rng=np.random.default_rng(3))
        node.dlid_for = lambda s, d: d + 1
        node.dlid_row = [d + 1 for d in range(4)]
        node.tx.connect(Recorder(eng))
        node.choose_destination = lambda rng: 1
        node.start_generation(0.01)
        with pytest.raises(RuntimeError, match="already generating"):
            node.start_generation(0.01)
        eng.run(until=2_000)
        node.stop_generation()
        node.start_generation(0.01)  # a stopped node starts again
        eng.run(until=4_000)
        assert node.packets_generated > 0


def _recorded_packets(monkeypatch):
    """Every packet the endnode module builds, in creation order."""
    import repro.ib.endnode as endnode_module

    made = []

    class RecordedPacket(Packet):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(endnode_module, "Packet", RecordedPacket)
    return made


def _taped_source(traffic, until, rate=0.01, engine=WheelEngine, **cfg_kw):
    """Node 3 of 16, uniform traffic, on the first stream and tape of
    ``traffic``: generate until ``until`` ns."""
    eng = engine()
    (rng,), (tape,) = traffic.streams(1)
    node = Endnode(eng, SimConfig(**cfg_kw), pid=3, slid=4, rng=rng, tape=tape)
    node.dlid_for = lambda s, d: d + 1
    node.dlid_row = [d + 1 for d in range(16)]
    node.tx.connect(Recorder(eng))
    node.choose_destination = UniformPattern(16).chooser(3)
    node.start_generation(rate)
    eng.run(until=until)
    return node


class TestTrafficTape:
    @pytest.mark.parametrize("packets", [1, 3])
    def test_replay_past_the_tape_end_continues_the_stream(self, monkeypatch, packets):
        """A node that replays a shorter run's tape and runs past its
        end offers exactly the packets of a fresh node, and of the heap
        oracle, which draws inline."""
        made = _recorded_packets(monkeypatch)
        short, long = 2_000.0 * packets, 6_000.0 * packets
        shared = TrafficTapes(7)
        _taped_source(shared, short, message_packets=packets)
        (tape,) = shared.tapes
        recorded = len(tape)
        del made[:]
        _taped_source(shared, long, message_packets=packets)
        replayed = [(p.t_created, p.dst_pid) for p in made]
        assert len(tape) > recorded > 10  # drew, and recorded, past the end
        del made[:]
        fresh = TrafficTapes(7)
        _taped_source(fresh, long, message_packets=packets)
        assert [(p.t_created, p.dst_pid) for p in made] == replayed
        assert fresh.tapes == shared.tapes
        del made[:]
        _taped_source(TrafficTapes(7), long, engine=Engine, message_packets=packets)
        assert [(p.t_created, p.dst_pid) for p in made] == replayed

    @pytest.mark.parametrize(
        "rate,cfg_kw", [(0.02, {}), (0.01, {"message_packets": 2})],
        ids=["rate", "message-size"],
    )
    def test_replay_at_another_rate_raises(self, rate, cfg_kw):
        shared = TrafficTapes(7)
        _taped_source(shared, 2_000.0)
        with pytest.raises(ValueError, match="recorded at"):
            _taped_source(shared, 2_000.0, rate=rate, **cfg_kw)

    def test_tapes_hold_numbers_only(self):
        shared = TrafficTapes(7)
        node = _taped_source(shared, 2_000.0)
        (tape,) = shared.tapes
        assert tape[0] == (100.0, 1)  # interval and message size
        assert all(type(v) in (int, float) for v in tape[1:])
        assert node._tape is tape

    def test_streams_sized_once(self):
        shared = TrafficTapes(7)
        rngs, tapes = shared.streams(4)
        assert shared.streams(4) == (rngs, tapes)
        with pytest.raises(ValueError, match="4 nodes, not 8"):
            shared.streams(8)


class TestVlAssignment:
    def test_single_vl_always_zero(self):
        eng, cfg, node = make_node(num_vls=1)
        assert node.send_now(3).vl == 0

    def test_hash_policy_deterministic_per_pair(self):
        eng, cfg, node = make_node(num_vls=4, vl_policy="hash")
        vls = {node.send_now(3).vl for _ in range(5)}
        assert len(vls) == 1

    def test_hash_policy_spreads_destinations(self):
        eng, cfg, node = make_node(num_vls=4, vl_policy="hash")
        vls = {node.send_now(d).vl for d in range(1, 30)}
        assert len(vls) > 1

    def test_dest_policy_partitions_destinations(self):
        eng, cfg, node = make_node(num_vls=4, vl_policy="dest")
        assert [node.send_now(d).vl for d in range(1, 9)] == [1, 2, 3, 0] * 2

    @pytest.mark.parametrize("policy", ["hash", "dest"])
    def test_fused_source_assigns_the_oracle_vl(self, policy, monkeypatch):
        """The fused source inlines ``_assign_vl``.  A relabelling of
        the VLs leaves every aggregate statistic of a run unchanged, so
        the differential suite cannot see one; each generated packet's
        VL is checked here instead."""
        made = _recorded_packets(monkeypatch)
        eng = WheelEngine()
        cfg = SimConfig(num_vls=4, vl_policy=policy)
        node = Endnode(eng, cfg, pid=3, slid=4, rng=np.random.default_rng(0))
        node.dlid_row = [d + 1 for d in range(16)]
        node.tx.connect(Recorder(eng))
        destinations = itertools.cycle([d for d in range(16) if d != 3])
        node.choose_destination = lambda rng: next(destinations)
        node.start_generation(0.01)
        eng.run(until=5_000)
        assert len(made) > 30
        assert [p.vl for p in made] == [node._assign_vl(p.dst_pid) for p in made]


class TestNicPath:
    def test_packet_reaches_wire(self):
        eng, cfg, node = make_node()
        rx = Recorder(eng)
        node.tx.connect(rx)
        node.send_now(1)
        eng.run()
        assert len(rx.got) == 1
        assert rx.got[0][0] == cfg.flying_time_ns

    def test_backlog_drains_on_refill(self):
        eng, cfg, node = make_node()
        rx = Recorder(eng)
        node.tx.connect(rx)
        for _ in range(3):
            node.send_now(1)
        assert node.backlog == 2  # one in NIC, two queued
        eng.run()
        # Only one credit: further sends wait for returns.
        node.tx.credit_return(0)
        eng.run()
        node.tx.credit_return(0)
        eng.run()
        assert len(rx.got) == 3
        assert node.backlog == 0


class TestSink:
    def test_delivery_stamps_and_stats(self):
        eng, cfg, node = make_node()
        node.latency = LatencyStats()
        node.net_latency = LatencyStats()
        node.throughput = ThroughputMeter(WarmupFilter(0.0, 1e9))
        p = Packet(5, 1, 4, 0, 256, 0, t_created=0.0)
        p.t_injected = 100.0
        eng.schedule(500.0, lambda: node.receive(p))
        eng.run()
        assert p.t_delivered == 500.0 + 256.0
        assert node.packets_received == 1
        assert node.latency.count == 1
        assert node.latency.mean == pytest.approx(756.0)
        assert node.net_latency.mean == pytest.approx(656.0)

    @pytest.mark.parametrize("engine", [Engine, WheelEngine], ids=["heap", "wheel"])
    def test_no_upstream_no_credit_return(self, engine):
        """A node wired to no leaf switch consumes the packet and has
        nobody to return the credit to: nothing is scheduled for it."""
        eng = engine()
        node = Endnode(eng, SimConfig(), pid=0, slid=1, rng=np.random.default_rng(0))
        p = Packet(5, 1, 4, 0, 256, 0, t_created=0.0)
        node.receive(p)
        eng.run()
        assert p.t_delivered == 256.0
        assert node.packets_received == 1
        assert eng.events_processed == 1

    def test_misdelivery_detected(self):
        eng, cfg, node = make_node()
        p = Packet(5, 9, 4, 8, 256, 0, t_created=0.0)  # for pid 8, not 0
        node.receive(p)
        with pytest.raises(RuntimeError, match="forwarding tables"):
            eng.run()

    def test_credit_returned_after_tail_plus_flying(self):
        eng, cfg, node = make_node()

        class UpstreamStub:
            def __init__(self):
                self.times = []

            def credit_return(self, vl):
                self.times.append(eng.now)

        node.upstream = UpstreamStub()
        p = Packet(5, 1, 4, 0, 256, 0, t_created=0.0)
        node.receive(p)
        eng.run()
        assert node.upstream.times == [256.0 + 20.0]
