"""Endnode (processing-node) model: packet producer and consumer.

**Producer.**  A constant-mean-rate generation process (the paper: "the
packet generation rate is constant and the same for all processing
nodes"; inter-arrival times are exponential, a Poisson process) draws
a destination from the traffic pattern, builds the packet with the
routing scheme's DLID, assigns a VL per the configured policy and
hands it to the *injection queue*.  Whatever the fabric
cannot carry accumulates there — this is offered traffic, which is how
the paper drives the network past saturation.

Two injection-queue disciplines (``SimConfig.injection_queueing``):

* ``"per_destination"`` (default) — one unbounded queue per
  destination and VL, drained round-robin into the NIC.  This models
  IBA reality: a host talks to each peer over its own queue pair, and
  the HCA arbitrates among QPs, so a congested flow does not
  head-of-line block the host's other flows.
* ``"fifo"`` — a single unbounded FIFO per VL.  A congested flow
  blocks everything generated after it; useful as an ablation because
  it provably equalizes routing schemes under hot-spot traffic (every
  source's drain rate collapses to its hot-flow share regardless of
  routing).

**Consumer.**  The sink stamps delivery at *tail* arrival, records
latency/throughput, and returns the credit after the packet has fully
vacated the wire.

**Traffic tape.**  Generation is open loop: a node's draws read only
its own stream, never the network.  So every point with the same
seed, fabric, pattern, hot-spot fraction, rate and message size is
offered the very same packets, whatever its scheme, VL count or
queueing.  On the wheel the fused source reads its draws through the
node's tape (:class:`TrafficTapes`): it replays what an earlier point
recorded and draws, and records, only past the tape's end.

Latency is recorded on two clocks: from generation (includes source
queueing) and from injection (first byte on the wire — the paper's
"time elapsed since the packet transmission is initiated until the
packet is received").
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.ib.config import SimConfig
from repro.ib.fastpath import _start
from repro.ib.link import Transmitter
from repro.ib.packet import Packet
from repro.sim.engine import Engine
from repro.sim.rng import spawn_rngs
from repro.sim.stats import LatencyStats, ThroughputMeter
from repro.sim.wheel import _G, _M0, _SPAN0

__all__ = ["Endnode", "FifoInjection", "PerDestinationInjection", "TrafficTapes"]


class FifoInjection:
    """Single unbounded FIFO per VL."""

    def __init__(self, num_vls: int):
        self._queues: List[Deque[Packet]] = [deque() for _ in range(num_vls)]
        #: Per VL, non-empty exactly when a packet of that VL is queued.
        self.ready = self._queues

    def push(self, packet: Packet) -> None:
        self._queues[packet.vl].append(packet)

    def pull(self, vl: int) -> Optional[Packet]:
        queue = self._queues[vl]
        return queue.popleft() if queue else None

    @property
    def backlog(self) -> int:
        return sum(len(q) for q in self._queues)


class PerDestinationInjection:
    """One unbounded queue pair per destination and VL, round-robin
    per VL.

    A queue is keyed by the int ``dst * num_vls + vl``.  The active
    ring per VL holds the keys of that VL's non-empty queues, in
    round-robin order; ``pull`` serves the ring head and re-appends it
    while its queue stays non-empty.  So ``pull(vl)`` returns only
    packets of ``vl``, whatever VL each packet of a destination
    carries.
    """

    def __init__(self, num_vls: int):
        self._num_vls = num_vls
        self._queues: dict[int, Deque[Packet]] = {}
        self._rings: List[Deque[int]] = [deque() for _ in range(num_vls)]
        #: Per VL, non-empty exactly when a packet of that VL is queued.
        self.ready = self._rings

    def push(self, packet: Packet) -> None:
        vl = packet.vl
        key = packet.dst_pid * self._num_vls + vl
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = deque()
        if not queue:
            self._rings[vl].append(key)
        queue.append(packet)

    def pull(self, vl: int) -> Optional[Packet]:
        ring = self._rings[vl]
        if not ring:
            return None
        key = ring.popleft()
        queue = self._queues[key]
        packet = queue.popleft()
        if queue:
            ring.append(key)
        return packet

    @property
    def backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())


class TrafficTapes:
    """The offered traffic of one traffic key (seed, fabric, pattern,
    hot-spot fraction, rate, message size): each node's generator and
    tape.

    A node's tape holds what its stream yields to the fused source, in
    draw order: at every ``start_generation`` the generation parameters
    ``(interval, message_packets)`` and the initial phase, then the
    destination and the gap of each generation step.  The first subnet
    built on these tapes records them; a later one, through
    ``build_subnet(traffic=...)``, replays them and continues the
    shared stream past their end.  Tapes hold numbers only, never a
    node or a subnet.
    """

    def __init__(self, seed: Optional[int]):
        self.seed = seed
        self.rngs: List[np.random.Generator] = []
        self.tapes: List[list] = []

    def streams(self, num_nodes: int) -> Tuple[List[np.random.Generator], List[list]]:
        """Each node's generator and tape: spawned from the seed on the
        first call (:func:`~repro.sim.rng.spawn_rngs`), the same
        objects on every later one."""
        if not self.rngs:
            self.rngs = spawn_rngs(self.seed, num_nodes)
            self.tapes = [[] for _ in range(num_nodes)]
        elif len(self.rngs) != num_nodes:
            raise ValueError(
                f"traffic tapes were spawned for {len(self.rngs)} nodes, "
                f"not {num_nodes}"
            )
        return self.rngs, self.tapes


class _GenEvent:
    """An endnode's pooled generation event (wheel backend): the one
    cancellable handle the fused source reschedules in place, instead
    of a fresh :class:`Event` per gap."""

    __slots__ = ("time", "seq", "cancelled")

    def __init__(self) -> None:
        self.time = 0.0
        self.seq = 0
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the pending generation from firing.  Idempotent."""
        self.cancelled = True


class Endnode:
    """One processing node: traffic source, NIC and sink."""

    #: Receiver-kind marker for the fused hop fast path (fastpath.send).
    _is_input_unit = False

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        pid: int,
        slid: int,
        rng: np.random.Generator,
        tape: Optional[list] = None,
    ):
        self.engine = engine
        self.cfg = cfg
        self.pid = pid
        self.slid = slid
        self.rng = rng
        # The fused source's draws (TrafficTapes), and the read position.
        self._tape = [] if tape is None else tape
        self._tape_at = 0
        self.tx = Transmitter(engine, cfg, f"node{pid}.tx")
        self.tx.on_free = self._refill
        if cfg.injection_queueing == "per_destination":
            self.injection = PerDestinationInjection(cfg.num_vls)
        else:
            self.injection = FifoInjection(cfg.num_vls)
        self.upstream: Optional[Transmitter] = None  # leaf switch tx toward us
        # Set by the subnet: destination chooser and DLID resolver, and
        # the resolver's answers from this node as a list indexed by
        # destination PID (the fused source reads it).
        self.choose_destination: Optional[Callable[[np.random.Generator], int]] = None
        self.dlid_for: Optional[Callable[[int, int], int]] = None
        self.dlid_row: Optional[List[int]] = None
        # Measurement hooks (shared across the subnet).
        self.latency: Optional[LatencyStats] = None
        self.net_latency: Optional[LatencyStats] = None
        self.throughput: Optional[ThroughputMeter] = None
        self.packets_generated = 0
        self.packets_received = 0
        self._interval: float = 0.0
        self._gen_event = None
        self._gen_cb = None
        # Hot-loop constants, hoisted out of the per-packet path.
        self._byte_ns = cfg.byte_time_ns
        self._flying_ns = cfg.flying_time_ns
        self._message_packets = cfg.message_packets
        self._packet_bytes = cfg.packet_bytes
        self._num_vls = cfg.num_vls
        self._hash_vl = cfg.vl_policy == "hash"
        # Reusable per-VL credit-return closures (the wheel's inlined
        # sink, fastpath.HopEvent._consumed).
        self._credit_cbs: List[Optional[Callable[[], None]]] = [None] * cfg.num_vls

    # ------------------------------------------------------------------
    # Producer
    # ------------------------------------------------------------------
    def start_generation(self, rate_pkts_per_ns: float) -> None:
        """Begin constant-mean-rate generation (``rate`` packets/ns).

        On a fused (wheel) engine, once the subnet has given this node
        its :attr:`dlid_row`, every step is one :meth:`_generate_fused`
        callback on one pooled :class:`_GenEvent`, fresh per call so
        that a handle cancelled by :meth:`stop_generation` stays
        cancelled, and the initial phase is read through the node's
        tape.  Otherwise (the heap oracle, or a node outside a subnet)
        every gap is an :class:`~repro.sim.engine.Event` for
        :meth:`_generate`, and every draw is made inline.  Both
        schedule at the same times in the same order.

        Raises ``RuntimeError`` while the node is already generating
        (two processes would share one handle), and ``ValueError`` when
        the tape replays a start recorded at another rate or message
        size."""
        if self._gen_event is not None:
            raise RuntimeError(
                f"node {self.pid} is already generating; stop_generation first"
            )
        if not 0 <= rate_pkts_per_ns < math.inf:
            # An infinite rate would fire at one instant forever.
            raise ValueError(
                f"rate must be a finite number >= 0, got {rate_pkts_per_ns}"
            )
        if rate_pkts_per_ns == 0:
            return
        self._interval = interval = 1.0 / rate_pkts_per_ns
        # A random initial phase in [0, interval) de-synchronizes nodes.
        engine = self.engine
        if engine.fused and self.dlid_row is not None:
            tape = self._tape
            at = self._tape_at
            self._tape_at = at + 2
            start = (interval, self._message_packets)
            if at < len(tape):
                if tape[at] != start:
                    raise ValueError(
                        f"node {self.pid}'s tape was recorded at (interval, "
                        f"message_packets) {tape[at]}, replayed at {start}"
                    )
                first = tape[at + 1]
            else:
                first = float(self.rng.uniform(0.0, interval))
                tape.append(start)
                tape.append(first)
            self._gen_event = _GenEvent()
            self._gen_cb = self._generate_fused
            engine.schedule_pooled(first, self._gen_event, self._gen_cb)
        else:
            first = float(self.rng.uniform(0.0, interval))
            self._gen_event = engine.schedule_after(first, self._generate)

    def stop_generation(self) -> None:
        """Cancel the generation process (pending backlog still drains)."""
        if self._gen_event is not None:
            self._gen_event.cancel()
            self._gen_event = None

    def _message_gap(self) -> float:
        """Gap to the next message: one exponential draw per packet,
        summed.  The rate parameter is packets/ns, so a k-packet
        message is generated every k inter-packet gaps on average."""
        rng = self.rng
        interval = self._interval
        gap = 0.0
        for _ in range(self._message_packets):
            gap += rng.exponential(interval)
        return gap

    def _generate(self) -> None:
        """One generation step (the oracle :meth:`_generate_fused`
        mirrors)."""
        self._emit_one()
        self._gen_event = self.engine.schedule_after(
            self._message_gap(), self._generate
        )

    def _generate_fused(self) -> None:
        """One generation step on a fused engine, in one callback:
        :meth:`_generate` with ``_emit_one``, ``dlid_for``,
        ``_assign_vl``, the injection push, ``_refill``,
        ``Transmitter.accept`` and ``schedule_pooled`` inlined.

        The destination and the gap come from the node's tape; past its
        end they are drawn from the node's stream, destination first,
        and appended.  Nothing else draws from that stream, so a replay
        reads the values the oracle draws, in its order.  It schedules
        in the oracle's order: the message's queueing (whose NIC start
        schedules the hop), then the next generation.  A single packet
        that finds its NIC slot free and nothing of its VL queued skips
        the injection queue: there the oracle's push and pull of the
        one packet leave the queue as it was.
        """
        pid = self.pid
        tape = self._tape
        at = self._tape_at
        self._tape_at = at + 2
        if at < len(tape):
            dst_pid = tape[at]
            gap = tape[at + 1]
        else:
            dst_pid = self.choose_destination(self.rng)
            if dst_pid == pid:
                raise RuntimeError(f"traffic pattern sent node {pid} to itself")
            gap = self._message_gap()
            tape.append(dst_pid)
            tape.append(gap)
        dlid = self.dlid_row[dst_pid]
        nvl = self._num_vls
        if nvl == 1:
            vl = 0
        elif self._hash_vl:
            vl = (pid * 0x9E3779B1 ^ dst_pid * 0x85EBCA77) % nvl
        else:
            vl = dst_pid % nvl  # "dest"
        eng = self.engine
        now = eng.now
        count = self._message_packets
        if count == 1:
            packet = Packet(
                self.slid, dlid, pid, dst_pid, self._packet_bytes, vl, now, -1, True
            )
            self.packets_generated += 1
            tx = self.tx
            fifo = tx._fifos[vl]
            if tx.alive and len(fifo) >= tx._cap:
                self.injection.push(packet)  # NIC slot taken: no refill
            elif not tx.alive or self.injection.ready[vl]:
                self.injection.push(packet)
                self._refill(vl)
            else:
                # Transmitter.accept, inlined: the slot is free.
                fifo.append(packet)
                if not tx._wire_busy:
                    if tx._rrf:
                        _start(tx)
                    else:
                        tx.kick()
        else:
            self._queue_message(dst_pid, dlid, vl)
        # engine.schedule_pooled(gap, self._gen_event, self._gen_cb),
        # inlined (WheelEngine internals — see repro.sim.wheel), minus
        # the dead stores: nothing reads the handle's `time`, and
        # `cancelled` is False, since the handle just fired.
        t = now + gap
        seq = eng._seq + 1
        eng._seq = seq
        ev = self._gen_event
        ev.seq = seq
        si = int(t) >> _G
        if 0 <= si - eng._cur < _SPAN0:
            eng._l0[si & _M0].append((t, seq, ev, self._gen_cb))
        else:
            eng._insert((t, seq, ev, self._gen_cb), si)

    def _emit_one(self) -> Packet:
        """Emit one message (``message_packets`` packets, back-to-back,
        same destination and VL); returns the tail packet."""
        dst_pid = self.choose_destination(self.rng)
        if dst_pid == self.pid:
            raise RuntimeError(f"traffic pattern sent node {self.pid} to itself")
        dlid = self.dlid_for(self.pid, dst_pid)
        vl = self._assign_vl(dst_pid)
        return self._queue_message(dst_pid, dlid, vl)

    def _queue_message(self, dst_pid: int, dlid: int, vl: int) -> Packet:
        """Queue one message's packets and refill the NIC; returns the
        tail packet."""
        count = self._message_packets
        size = self._packet_bytes
        now = self.engine.now
        push = self.injection.push
        pid = self.pid
        slid = self.slid
        message_id = -1
        packet: Packet
        for seq in range(count):
            # Positional Packet(slid, dlid, src, dst, size, vl,
            # t_created, message_id, is_message_tail): ~5% of a run is
            # spent here, and 9 keywords cost real marshalling time.
            packet = Packet(
                slid, dlid, pid, dst_pid, size, vl, now,
                message_id, seq == count - 1,
            )
            if message_id < 0:
                message_id = packet.message_id
            push(packet)
        self.packets_generated += count
        self._refill(vl)
        return packet

    def send_now(self, dst_pid: int) -> Packet:
        """Inject a single packet immediately (examples / tests)."""
        saved = self.choose_destination
        self.choose_destination = lambda _rng: dst_pid
        try:
            return self._emit_one()
        finally:
            self.choose_destination = saved

    def _assign_vl(self, dst_pid: int) -> int:
        nvl = self._num_vls
        if nvl == 1:
            return 0
        if self._hash_vl:
            # Cheap deterministic pair hash; spreads flows over VLs.
            return (self.pid * 0x9E3779B1 ^ dst_pid * 0x85EBCA77) % nvl
        return dst_pid % nvl  # "dest"

    def _refill(self, vl: int) -> None:
        """NIC output buffer slot freed: pull the next queued packet."""
        tx = self.tx
        # tx.can_accept(vl), inlined (a dead channel accepts-and-drops).
        if tx.alive and len(tx._fifos[vl]) >= tx._cap:
            return
        packet = self.injection.pull(vl)
        if packet is not None:
            tx.accept(packet)

    @property
    def backlog(self) -> int:
        """Packets generated but not yet in the NIC output buffer."""
        return self.injection.backlog

    # ------------------------------------------------------------------
    # Consumer (the receive side the leaf switch transmits into)
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Header arrival at the NIC; completes at tail arrival."""
        self.engine.schedule_after(
            packet.size_bytes * self.cfg.byte_time_ns,
            lambda: self._consumed(packet),
        )

    def _consumed(self, packet: Packet) -> None:
        """Tail arrival (heap oracle; the wheel runs the inlined
        :meth:`repro.ib.fastpath.HopEvent._consumed`)."""
        if packet.dst_pid != self.pid:
            raise RuntimeError(
                f"node {self.pid} received packet for {packet.dst_pid} "
                f"(DLID {packet.dlid}) — forwarding tables are wrong"
            )
        engine = self.engine
        now = engine.now
        packet.t_delivered = now
        self.packets_received += 1
        throughput = self.throughput
        if throughput is not None:
            window = throughput.window
            # window.accepts(now) and record_accepted(...), inlined.
            if window.warmup_end <= now <= window.measure_end:
                # Message latency: recorded at the last packet (the
                # paper's "time … until the packet is received at the
                # destination node", message-granular).
                if packet.is_message_tail:
                    if self.latency is not None:
                        self.latency.record(packet.latency)
                    if self.net_latency is not None and packet.t_injected >= 0:
                        self.net_latency.record(now - packet.t_injected)
                throughput.bytes_delivered += packet.size_bytes
                throughput.packets_delivered += 1
                per = throughput._per_destination
                pid = self.pid
                per[pid] = per.get(pid, 0) + 1
        upstream = self.upstream
        if upstream is None:
            return  # nobody to return the credit to
        vl = packet.vl
        engine.schedule_after(
            self.cfg.flying_time_ns, lambda: upstream.credit_return(vl)
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End of life (``Subnet.close``): drop the subnet's DLID
        resolver, the generation handle and callback, and close the NIC
        transmitter, breaking the cycles through this node.
        Idempotent."""
        self.dlid_for = None
        self._gen_event = None
        self._gen_cb = None
        self.tx.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Endnode(pid={self.pid}, slid={self.slid})"
