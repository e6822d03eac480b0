"""The m-port crossbar switch model (paper §5.1).

Each physical port (1 … m; port 0 is the unmodelled management port)
has a receiving side (:class:`InputUnit`, per-VL input buffers plus the
routing pipeline) and a sending side (a
:class:`~repro.ib.link.Transmitter`).  The crossbar is non-blocking:
any number of input→output moves can happen simultaneously; the only
contention points are the output buffers (one packet per VL) and the
wires themselves — exactly the paper's model.

Per-packet sequence at a switch:

1. header arrives (credit guaranteed a free input slot);
2. after ``routing_time_ns`` (table lookup + arbitration + startup)
   the LFT gives the output port;
3. if that port's output buffer for the packet's VL has space the
   packet moves through the crossbar (input slot frees, a credit
   flies back upstream); otherwise the packet waits in its input
   buffer and is granted the slot FIFO when one frees (head-of-line
   blocking within a VL, as in the paper);
4. the output transmitter sends it on (see :mod:`repro.ib.link`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.ib.buffers import VlBuffer
from repro.ib.config import SimConfig
from repro.ib.fastpath import HopEvent
from repro.ib.lft import LinearForwardingTable
from repro.ib.link import Transmitter
from repro.ib.packet import Packet
from repro.sim.engine import Engine

__all__ = ["InputUnit", "RoutingEngine", "SwitchModel"]


class RoutingEngine:
    """The switch's routing resource: forwarding-table lookup,
    arbitration and message startup, ``routing_time_ns`` per packet.

    ``capacity`` concurrent operations are allowed (the paper's wording
    — "the routing time of a packet from one input port to one output
    port of the crossbar in a switch" — describes a shared per-switch
    resource; capacity 1 is the default, 0 means one engine per
    input-port/VL pair, i.e. effectively unlimited).  Requests are
    served FIFO.
    """

    __slots__ = ("engine", "routing_time", "capacity", "active", "queue", "ops")

    def __init__(self, engine: Engine, routing_time: float, capacity: int):
        self.engine = engine
        self.routing_time = routing_time
        self.capacity = capacity  # 0 = unlimited
        self.active = 0
        self.queue: Deque[Callable[[], None]] = deque()
        self.ops = 0  # total routing operations performed

    def request(self, done: Callable[[], None]) -> None:
        """Ask for one routing operation; ``done`` fires when it completes."""
        if self.capacity and self.active >= self.capacity:
            self.queue.append(done)
            return
        self._start(done)

    def _start(self, done: Callable[[], None]) -> None:
        self.active += 1
        self.ops += 1
        self.engine.schedule_after(self.routing_time, lambda: self._finish(done))

    def _finish(self, done: Callable[[], None]) -> None:
        self.active -= 1
        if self.queue:
            nxt = self.queue.popleft()
            if nxt.__class__ is HopEvent:
                # A fused hop waiting in the FIFO (wheel backend only):
                # restart it as a pooled event — this is the oracle's
                # _start, minus the closure and Event allocations.
                self.active += 1
                self.ops += 1
                self.engine.schedule_pooled(self.routing_time, nxt, nxt.routed_cb)
            else:
                self._start(nxt)
        done()

    def close(self) -> None:
        """End of life: drop the queued requests (their closures hold
        the input units, which hold this router), releasing queued
        fused hops.  Idempotent."""
        for done in self.queue:
            if done.__class__ is HopEvent:
                done.release()
        self.queue.clear()


class InputUnit:
    """Receiving side of one switch port: per-VL buffers + routing."""

    __slots__ = (
        "engine",
        "cfg",
        "switch",
        "port",
        "buffers",
        "upstream",
        "_routing",
        "_router",
        "_fwd",
        "_fwd_n",
        "_txl",
        "_fifos",
        "_cap",
        "_flying_ns",
        "_record_routes",
        "_credit_cbs",
    )

    #: Receiver-kind marker for the fused hop fast path (fastpath.send).
    _is_input_unit = True

    def __init__(self, engine: Engine, cfg: SimConfig, switch: "SwitchModel", port: int):
        self.engine = engine
        self.cfg = cfg
        self.switch = switch
        self.port = port
        self.buffers: List[VlBuffer] = [
            VlBuffer(cfg.buffer_packets_per_vl) for _ in range(cfg.num_vls)
        ]
        self.upstream: Optional[Transmitter] = None  # credit target
        # Is the head of each VL currently inside the routing pipeline
        # or blocked on an output buffer?  Prevents double-routing.
        self._routing: List[bool] = [False] * cfg.num_vls
        # Hot-loop constants, hoisted out of the per-packet path.
        # _fwd is the LFT's dense entry list: forwarding is one array
        # index per packet instead of a bounds-checking method call.
        self._router = switch.router
        self._fwd = switch.lft._ports
        self._fwd_n = len(self._fwd)
        self._txl = switch._txl
        # Per-VL FIFOs and the (uniform) capacity, for the fused path.
        self._fifos = [buf._fifo for buf in self.buffers]
        self._cap = cfg.buffer_packets_per_vl
        self._flying_ns = cfg.flying_time_ns
        self._record_routes = cfg.record_routes
        # Fused-path credit-return closures, one per VL, built lazily
        # (upstream is wired after construction).
        self._credit_cbs: List[Optional[Callable[[], None]]] = [None] * cfg.num_vls

    def receive(self, packet: Packet) -> None:
        """Header arrival from the wire."""
        vl = packet.vl
        self.buffers[vl].push(packet)  # raises on flow-control violation
        if not self._routing[vl]:
            self._start_routing(vl)

    def _start_routing(self, vl: int) -> None:
        self._routing[vl] = True
        self._router.request(lambda: self._routed(vl))

    def _routed(self, vl: int) -> None:
        """Routing decided for the head packet of ``vl``; request output."""
        packet = self.buffers[vl].head()
        idx = packet.dlid - 1
        fwd = self._fwd
        if 0 <= idx < len(fwd):
            out_port = fwd[idx]
        else:  # out of range: the LFT's lookup raises KeyError
            out_port = self.switch.lft.lookup(packet.dlid)
        if out_port == self.port:
            if not self.switch.drops_reflected:
                raise RuntimeError(
                    f"switch {self.switch.name}: DLID {packet.dlid} routed "
                    f"back out of its input port {self.port}"
                )
            self._drop_reflected(vl)
            return
        tx = self.switch.tx[out_port]
        if tx.can_accept(vl):
            self._move(vl, tx)
        else:
            tx.waiters[vl].append(lambda: self._move(vl, tx))

    def _drop_reflected(self, vl: int) -> None:
        """Drop the head packet of ``vl``, which this switch's table
        sends back out of its input port: mid-repair, the switch that
        sent it here still forwards with its old table, so sending it
        back could ping-pong until that switch is reprogrammed.  As in
        :meth:`_move`, the input slot frees and the credit returns
        upstream; the packet counts as dropped on this port's
        transmitter, where ``DynamicSubnetManager.packets_lost`` also
        counts the dead-port black hole."""
        buffer = self.buffers[vl]
        buffer.pop()
        self.switch.tx[self.port].packets_dropped += 1
        self._routing[vl] = False
        upstream = self.upstream
        if upstream is not None:
            self.engine.schedule_after(
                self._flying_ns, lambda: upstream.credit_return(vl)
            )
        if buffer.head() is not None:
            self._start_routing(vl)

    def _move(self, vl: int, tx: Transmitter) -> None:
        """Crossbar transfer: input slot frees, credit returns upstream."""
        buffer = self.buffers[vl]
        packet = buffer.pop()
        packet.hops += 1
        if self._record_routes:
            if packet.route is None:
                packet.route = []
            packet.route.append(self.switch.name)
        self._routing[vl] = False
        upstream = self.upstream
        if upstream is not None:
            self.engine.schedule_after(
                self._flying_ns, lambda: upstream.credit_return(vl)
            )
        tx.accept(packet)
        # Route the next packet of this VL, if any.
        if buffer.head() is not None:
            self._start_routing(vl)


class SwitchModel:
    """One m-port InfiniBand switch."""

    def __init__(
        self,
        engine: Engine,
        cfg: SimConfig,
        name: str,
        num_ports: int,
        lft: LinearForwardingTable,
    ):
        if num_ports < 2:
            raise ValueError(f"a switch needs >= 2 ports, got {num_ports}")
        if lft.num_physical_ports != num_ports:
            raise ValueError(
                f"LFT is sized for {lft.num_physical_ports} ports, "
                f"switch has {num_ports}"
            )
        self.engine = engine
        self.cfg = cfg
        self.name = name
        self.num_ports = num_ports
        #: physical port -> units; populated lazily by the wiring code
        self.rx: Dict[int, InputUnit] = {}
        self.tx: Dict[int, Transmitter] = {}
        #: dense port -> transmitter mirror of ``tx`` (fused path: a
        #: list index per hop instead of a dict probe)
        self._txl: List[Optional[Transmitter]] = [None] * (num_ports + 1)
        self.lft = lft
        self.router = RoutingEngine(
            engine, cfg.routing_time_ns, cfg.routing_engines_per_switch
        )
        #: Set by ``DynamicSubnetManager.arm``: a packet whose table
        #: entry points back out of its input port is dropped
        #: (:meth:`InputUnit._drop_reflected`).  A static subnet's
        #: tables never do that, so there it raises.
        self.drops_reflected = False

    @property
    def lft(self) -> LinearForwardingTable:
        return self._lft

    @lft.setter
    def lft(self, table: LinearForwardingTable) -> None:
        # Re-hoist the dense entry list into every input unit so
        # tests/tools that swap tables at runtime stay consistent with
        # the one-array-index forwarding path.
        self._lft = table
        fwd = table._ports
        for unit in self.rx.values():
            unit._fwd = fwd
            unit._fwd_n = len(fwd)

    def add_port(self, port: int) -> None:
        """Instantiate the RX/TX pair for a physical port (1-based)."""
        if not 1 <= port <= self.num_ports:
            raise ValueError(
                f"physical port must be in [1, {self.num_ports}], got {port}"
            )
        if port in self.rx:
            raise ValueError(f"port {port} of {self.name} already added")
        self.rx[port] = InputUnit(self.engine, self.cfg, self, port)
        tx = Transmitter(self.engine, self.cfg, f"{self.name}.tx{port}")
        self.tx[port] = tx
        self._txl[port] = tx

    def close(self) -> None:
        """End of life (``Subnet.close``): break the switch's reference
        cycles — input units back to the switch, transmitters to their
        receivers, the router's queue — so refcounting frees it.  The
        forwarding table is shared and left untouched.  Idempotent."""
        self.router.close()
        for unit in self.rx.values():
            unit.switch = None
        for tx in self.tx.values():
            tx.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwitchModel({self.name!r}, ports={sorted(self.tx)})"
