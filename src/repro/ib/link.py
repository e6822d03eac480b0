"""Link transmitters: the sending side of one unidirectional channel.

A physical IBA link is bidirectional; the simulator models it as two
independent :class:`Transmitter` instances, one per direction.  Each
transmitter owns

* one output :class:`~repro.ib.buffers.VlBuffer` per data VL (the
  paper's per-VL output buffers of one packet),
* one :class:`~repro.ib.flowcontrol.CreditAccount` per VL mirroring
  the remote input buffer, and
* the wire itself: at most one packet is serializing at any time,
  regardless of VL.

Timing (virtual cut-through, packet granularity):

* transmission start ``t``: requires a buffered packet, a credit for
  its VL and an idle wire; the credit is consumed and the packet's
  header reaches the receiver at ``t + flying_time``;
* the wire and the output-buffer slot are released at
  ``t + packet_bytes * byte_time`` (tail has left);
* VL arbitration is round-robin over VLs that are ready to send.

When an output slot frees, the transmitter first serves its FIFO of
*waiters* (switch input units blocked on this output buffer — crossbar
arbitration), then the owner's ``on_free`` hook (endnodes refill from
their injection queues).

Link state (:mod:`repro.runtime` failure injection): a transmitter can
be taken down mid-run with :meth:`Transmitter.fail`.  A dead channel
drops — the packet serializing on the wire never arrives, buffered
packets are discarded, and anything later forwarded to the port
vanishes (``packets_dropped`` counts them).  Credit returns riding the
dead wire are lost too.  :meth:`Transmitter.revive` models link
retraining: flow control restarts from the receiver's current free
slots.  Both are no-ops on the simulation hot path while the link is
healthy.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Callable, Deque, List, Optional

from repro.ib.buffers import VlBuffer
from repro.ib.config import SimConfig
from repro.ib.fastpath import _start as fastpath_start
from repro.ib.fastpath import send as fastpath_send
from repro.ib.flowcontrol import CreditAccount
from repro.ib.packet import Packet
from repro.ib.vl_arbitration import VlArbitrationTable, WeightedVlArbiter
from repro.sim.engine import Engine

__all__ = ["Transmitter"]


@cache
def _rr_scan(nvl: int) -> tuple:
    """Round-robin scan orders for the fused start, shared by every
    transmitter with ``nvl`` VLs: for each ``_rr`` value, the (vl, _rr
    after sending on vl) pairs in ``_pick_vl``'s order."""
    return tuple(
        tuple(((rr + i) % nvl, (rr + i + 1) % nvl) for i in range(nvl))
        for rr in range(nvl)
    )


class Transmitter:
    """Sending side of one unidirectional channel."""

    __slots__ = (
        "engine",
        "cfg",
        "name",
        "buffers",
        "credits",
        "waiters",
        "receiver",
        "on_free",
        "arbiter",
        "_wire_busy",
        "_rr",
        "packets_sent",
        "busy_time",
        "_last_start",
        "_single_vl",
        "_scan",
        "_fifos",
        "_cap",
        "_flying_ns",
        "_byte_ns",
        "alive",
        "packets_dropped",
        "_deliver_ev",
        "_tail_ev",
        "_wire_vl",
        "_fused",
        "_rrf",
        "_deliver_time",
        "_deliver_seq",
        "_tail_seq",
    )

    def __init__(self, engine: Engine, cfg: SimConfig, name: str = ""):
        self.engine = engine
        self.cfg = cfg
        self.name = name
        self.buffers: List[VlBuffer] = [
            VlBuffer(cfg.buffer_packets_per_vl) for _ in range(cfg.num_vls)
        ]
        self.credits: List[CreditAccount] = [
            CreditAccount(cfg.buffer_packets_per_vl) for _ in range(cfg.num_vls)
        ]
        #: input units blocked waiting for space in an output buffer,
        #: FIFO per VL: callables invoked as waiter() when space frees.
        self.waiters: List[Deque[Callable[[], None]]] = [
            deque() for _ in range(cfg.num_vls)
        ]
        self.receiver: Optional[object] = None  # set by connect()
        self.on_free: Optional[Callable[[int], None]] = None
        self.arbiter: Optional[WeightedVlArbiter] = None
        if cfg.vl_arbitration == "weighted":
            weights = cfg.vl_weights or tuple([4] * cfg.num_vls)
            self.arbiter = WeightedVlArbiter(
                VlArbitrationTable.from_weights(weights)
            )
        self._wire_busy = False
        self._rr = 0
        self.packets_sent = 0
        self.busy_time = 0.0
        self._last_start = 0.0
        # Hot-loop constants, hoisted out of the per-packet path.
        self._single_vl = cfg.num_vls == 1 and self.arbiter is None
        self._scan = _rr_scan(cfg.num_vls)
        self._fifos = [buf._fifo for buf in self.buffers]
        self._cap = cfg.buffer_packets_per_vl
        self._flying_ns = cfg.flying_time_ns
        self._byte_ns = cfg.byte_time_ns
        # Link state (runtime failure injection).
        self.alive = True
        self.packets_dropped = 0
        self._deliver_ev = None
        self._tail_ev = None
        self._wire_vl = 0
        # Fused hop fast path (repro.ib.fastpath): enabled by connect()
        # when the engine backend supports it and the receiver is a
        # real InputUnit/Endnode; _rrf additionally requires round-robin
        # VL arbitration, and selects fastpath._start over kick().
        # _deliver_time mirrors the deliver event's timestamp; the seq
        # tokens identify the current incarnation of the pooled
        # deliver/tail events for fail().
        self._fused = False
        self._rrf = False
        self._deliver_time = 0.0
        self._deliver_seq = -1
        self._tail_seq = -1

    # ------------------------------------------------------------------
    def connect(self, receiver: object) -> None:
        """Attach the receiving side (must expose ``receive(packet)``)."""
        self.receiver = receiver
        self._fused = self.engine.fused and (
            getattr(receiver, "_is_input_unit", None) is not None
        )
        self._rrf = self._fused and self.arbiter is None

    def can_accept(self, vl: int) -> bool:
        """Space in the output buffer for ``vl``?

        A dead channel always accepts (and drops): forwarding must not
        back-pressure the crossbar, or stale entries would wedge every
        input unit behind the failed port instead of black-holing."""
        return not self.alive or self.buffers[vl].can_accept()

    def accept(self, packet: Packet) -> None:
        """Place a packet into its VL's output buffer and try to send:
        :func:`repro.ib.fastpath._start` on a fused round-robin wire,
        :meth:`kick` otherwise.

        A dead channel swallows the packet instead (drop-on-dead-link:
        a switch whose stale LFT entry still points at a failed port
        forwards into the void until the SM reprograms it)."""
        if not self.alive:
            self.packets_dropped += 1
            return
        self.buffers[packet.vl].push(packet)
        if self._rrf:
            # The wire-busy precheck skips a call kick would no-op on.
            if not self._wire_busy:
                fastpath_start(self)
            return
        self.kick()

    def credit_return(self, vl: int) -> None:
        """The remote input buffer freed one slot for ``vl``.

        Lost (ignored) while the link is down — :meth:`revive` restarts
        flow control from the receiver's actual state instead."""
        if not self.alive:
            return
        self.credits[vl].restore()
        if self._rrf:
            if not self._wire_busy:
                fastpath_start(self)
            return
        self.kick()

    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Start a transmission if the wire is idle and some VL is ready."""
        if self._wire_busy:
            return
        if self._rrf:
            fastpath_start(self)
            return
        if self._single_vl:
            # Fast path for the common 1-VL configuration: skip the
            # round-robin scan (equivalent to _pick_vl with nvl == 1).
            vl = 0
            packet = self.buffers[0].head()
            if packet is None or not self.credits[0].can_send():
                return
        else:
            vl = self._pick_vl()
            if vl < 0:
                return
            packet = self.buffers[vl].head()
            if self.arbiter is not None:
                self.arbiter.charge(vl, packet.size_bytes)
        self.credits[vl].consume()
        self._wire_busy = True
        self._wire_vl = vl
        engine = self.engine
        now = engine.now
        self._last_start = now
        if packet.t_injected < 0:
            packet.t_injected = now
        self._deliver_time = now + self._flying_ns
        if self._fused:
            fastpath_send(self, packet, vl)
            return
        receiver = self.receiver
        # The two event refs let fail() lose the in-flight packet;
        # cancelling an already-fired event is a harmless no-op, so
        # they are never cleared on the hot path.
        self._deliver_ev = engine.schedule_after(
            self._flying_ns, lambda: receiver.receive(packet)
        )
        self._tail_ev = engine.schedule_after(
            packet.size_bytes * self._byte_ns,
            lambda: self._tx_done(vl),
        )

    def _pick_vl(self) -> int:
        """Next VL to send: arbitration-table pick when configured,
        else round-robin over VLs with a buffered packet and a credit."""
        if self.arbiter is not None:
            return self.arbiter.pick(
                lambda vl: self.buffers[vl].head() is not None
                and self.credits[vl].can_send()
            )
        nvl = self.cfg.num_vls
        for i in range(nvl):
            vl = (self._rr + i) % nvl
            if self.buffers[vl].head() is not None and self.credits[vl].can_send():
                self._rr = (vl + 1) % nvl
                return vl
        return -1

    def _tx_done(self, vl: int) -> None:
        """Tail left the wire: free the slot, serve waiters, continue."""
        self._wire_busy = False
        self.busy_time += self.engine.now - self._last_start
        self.buffers[vl].pop()
        self.packets_sent += 1
        if self.waiters[vl]:
            # Crossbar arbitration: oldest blocked requester wins the slot.
            self.waiters[vl].popleft()()
        elif self.on_free is not None:
            self.on_free(vl)
        self.kick()

    # ------------------------------------------------------------------
    # Link state (failure injection / recovery)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Take the channel down, losing everything it was carrying.

        The packet serializing on the wire never reaches the receiver,
        buffered packets are discarded, and blocked crossbar waiters are
        drained straight into the drop path (their packets are exactly
        the ones a stale LFT keeps forwarding here).  Idempotent.
        """
        if not self.alive:
            return
        self.alive = False
        # Whether the on-wire packet's header already crossed: a fired
        # event keeps time < now (same-time events still in the queue
        # run after this one — FIFO — so cancelling them works).
        # _deliver_time mirrors the deliver event's timestamp on both
        # paths; nothing but fail() (idempotent) ever cancels it, so
        # the oracle's not-cancelled term is vacuous here.
        header_arrived = (
            self._deliver_ev is not None
            and self._deliver_time < self.engine.now
        )
        if self._fused:
            # Pooled events: cancel only our own incarnation — the seq
            # token moves on when a pooled object is rescheduled or
            # reused, which is exactly when the oracle's cancel would
            # have been a fired-event no-op.
            deliver, tail = self._deliver_ev, self._tail_ev
            if deliver is not None and deliver.seq == self._deliver_seq:
                deliver.cancelled = True
            if tail is not None and tail.seq == self._tail_seq:
                tail.cancelled = True
            self._deliver_ev = None
            self._tail_ev = None
        else:
            if self._deliver_ev is not None:
                self._deliver_ev.cancel()
                self._deliver_ev = None
            if self._tail_ev is not None:
                self._tail_ev.cancel()
                self._tail_ev = None
        if self._wire_busy:
            self.busy_time += self.engine.now - self._last_start
            self._wire_busy = False
            if header_arrived:
                # The receiver owns this packet (only its tail was still
                # serializing): it was sent, not lost.
                self.buffers[self._wire_vl].pop()
                self.packets_sent += 1
        for buffer in self.buffers:
            while buffer.head() is not None:
                buffer.pop()
                self.packets_dropped += 1
        for queue in self.waiters:
            # Each waiter moves its packet through the crossbar into
            # this (now dead) port, where accept() drops it.  New
            # waiters cannot appear mid-drain: can_accept() is True on
            # a dead channel, and routing completions arrive as later
            # engine events.
            while queue:
                queue.popleft()()

    def revive(self, free_slots: Optional[List[int]] = None) -> None:
        """Bring the channel back up (link retraining).

        ``free_slots`` is the receiver's current free input-buffer
        slots per VL — the credit state a retrained link starts from.
        ``None`` means the receiver is empty (full credit).  Idempotent.
        """
        if self.alive:
            return
        self.alive = True
        for vl, account in enumerate(self.credits):
            slots = account.initial if free_slots is None else free_slots[vl]
            account.reset(slots)
        self.kick()

    def close(self) -> None:
        """End of life (``Subnet.close``): drop the receiver link, the
        owner's refill hook, the crossbar waiters and the in-flight
        event handles, each of which closes a reference cycle through
        this transmitter.  Counters stay readable.  Idempotent."""
        self.receiver = None
        self.on_free = None
        for queue in self.waiters:
            queue.clear()
        self._deliver_ev = None
        self._tail_ev = None

    # ------------------------------------------------------------------
    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the wire spent transmitting."""
        if elapsed <= 0:
            raise ValueError(f"elapsed must be positive, got {elapsed}")
        busy = self.busy_time
        if self._wire_busy:
            busy += self.engine.now - self._last_start
        return busy / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transmitter({self.name!r}, busy={self._wire_busy})"
