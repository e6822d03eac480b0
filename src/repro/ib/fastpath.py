"""Fused hop fast path for the wheel engine backend.

On the heap (oracle) backend one switch hop costs four separate engine
events, each with its own :class:`~repro.sim.engine.Event` and closure
allocation, threaded through ``Transmitter.kick →
InputUnit.receive → RoutingEngine.request → InputUnit._routed →
InputUnit._move``.  On the wheel backend
(:class:`repro.sim.wheel.WheelEngine`) the same hop is carried by a
single pooled, self-rescheduling :class:`HopEvent` whose stage
callbacks fire at exactly the oracle's timestamps and perform exactly
the oracle's state mutations in the oracle's order — with the
intermediate method calls (``accept``, ``_tx_done``, ``credit_return``,
buffer and credit accounting) inlined down to direct deque and counter
operations.  Every fused transmission starts in one routine,
:func:`_start` (``Transmitter.kick`` with round-robin VL arbitration,
for any VL count).

Bit-identity argument (the differential tests enforce it):

* every oracle event maps 1:1 to a wheel event at the same timestamp —
  fusion reuses one *object* across stages, it never merges or moves
  *events* — so ``events_processed`` and the ``run(until)`` boundary
  behaviour are preserved;
* within each firing callback, engine ``schedule*`` calls happen at the
  same points in the same relative order as the oracle's, so the
  same-time FIFO tie-break (``seq``) resolves identically;
* each inlined block replicates the corresponding oracle method's
  mutations in source order, dropping only checks that are provably
  dead on that path (e.g. the flow-control overflow re-check after
  ``can_accept`` already held within the same callback);
* under contention (busy routing pipeline, full output buffer, a
  packet queued behind another) and under weighted VL arbitration the
  fast path falls back to the general closure-based path mid-flight,
  which is the very code the oracle runs.

Pooling: ``HopEvent`` instances are recycled through the engine's
``hop_pool`` free list by their own final stage (or by the engine when
reaped after a cancel).  Holders identify *their* incarnation by the
``seq`` token refreshed at every ``schedule_pooled`` — see
``Transmitter.fail`` — and ``schedule_pooled`` clears ``cancelled`` on
reuse, so a stale cancel of a recycled object cannot suppress a later
incarnation.  ``release`` ends an object's life when its subnet is
closed (``WheelEngine.close``, ``RoutingEngine.close``).
"""

from __future__ import annotations

from repro.sim.wheel import _G, _M0, _NEVER, _SPAN0

__all__ = ["HopEvent", "send"]


class HopEvent:
    """A pooled, self-rescheduling event carrying one packet one hop.

    Stages (each firing at the oracle's exact event time):

    * ``_deliver_switch`` — header arrives at an :class:`InputUnit`
      (oracle: ``receive`` + ``_start_routing`` + ``request``);
      reschedules itself as ``_routed`` when the routing pipeline is
      free, else falls back to the general queued-request path.
    * ``_routed`` — routing done (oracle: ``RoutingEngine._finish`` +
      ``_routed`` + ``_move`` + ``accept`` + ``kick``); falls back to
      the general waiter path when the output buffer is full.
    * ``_deliver_node`` / ``_consumed`` — header/tail arrival at an
      :class:`Endnode` (oracle: ``receive`` + ``_consumed``, inlined).
    * ``_tail`` — the packet's tail leaves the sending wire (oracle:
      ``Transmitter._tx_done`` + ``kick``).

    The stage methods are pre-bound once at construction so a
    reschedule costs zero allocations.
    """

    __slots__ = (
        "time",
        "seq",
        "cancelled",
        "pool",
        "packet",
        "vl",
        "unit",
        "node",
        "tx",
        "deliver_switch_cb",
        "deliver_node_cb",
        "routed_cb",
        "consumed_cb",
        "tail_cb",
    )

    def __init__(self, pool: list):
        self.pool = pool
        self.time = 0.0
        self.seq = 0
        self.cancelled = False
        self.packet = None
        self.vl = 0
        self.unit = None
        self.node = None
        self.tx = None
        self.deliver_switch_cb = self._deliver_switch
        self.deliver_node_cb = self._deliver_node
        self.routed_cb = self._routed
        self.consumed_cb = self._consumed
        self.tail_cb = self._tail

    def release(self) -> None:
        """End of life (``WheelEngine.close``, ``RoutingEngine.close``):
        drop the stage callbacks bound to this object, the cycle that
        refcounting cannot free."""
        self.deliver_switch_cb = self.deliver_node_cb = None
        self.routed_cb = self.consumed_cb = self.tail_cb = None

    # ------------------------------------------------------------------
    def _deliver_switch(self) -> None:
        """Oracle: InputUnit.receive + _start_routing + request/_start."""
        unit = self.unit
        vl = self.vl
        fifo = unit._fifos[vl]
        if len(fifo) >= unit._cap:
            unit.buffers[vl].push(self.packet)  # canonical overflow error
        fifo.append(self.packet)
        if unit._routing[vl]:
            # The VL head is already in the pipeline or blocked; this
            # packet queues behind it and later moves via the general
            # path.  Chain over — recycle.
            self.packet = None
            self.unit = None
            self.pool.append(self)
            return
        unit._routing[vl] = True
        router = unit._router
        if router.capacity and router.active >= router.capacity:
            # Contended pipeline: wait in the router's FIFO *as
            # ourselves*.  The popper (fused _routed below, or the
            # general RoutingEngine._finish) recognizes a queued
            # HopEvent and restarts it pooled — where the oracle's
            # _start would schedule a fresh _finish closure, it
            # schedules this object's _routed stage at the same point
            # and time.
            router.queue.append(self)
            return
        router.active += 1
        router.ops += 1
        # engine.schedule_pooled(router.routing_time, self, routed_cb),
        # inlined (WheelEngine internals — see repro.sim.wheel), minus
        # the dead stores: nothing reads a pooled event's `time` (the
        # queue entry carries it), and `cancelled` is False here — this
        # object just fired, and only current-seq deliver/tail
        # incarnations are ever cancelled (Transmitter.fail).
        eng = unit.engine
        t = eng.now + router.routing_time
        seq = eng._seq + 1
        eng._seq = seq
        self.seq = seq
        si = int(t) >> _G
        if 0 <= si - eng._cur < _SPAN0:
            eng._l0[si & _M0].append((t, seq, self, self.routed_cb))
        else:
            eng._insert((t, seq, self, self.routed_cb), si)

    def _routed(self) -> None:
        """Oracle: RoutingEngine._finish + InputUnit._routed + _move
        + Transmitter.accept + kick, inlined."""
        unit = self.unit
        packet = self.packet
        vl = self.vl
        router = unit._router
        router.active -= 1
        if router.queue:
            nxt = router.queue.popleft()
            if nxt.__class__ is HopEvent:
                router.active += 1
                router.ops += 1
                # engine.schedule_pooled(routing_time, nxt, routed_cb),
                # inlined.
                eng = unit.engine
                t = eng.now + router.routing_time
                seq = eng._seq + 1
                eng._seq = seq
                nxt.seq = seq
                # Clearing `cancelled` is load-bearing: while nxt sat in
                # the router queue it kept its deliver-incarnation seq,
                # so an upstream fail() may have stale-cancelled it —
                # the oracle equivalent was a fired-event no-op.
                nxt.cancelled = False
                si = int(t) >> _G
                if 0 <= si - eng._cur < _SPAN0:
                    eng._l0[si & _M0].append((t, seq, nxt, nxt.routed_cb))
                else:
                    eng._insert((t, seq, nxt, nxt.routed_cb), si)
            else:
                router._start(nxt)
        # self.packet is the VL head: _routing[vl] stayed True since
        # _deliver_switch, so nothing popped this buffer meanwhile
        # (fail() drains only transmitter *output* buffers).
        idx = packet.dlid - 1
        fwd = unit._fwd
        if 0 <= idx < unit._fwd_n:
            out_port = fwd[idx]
        else:  # preserve the LFT's out-of-range semantics (drop)
            out_port = unit.switch.lft.lookup(packet.dlid)
        if out_port == unit.port:
            if not unit.switch.drops_reflected:
                raise RuntimeError(
                    f"switch {unit.switch.name}: DLID {packet.dlid} routed "
                    f"back out of its input port {unit.port}"
                )
            # Oracle: the rest of InputUnit._routed.  Chain over — recycle.
            self.packet = None
            self.unit = None
            self.pool.append(self)
            unit._drop_reflected(vl)
            return
        tx = unit._txl[out_port]
        alive = tx.alive
        if alive:
            # Output capacity equals input capacity (one SimConfig).
            out_fifo = tx._fifos[vl]
            if len(out_fifo) >= unit._cap:
                # Full output buffer: block on it FIFO via the oracle's
                # exact waiter closure.  Chain over — recycle.
                tx.waiters[vl].append(lambda: unit._move(vl, tx))
                self.packet = None
                self.unit = None
                self.pool.append(self)
                return
        else:
            out_fifo = None  # dead channel accepts-and-drops below
        # --- InputUnit._move, inlined ---
        in_fifo = unit._fifos[vl]
        in_fifo.popleft()
        packet.hops += 1
        if unit._record_routes:
            if packet.route is None:
                packet.route = []
            packet.route.append(unit.switch.name)
        unit._routing[vl] = False
        upstream = unit.upstream
        if upstream is not None:
            cb = unit._credit_cbs[vl]
            if cb is None:
                cb = unit._credit_cbs[vl] = _credit_cb(upstream, vl)
            # engine.schedule_after(unit._flying_ns, cb) without a
            # handle, inlined (the delay is a non-negative constant, so
            # the negative-delay check is dead).
            eng = unit.engine
            ct = eng.now + unit._flying_ns
            seq = eng._seq + 1
            eng._seq = seq
            si = int(ct) >> _G
            if 0 <= si - eng._cur < _SPAN0:
                eng._l0[si & _M0].append((ct, seq, _NEVER, cb))
            else:
                eng._insert((ct, seq, _NEVER, cb), si)
        if in_fifo:
            # The next packet of this VL routes right after the
            # accept/kick below (oracle: _move's trailing
            # _start_routing) — keep this object and reuse it for that
            # routing stage instead of recycling.  Caching the head
            # here is safe: _routing[vl] goes back up before anything
            # else can pop this buffer.
            self.packet = in_fifo[0]
            reroute = True
        else:
            # Recycle before accept: the next hop's transmission start
            # can reuse this very object for this very packet.
            self.packet = None
            self.unit = None
            self.pool.append(self)
            reroute = False
        # --- Transmitter.accept + kick, inlined; the wire-busy precheck
        # skips a call kick would no-op on ---
        if alive:
            out_fifo.append(packet)
            if not tx._wire_busy:
                if tx._rrf:
                    _start(tx)
                else:
                    tx.kick()
        else:
            tx.packets_dropped += 1
        if reroute:
            # Oracle: _start_routing + RoutingEngine.request for the
            # new head, with this object standing in for the request.
            unit._routing[vl] = True
            if router.capacity and router.active >= router.capacity:
                router.queue.append(self)
            else:
                router.active += 1
                router.ops += 1
                # engine.schedule_pooled(routing_time, self, routed_cb),
                # inlined.
                eng = unit.engine
                t = eng.now + router.routing_time
                seq = eng._seq + 1
                eng._seq = seq
                self.seq = seq
                si = int(t) >> _G
                if 0 <= si - eng._cur < _SPAN0:
                    eng._l0[si & _M0].append((t, seq, self, self.routed_cb))
                else:
                    eng._insert((t, seq, self, self.routed_cb), si)

    # ------------------------------------------------------------------
    def _deliver_node(self) -> None:
        """Oracle: Endnode.receive — completes at tail arrival.
        ``engine.schedule_pooled(size * byte_ns, self, consumed_cb)``,
        inlined (WheelEngine internals — see repro.sim.wheel)."""
        node = self.node
        eng = node.engine
        t = eng.now + self.packet.size_bytes * node._byte_ns
        seq = eng._seq + 1
        eng._seq = seq
        self.seq = seq
        si = int(t) >> _G
        if 0 <= si - eng._cur < _SPAN0:
            eng._l0[si & _M0].append((t, seq, self, self.consumed_cb))
        else:
            eng._insert((t, seq, self, self.consumed_cb), si)

    def _consumed(self) -> None:
        """Oracle: Endnode._consumed, inlined — the delivery check, the
        measurement window, both latency records, the counters and the
        pooled credit return (``engine.schedule_after`` without a
        handle)."""
        node = self.node
        packet = self.packet
        self.packet = None
        self.node = None
        self.pool.append(self)
        pid = node.pid
        if packet.dst_pid != pid:
            raise RuntimeError(
                f"node {pid} received packet for {packet.dst_pid} "
                f"(DLID {packet.dlid}) — forwarding tables are wrong"
            )
        eng = node.engine
        now = eng.now
        packet.t_delivered = now
        node.packets_received += 1
        throughput = node.throughput
        if throughput is not None:
            window = throughput.window
            if window.warmup_end <= now <= window.measure_end:
                if packet.is_message_tail:
                    if node.latency is not None:
                        # packet.latency, with t_delivered == now >= 0
                        node.latency.record(now - packet.t_created)
                    if node.net_latency is not None and packet.t_injected >= 0:
                        node.net_latency.record(now - packet.t_injected)
                throughput.bytes_delivered += packet.size_bytes
                throughput.packets_delivered += 1
                per = throughput._per_destination
                per[pid] = per.get(pid, 0) + 1
        upstream = node.upstream
        if upstream is None:
            return  # nobody to return the credit to
        vl = packet.vl
        cb = node._credit_cbs[vl]
        if cb is None:
            cb = node._credit_cbs[vl] = _credit_cb(upstream, vl)
        # engine.schedule_after(flying_time_ns, cb) without a handle,
        # inlined (the delay is a non-negative constant, so the
        # negative-delay check is dead).
        ct = now + node._flying_ns
        seq = eng._seq + 1
        eng._seq = seq
        si = int(ct) >> _G
        if 0 <= si - eng._cur < _SPAN0:
            eng._l0[si & _M0].append((ct, seq, _NEVER, cb))
        else:
            eng._insert((ct, seq, _NEVER, cb), si)

    # ------------------------------------------------------------------
    def _tail(self) -> None:
        """Oracle: Transmitter._tx_done + kick, inlined; a wire whose
        FIFOs are all empty skips :func:`_start`, which would scan them
        and start nothing."""
        tx = self.tx
        vl = self.vl
        self.tx = None
        self.pool.append(self)
        tx._wire_busy = False
        tx.busy_time += tx.engine.now - tx._last_start
        tx._fifos[vl].popleft()
        tx.packets_sent += 1
        waiters = tx.waiters[vl]
        if waiters:
            # Crossbar arbitration: oldest blocked requester wins.
            waiters.popleft()()
        else:
            on_free = tx.on_free
            if on_free is not None:
                on_free(vl)
        if not tx._wire_busy:  # a waiter/refill may have restarted it
            if tx._rrf:
                if any(tx._fifos):
                    _start(tx)
            else:
                tx.kick()


def _start(tx) -> None:
    """Oracle ``Transmitter.kick`` on an idle, fused, round-robin wire:
    start the next transmission if some VL is ready.

    The scan is ``_pick_vl``'s — from ``tx._rr``, the first VL with a
    buffered packet and a credit — read straight off the FIFOs and the
    credit counters; ``consume`` and ``send`` follow with both
    ``schedule_pooled`` calls inlined (WheelEngine internals — see
    repro.sim.wheel).  The one store dropped relative to ``send`` is
    the pooled events' ``time``: nothing reads it, everything keys off
    ``seq`` and ``_deliver_time``.  Callers check ``_wire_busy``.
    """
    fifos = tx._fifos
    credits = tx.credits
    for vl, rr in tx._scan[tx._rr]:
        fifo = fifos[vl]
        if fifo:
            acct = credits[vl]
            avail = acct.available
            if avail > 0:
                break
    else:
        return
    packet = fifo[0]
    acct.available = avail - 1  # consume(); underflow check held above
    tx._rr = rr
    tx._wire_busy = True
    tx._wire_vl = vl
    eng = tx.engine
    now = eng.now
    tx._last_start = now
    if packet.t_injected < 0:
        packet.t_injected = now
    t = now + tx._flying_ns
    tx._deliver_time = t
    pool = eng.hop_pool
    hop = pool.pop() if pool else HopEvent(pool)
    receiver = tx.receiver
    hop.packet = packet
    hop.vl = vl
    if receiver._is_input_unit:
        hop.unit = receiver
        cb = hop.deliver_switch_cb
    else:
        hop.node = receiver
        cb = hop.deliver_node_cb
    seq = eng._seq + 1
    eng._seq = seq
    hop.seq = seq
    hop.cancelled = False
    cur = eng._cur
    si = int(t) >> _G
    if 0 <= si - cur < _SPAN0:
        eng._l0[si & _M0].append((t, seq, hop, cb))
    else:
        eng._insert((t, seq, hop, cb), si)
    tx._deliver_ev = hop
    tx._deliver_seq = seq
    tail = pool.pop() if pool else HopEvent(pool)
    tail.tx = tx
    tail.vl = vl
    seq += 1
    eng._seq = seq
    t = now + packet.size_bytes * tx._byte_ns
    tail.seq = seq
    tail.cancelled = False
    si = int(t) >> _G
    if 0 <= si - cur < _SPAN0:
        eng._l0[si & _M0].append((t, seq, tail, tail.tail_cb))
    else:
        eng._insert((t, seq, tail, tail.tail_cb), si)
    tx._tail_ev = tail
    tx._tail_seq = seq


def _credit_cb(upstream, vl):
    """One reusable credit-return closure per (receiver, VL) — oracle
    ``Transmitter.credit_return`` (restore + kick), with the restore
    inlined and the kick going to :func:`_start` on a round-robin
    wire."""
    acct = upstream.credits[vl]

    def credit() -> None:
        if not upstream.alive:
            return  # lost on the dead wire
        avail = acct.available
        if avail >= acct.initial:
            acct.restore()  # raises the canonical overflow error
        acct.available = avail + 1
        if not upstream._wire_busy:
            if upstream._rrf:
                _start(upstream)
            else:
                upstream.kick()

    return credit


def send(tx, packet, vl: int) -> None:
    """The fused tail of ``Transmitter.kick`` under weighted VL
    arbitration (round-robin wires start in :func:`_start`): schedule
    header delivery and tail departure as pooled events (oracle: two
    ``schedule_after`` calls with fresh Events and closures, in this
    exact order)."""
    engine = tx.engine
    pool = engine.hop_pool
    hop = pool.pop() if pool else HopEvent(pool)
    receiver = tx.receiver
    hop.packet = packet
    hop.vl = vl
    if receiver._is_input_unit:
        hop.unit = receiver
        cb = hop.deliver_switch_cb
    else:
        hop.node = receiver
        cb = hop.deliver_node_cb
    engine.schedule_pooled(tx._flying_ns, hop, cb)
    tx._deliver_ev = hop
    tx._deliver_seq = hop.seq
    tail = pool.pop() if pool else HopEvent(pool)
    tail.tx = tx
    tail.vl = vl
    engine.schedule_pooled(packet.size_bytes * tx._byte_ns, tail, tail.tail_cb)
    tx._tail_ev = tail
    tx._tail_seq = tail.seq
