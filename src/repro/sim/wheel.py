"""A hierarchical timing-wheel event scheduler: the simulator's engine.

:class:`WheelEngine` is a drop-in replacement for the heap-based
:class:`repro.sim.engine.Engine` — same API (``schedule``,
``schedule_after``, ``run(until)``, ``step``,
``cancel`` via :class:`~repro.sim.engine.Event`, ``events_processed``,
``peek_time``) and, by construction, the exact same event order, so
simulation runs are bit-identical across backends (the heap engine
stays the oracle; see ``tests/integration/test_backend_differential``).

Why a wheel
-----------
All of the simulator's delays are small integral nanoseconds (flying
time, routing time, byte injection time — DESIGN.md §9), which is the
regime where an O(1) wheel beats an O(log n) heap: insertion is one
``list.append`` into the bucket ``int(t) & mask`` instead of a
``heappush`` sift.  Large-scale interconnect simulators use the same
structure (PAPERS.md: Cano et al., *Extreme-Scale Interconnection
Networks*).

Layout
------
Three hashed wheels (16 ns slots at level 0, then ×1024 and ×131072)
plus an unbounded overflow heap:

* level 0 — 1024 slots × 16 ns      (horizon ≈ 16.4 µs)
* level 1 —  128 slots × 16.4 µs    (horizon ≈ 2.1 ms)
* level 2 —  128 slots × 2.1 ms     (horizon ≈ 268 ms)
* overflow — a plain heap for anything beyond the level-2 horizon.

A slot holds an unordered list of entries ``(time, seq, event, cb)``.
The cursor ``_cur`` is the next slot not yet drained; when the slot
``_cur`` becomes due, its entries are sorted *descending* into the
current run (``_curlist``) and fired by popping from the end — a slot
covers ``[S·16, (S+1)·16)`` ns and times may be fractional (traffic
generation draws exponential gaps), so the sort restores exact
``(time, seq)`` order within it, and ``list.pop()`` dequeues in O(1)
where a heap would sift.  An insert can only land in the current run
when its time falls inside the slot being fired (delays are
non-negative); every hot-path delay exceeds the slot width, so that is
rare and handled by a re-sort.  When the cursor crosses a level-1
(level-2) bucket boundary, that bucket cascades down one level by
re-insertion.

Tie-break proof sketch
----------------------
``seq`` increments on every schedule call, exactly as in the heap
engine.  Two events fire in ``(time, seq)`` order because (a) slots
are drained in increasing slot order and ``t ↦ ⌊t⌋ >> _G`` is
monotone, so cross-slot order follows slot order; (b) within a slot
the descending sort orders the run by ``(time, seq)``; and (c) an
insert can only land at a slot ``< _cur`` when its time falls inside
the slot being fired (delays are non-negative), and such entries merge
into the current run by re-sorting, where ``(time, seq)`` again
decides.  That is precisely the heap engine's total order, hence
identical FIFO behaviour for same-time events and bit-identical runs.

Pooling rules
-------------
``schedule``/``schedule_after`` return fresh :class:`Event` handles —
holders may legally ``cancel()`` long after the event fired (e.g.
``Transmitter.fail``), so those objects are never reused.  Pooled
objects exist only on the fused hop fast path
(:mod:`repro.ib.fastpath`): they carry a ``seq`` incarnation token, are
recycled explicitly by their own final stage callback (or reaped here
when found cancelled, via their ``pool`` attribute), and
``schedule_pooled`` resets ``cancelled`` on reuse so a stale cancel of
a recycled object cannot suppress its next incarnation.  A pooled
object also has ``release()``, which :meth:`WheelEngine.close` calls
to end its life.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.sim.engine import Event, SimulationError

__all__ = ["WheelEngine"]

# Wheel geometry.  _G is the slot granularity in bits (one level-0
# slot covers 2**_G ns): coarse enough that the cursor rarely scans an
# empty slot even for the shortest hot-path delay (flying time, 20 ns),
# fine enough that a slot's mini-heap stays small.  Entries within a
# slot are ordered by the mini-heap, so _G affects only speed, never
# event order.  Level 0 covers every delay on the packet hot path
# (flying 20 ns, routing 100 ns, serialization 256 ns, and nearly all
# generation gaps), so the common insert is one append.
_G = 4
_B0 = 10
_B1 = 7
_B2 = 7
_SIZE0 = 1 << _B0
_SIZE1 = 1 << _B1
_SIZE2 = 1 << _B2
_M0 = _SIZE0 - 1
_M1 = _SIZE1 - 1
_M2 = _SIZE2 - 1
_SPAN0 = 1 << _B0                # slots per level-0 rotation
_SPAN1 = 1 << (_B0 + _B1)        # slots per level-1 rotation
_SPAN2 = 1 << (_B0 + _B1 + _B2)  # slots per level-2 rotation


class _Never:
    """Placeholder event for uncancellable entries (the fused path's
    credit returns, ``schedule_after`` without a handle): reads as
    never-cancelled, so the dispatch loop needs no None test."""

    __slots__ = ()
    cancelled = False


_NEVER = _Never()


class WheelEngine:
    """Timing-wheel discrete-event scheduler (bit-identical to Engine)."""

    __slots__ = (
        "now",
        "hop_pool",
        "_seq",
        "_events_processed",
        "_running",
        "_cur",
        "_curlist",
        "_run_safe",
        "_runadds",
        "_l0",
        "_l1",
        "_l2",
        "_l1c",
        "_l2c",
        "_over",
    )

    #: This backend runs the fused hop fast path (repro.ib.fastpath).
    fused = True

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Free list for the fused hop fast path's pooled events.
        self.hop_pool: list = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False
        #: Next slot (of 2**_G ns) not yet drained into _curlist.
        self._cur: int = 0
        #: Current run of due entries, sorted descending by
        #: (time, seq): the next event to fire is a list.pop() away.
        self._curlist: list = []
        #: Set by _advance: every entry of the current run lies at or
        #: before run()'s horizon, so the dispatch loop can skip the
        #: per-event horizon check (the slot is 16 ns wide; only the
        #: boundary slot needs per-event care).
        self._run_safe: bool = False
        #: Entries merged into the current run while it is being fired
        #: (same-slot inserts) — lets run() batch its event accounting.
        self._runadds: int = 0
        self._l0: list = [[] for _ in range(_SIZE0)]
        self._l1: list = [[] for _ in range(_SIZE1)]
        self._l2: list = [[] for _ in range(_SIZE2)]
        # Upper levels keep occupancy counters (their inserts are cold);
        # level 0 deliberately does not — the per-insert increment would
        # tax every hot-path schedule, and _advance can prove level 0
        # empty by scanning one full rotation instead.
        self._l1c: int = 0
        self._l2c: int = 0
        self._over: list = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _insert(self, entry: tuple, si: int) -> None:
        """Place ``entry`` (whose slot index is ``si``) in the right level."""
        cur = self._cur
        if si < cur:
            # Only reachable for events inside the slot currently being
            # fired (delays are non-negative): merge into the current
            # run.  Rare — every hot-path delay exceeds the slot width.
            run = self._curlist
            run.append(entry)
            run.sort(reverse=True)
            self._runadds += 1
            return
        d = si - cur
        if d < _SPAN0:
            self._l0[si & _M0].append(entry)
        elif d < _SPAN1:
            self._l1[(si >> _B0) & _M1].append(entry)
            self._l1c += 1
        elif d < _SPAN2:
            self._l2[(si >> (_B0 + _B1)) & _M2].append(entry)
            self._l2c += 1
        else:
            heappush(self._over, entry)

    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute ``time`` (see Engine.schedule)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        ev = Event(time, callback, label)
        self._seq += 1
        self._insert((time, self._seq, ev, callback), int(time) >> _G)
        return ev

    def schedule_after(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` ``delay`` ns after now (see Engine)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        ev = Event(time, callback, label)
        self._seq += 1
        self._insert((time, self._seq, ev, callback), int(time) >> _G)
        return ev

    def schedule_pooled(self, delay: float, ev, callback) -> None:
        """Schedule a pooled event object (fused hop fast path).

        ``ev`` must expose ``time``/``seq``/``cancelled`` attributes;
        its ``seq`` is refreshed here and acts as the incarnation token
        that makes post-fire ``cancel`` attempts of recycled objects
        harmless (see module docstring, "Pooling rules").
        """
        time = self.now + delay
        seq = self._seq + 1
        self._seq = seq
        ev.time = time
        ev.seq = seq
        ev.cancelled = False
        si = int(time) >> _G
        cur = self._cur
        if 0 <= si - cur < _SPAN0:
            self._l0[si & _M0].append((time, seq, ev, callback))
        else:
            self._insert((time, seq, ev, callback), si)

    # ------------------------------------------------------------------
    # Cursor advance
    # ------------------------------------------------------------------
    def _advance(self, until: Optional[float]) -> bool:
        """Drain the next occupied bucket into the (empty) current run.

        Returns ``True`` when entries were moved, ``False`` when the
        queue is exhausted or the next bucket lies beyond ``until``.
        """
        curlist = self._curlist
        l0 = self._l0
        cur = self._cur
        # Level 0 keeps no occupancy counter (the per-insert increment
        # would tax every hot-path schedule); instead count consecutive
        # empty slots scanned.  Entries live at slots [cur, cur+_SIZE0)
        # and no callback fires during _advance, so once a full rotation
        # scans empty — with every cascade resetting the count — level 0
        # is provably empty and the scan can be skipped.
        empty = 0
        while True:
            self._cur = cur
            if not cur & _M0:
                # Level-0 rotation boundary: cascade upper levels down
                # *before* scanning this span.  Keyed off cursor
                # alignment (not loop position) so a call that returned
                # early at a boundary redoes the (idempotent) cascade
                # on re-entry instead of skipping it.
                if not cur & (_SPAN1 - 1):
                    over = self._over
                    while over and (int(over[0][0]) >> _G) - cur < _SPAN2:
                        e = heappop(over)
                        self._insert(e, int(e[0]) >> _G)
                        empty = 0
                    if self._l2c:
                        bucket2 = self._l2[(cur >> (_B0 + _B1)) & _M2]
                        if bucket2:
                            self._l2c -= len(bucket2)
                            pend = bucket2[:]
                            bucket2.clear()
                            for e in pend:
                                self._insert(e, int(e[0]) >> _G)
                            empty = 0
                if self._l1c:
                    bucket1 = self._l1[(cur >> _B0) & _M1]
                    if bucket1:
                        self._l1c -= len(bucket1)
                        pend = bucket1[:]
                        bucket1.clear()
                        for e in pend:
                            self._insert(e, int(e[0]) >> _G)
                        empty = 0
            if empty < _SIZE0:
                span_end = (cur | _M0) + 1
                t = cur
                while t < span_end:
                    bucket = l0[t & _M0]
                    if bucket:
                        if until is not None and (t << _G) > until:
                            self._cur = t
                            return False
                        if len(bucket) > 1:  # run was empty: 1 is sorted
                            bucket.sort(reverse=True)
                        curlist.extend(bucket)
                        bucket.clear()
                        self._cur = t + 1
                        # Entries lie in [t<<_G, (t+1)<<_G): inside the
                        # horizon, the whole run needs no per-event check.
                        self._run_safe = until is None or (
                            ((t + 1) << _G) <= until
                        )
                        return True
                    t += 1
                empty += span_end - cur
                cur = span_end
            elif self._l1c or self._l2c:
                cur = (cur | _M0) + 1
            elif self._over:
                # Everything lives beyond the wheel horizons: jump the
                # cursor straight to the overflow head and refill.
                over = self._over
                cur = int(over[0][0]) >> _G
                self._cur = cur
                while over and (int(over[0][0]) >> _G) - cur < _SPAN2:
                    e = heappop(over)
                    self._insert(e, int(e[0]) >> _G)
                empty = 0
                continue
            else:
                # Queue exhausted: park the cursor at the current
                # time's slot rather than wherever the empty scan
                # wandered.  The run is empty and no entries exist, so
                # this is free — whereas an overshot cursor sends every
                # later insert below it through the merge-and-resort
                # path (e.g. a peek of an idle engine at t=0 would
                # leave the cursor a full rotation ahead, making the
                # first 16 µs of scheduling quadratic).
                self._cur = int(self.now) >> _G
                return False
            if until is not None and (cur << _G) > until:
                self._cur = cur
                return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order (see Engine.run — same contract)."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until t={until}, before now={self.now}"
            )
        self._running = True
        curlist = self._curlist
        pop = curlist.pop  # _advance extends in place; identity is stable
        # Leftovers from a previous run(until) belong to a slot checked
        # against a *different* horizon: treat them per-event.
        self._run_safe = until is None
        processed = 0
        # Batch accounting state: pops per batch = what was due (n) +
        # what merged in mid-run (_runadds) - what remains, of which
        # `reaped` were lazily-cancelled (not fired).  n is zeroed when
        # a batch completes so the finally-reconciliation (which keeps
        # the count exact if a callback raises mid-batch — the raising
        # event counts as fired, exactly like the heap engine) is a
        # no-op on clean exits.
        n = 0
        reaped = 0
        try:
            if until is None:
                while True:
                    if curlist:
                        self._runadds = 0
                        n = len(curlist)
                        reaped = 0
                        while curlist:
                            t, _seq, ev, cb = pop()
                            if ev.cancelled:
                                reaped += 1
                                pool = getattr(ev, "pool", None)
                                if pool is not None:
                                    pool.append(ev)
                                continue
                            self.now = t
                            cb()
                        processed += n + self._runadds - reaped
                        n = 0
                    elif not self._advance(None):
                        break
            else:
                done = False
                while not done:
                    if curlist:
                        if self._run_safe:
                            # Whole run inside the horizon (see
                            # _advance): no per-event time check.
                            self._runadds = 0
                            n = len(curlist)
                            reaped = 0
                            while curlist:
                                t, _seq, ev, cb = pop()
                                if ev.cancelled:
                                    reaped += 1
                                    pool = getattr(ev, "pool", None)
                                    if pool is not None:
                                        pool.append(ev)
                                    continue
                                self.now = t
                                cb()
                            processed += n + self._runadds - reaped
                            n = 0
                        else:  # boundary slot: check each entry
                            while curlist:
                                t, _seq, ev, cb = pop()
                                if t > until:
                                    # Beyond horizon: put it back
                                    # (at most once per run).
                                    curlist.append((t, _seq, ev, cb))
                                    done = True
                                    break
                                if ev.cancelled:
                                    pool = getattr(ev, "pool", None)
                                    if pool is not None:
                                        pool.append(ev)
                                    continue
                                self.now = t
                                processed += 1
                                cb()
                    elif not self._advance(until):
                        break
                if until > self.now:
                    self.now = until
        finally:
            if n:  # a callback raised mid-batch: reconcile its pops
                processed += n + self._runadds - reaped - len(curlist)
            self._events_processed += processed
            self._running = False

    def step(self) -> bool:
        """Process exactly one live event (see Engine.step — same contract,
        including the re-entrancy guard)."""
        if self._running:
            raise SimulationError(
                "engine is already running (re-entrant step())"
            )
        self._running = True
        try:
            curlist = self._curlist
            while True:
                if curlist:
                    e = curlist.pop()
                    ev = e[2]
                    if ev.cancelled:
                        pool = getattr(ev, "pool", None)
                        if pool is not None:
                            pool.append(ev)
                        continue
                    self.now = e[0]
                    self._events_processed += 1
                    e[3]()
                    return True
                if not self._advance(None):
                    return False
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queue entries (including lazily-cancelled ones).

        Derived: every entry lives in exactly one container, so the
        hot paths keep no separate counter (level 0 is summed here)."""
        return (
            len(self._curlist)
            + sum(len(b) for b in self._l0)
            + self._l1c
            + self._l2c
            + len(self._over)
        )

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if queue is empty.

        Matches the heap engine: reaps lazily-cancelled entries at the
        head (shrinking :attr:`pending`) and therefore must not be
        called from inside a firing callback — raises
        :class:`SimulationError` if it is.
        """
        if self._running:
            raise SimulationError(
                "peek_time() may not be called from inside a firing "
                "callback (it mutates the event queue)"
            )
        curlist = self._curlist
        while True:
            if curlist:
                e = curlist[-1]
                ev = e[2]
                if ev.cancelled:
                    del curlist[-1]
                    pool = getattr(ev, "pool", None)
                    if pool is not None:
                        pool.append(ev)
                    continue
                return e[0]
            if not self._advance(None):
                return None

    # ------------------------------------------------------------------
    # End of life
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every pending entry and the hop pool (see Engine.close).

        Every pooled event met on the way, queued or free, is
        ``release()``-d: its stage callbacks are bound to itself, a
        cycle that refcounting alone cannot free.
        """
        if self._running:
            raise SimulationError(
                "close() may not be called from inside a firing callback"
            )
        for bucket in (self._curlist, self._over, *self._l0, *self._l1, *self._l2):
            for entry in bucket:
                if getattr(entry[2], "pool", None) is not None:
                    entry[2].release()
            bucket.clear()
        self._l1c = self._l2c = 0
        pool = self.hop_pool
        for ev in pool:
            ev.release()
        pool.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WheelEngine(now={self.now}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )

