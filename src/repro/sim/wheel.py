"""A timing-wheel event scheduler: the simulator's engine.

:class:`WheelEngine` is a drop-in replacement for the heap-based
:class:`repro.sim.engine.Engine` — same API (``schedule``,
``schedule_after``, ``run(until)``, ``cancel`` via
:class:`~repro.sim.engine.Event`, ``events_processed``, ``pending``,
``close``) and, by construction, the exact same event order, so
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
One hashed wheel of 1024 slots × 16 ns (one rotation ≈ 16.4 µs) plus
a heap:

* the wheel holds every entry due less than one rotation past the
  cursor — every delay on the packet hot path (flying 20 ns, routing
  100 ns, serialization 256 ns, and nearly all generation gaps);
* the heap holds the rest (fault timers, the rare long generation
  gap); at each rotation boundary the coming rotation's entries move
  from the heap onto the wheel.

A slot holds an unordered list of entries ``(time, seq, event, cb)``.
The cursor ``_cur`` is the next slot not yet drained; when the slot
``_cur`` becomes due, its entries are sorted *descending* into the
current run (``_curlist``) and fired by popping from the end — a slot
covers ``[S·16, (S+1)·16)`` ns and times may be fractional (traffic
generation draws exponential gaps), so the sort restores exact
``(time, seq)`` order within it, and ``list.pop()`` dequeues in O(1)
where a heap would sift.  An insert can only land in the current run
when its time falls inside the slot being fired (delays are
non-negative) or below a cursor that ``run(until)`` parked past its
horizon; every hot-path delay exceeds the slot width, so that is rare
and handled by a re-sort.

Tie-break proof sketch
----------------------
``seq`` increments on every schedule call, exactly as in the heap
engine.  Two events fire in ``(time, seq)`` order because (a) slots
are drained in increasing slot order and ``t ↦ ⌊t⌋ >> _G`` is
monotone, so cross-slot order follows slot order; (b) within a slot
the descending sort orders the run by ``(time, seq)``; (c) a heap
entry's slot lies at or past the first rotation boundary after the
cursor it was inserted under, and the entry moves onto the wheel at
the boundary that starts its own rotation, before any slot of that
rotation is drained; and (d) an insert can only land at a slot
``< _cur`` when no entry on the wheel or the heap precedes it, and
such entries merge into the current run by re-sorting, where
``(time, seq)`` again decides.  That is precisely the heap engine's
total order, hence identical FIFO behaviour for same-time events and
bit-identical runs.

Pooling rules
-------------
``schedule``/``schedule_after`` return fresh :class:`Event` handles —
holders may legally ``cancel()`` long after the event fired (e.g.
``Transmitter.fail``), so those objects are never reused.  Pooled
objects exist only on the fused paths: the hop events of
:mod:`repro.ib.fastpath`, recycled onto the engine's ``hop_pool`` by
their own final stage callback (or reaped here when found cancelled,
via their ``pool`` attribute), and each endnode's one ``_GenEvent``,
rescheduled in place.  Both carry a ``seq`` incarnation token, and
``schedule_pooled`` resets ``cancelled`` on reuse so a stale cancel of
a recycled object cannot suppress its next incarnation.  A hop event
also has ``release()``, which :meth:`WheelEngine.close` calls to end
its life.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.sim.engine import Event, SimulationError

__all__ = ["WheelEngine"]

# Wheel geometry.  _G is the slot granularity in bits (one slot covers
# 2**_G ns): coarse enough that the cursor rarely scans an empty slot
# even for the shortest hot-path delay (flying time, 20 ns), fine
# enough that a slot's list, sorted when drained, stays short.  The
# sort orders entries within a slot, so _G affects only speed, never
# event order.  One rotation covers every delay on the packet hot path
# (flying 20 ns, routing 100 ns, serialization 256 ns, and nearly all
# generation gaps), so the common insert is one append.
_G = 4
_SPAN0 = 1024  # slots per rotation
_M0 = _SPAN0 - 1


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
        "_far",
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
        # The wheel keeps no occupancy counter — the per-insert
        # increment would tax every hot-path schedule, and _advance can
        # prove it empty by scanning one full rotation instead.
        self._l0: list = [[] for _ in range(_SPAN0)]
        #: Heap of the entries due a rotation or more past the cursor.
        self._far: list = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _insert(self, entry: tuple, si: int) -> None:
        """Place ``entry`` (whose slot index is ``si``) in the current
        run, on the wheel or on the heap."""
        d = si - self._cur
        if d < 0:
            # Only reachable for events inside the slot currently being
            # fired, or below a cursor parked past run()'s horizon:
            # merge into the current run.  Rare — every hot-path delay
            # exceeds the slot width.
            run = self._curlist
            run.append(entry)
            run.sort(reverse=True)
            self._runadds += 1
        elif d < _SPAN0:
            self._l0[si & _M0].append(entry)
        else:
            heappush(self._far, entry)

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
    def _advance(self, until: float) -> bool:
        """Drain the next occupied slot into the (empty) current run.

        Returns ``True`` when entries were moved, ``False`` when the
        queue is exhausted or the next occupied slot lies beyond
        ``until`` (``math.inf`` for an unbounded run).
        """
        curlist = self._curlist
        l0 = self._l0
        far = self._far
        cur = self._cur
        # Count consecutive empty slots scanned: entries on the wheel
        # live at slots [cur, cur + _SPAN0) and no callback fires
        # during _advance, so once a full rotation scans empty — with
        # every move from the heap resetting the count — the wheel is
        # provably empty.
        empty = 0
        while True:
            self._cur = cur
            if not cur & _M0 and far:
                # Rotation boundary: move the coming rotation's entries
                # from the heap onto the wheel *before* scanning it.
                # Keyed off cursor alignment (not loop position) so a
                # call that returned early at a boundary redoes the
                # (idempotent) move on re-entry instead of skipping it.
                end = cur + _SPAN0
                while far and int(far[0][0]) >> _G < end:
                    e = heappop(far)
                    l0[(int(e[0]) >> _G) & _M0].append(e)
                    empty = 0
            if empty < _SPAN0:
                span_end = (cur | _M0) + 1
                t = cur
                while t < span_end:
                    bucket = l0[t & _M0]
                    if bucket:
                        if (t << _G) > until:
                            self._cur = t
                            return False
                        if len(bucket) > 1:  # run was empty: 1 is sorted
                            bucket.sort(reverse=True)
                        curlist.extend(bucket)
                        bucket.clear()
                        self._cur = t + 1
                        # Entries lie in [t<<_G, (t+1)<<_G): inside the
                        # horizon, the whole run needs no per-event check.
                        self._run_safe = ((t + 1) << _G) <= until
                        return True
                    t += 1
                empty += span_end - cur
                cur = span_end
            elif far:
                # The wheel is empty: jump the cursor straight to the
                # rotation of the heap's head, or — when that lies past
                # the horizon — park it at the first rotation boundary
                # after the horizon, where a scan would have stopped.
                cur = (int(far[0][0]) >> _G) & ~_M0
                if (cur << _G) > until:
                    self._cur = ((int(until) >> _G) | _M0) + 1
                    return False
                empty = 0
                continue
            else:
                # Queue exhausted: park the cursor at the current
                # time's slot rather than wherever the empty scan
                # wandered.  The run is empty and no entries exist, so
                # this is free — whereas an overshot cursor sends every
                # later insert below it through the merge-and-resort
                # path (an idle engine run dry at t=0 would leave the
                # cursor a full rotation ahead, making the first 16 µs
                # of scheduling quadratic).
                self._cur = int(self.now) >> _G
                return False
            if (cur << _G) > until:
                self._cur = cur
                return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order (see Engine.run — same contract)."""
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run until t={until}, not at or after now={self.now}"
            )
        horizon = math.inf if until is None else until
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
            while True:
                if not curlist:
                    if not self._advance(horizon):
                        break
                elif self._run_safe:
                    # Whole run inside the horizon (see _advance): no
                    # per-event time check.
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
                else:
                    # Boundary slot: fire entry by entry up to the
                    # horizon, leaving the rest for a later run.
                    t, _seq, ev, cb = curlist[-1]
                    if t > horizon:
                        break
                    pop()
                    if ev.cancelled:
                        pool = getattr(ev, "pool", None)
                        if pool is not None:
                            pool.append(ev)
                        continue
                    self.now = t
                    processed += 1
                    cb()
            if until is not None and until > self.now:
                self.now = until
        finally:
            if n:  # a callback raised mid-batch: reconcile its pops
                processed += n + self._runadds - reaped - len(curlist)
            self._events_processed += processed
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queue entries (including lazily-cancelled ones).

        Derived: every entry lives in exactly one container, so the
        hot paths keep no separate counter (the wheel is summed here)."""
        return (
            len(self._curlist)
            + sum(len(b) for b in self._l0)
            + len(self._far)
        )

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

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
        for bucket in (self._curlist, self._far, *self._l0):
            for entry in bucket:
                if getattr(entry[2], "pool", None) is not None:
                    entry[2].release()
            bucket.clear()
        pool = self.hop_pool
        for ev in pool:
            ev.release()
        pool.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WheelEngine(now={self.now}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
