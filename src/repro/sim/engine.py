"""A deterministic discrete-event engine.

Every production run uses the timing wheel
(:class:`repro.sim.wheel.WheelEngine`), which reproduces this engine's
event order exactly; this heap engine is its oracle, reached through
``build_subnet(..., engine=Engine())`` (DESIGN.md §9).

Design notes
------------
The engine is a classic calendar queue built on :mod:`heapq`.  Each
entry is ``(time, seq, event)`` where ``seq`` is a monotonically
increasing tie-breaker so that events scheduled for the same simulated
time fire in the order they were scheduled (FIFO).  This determinism is
what makes simulation runs exactly reproducible for a given seed.

Events carry a plain callback.  Cancellation is *lazy*: a cancelled
event stays in the heap but is skipped when popped — this is O(1) per
cancel and keeps the hot loop branch-light.

Time is modelled in nanoseconds as floats.  All of the paper's timing
constants (flying time, routing time, byte injection time) are integral
nanoseconds, so float round-off never becomes observable at the scales
simulated here (< 2**53 ns).
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

__all__ = ["Engine", "Event", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Users obtain instances from :meth:`Engine.schedule`; the only
    public operation is :meth:`cancel`.
    """

    __slots__ = ("time", "callback", "cancelled", "label")

    def __init__(self, time: float, callback: Callable[[], None], label: str = ""):
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time!r}, label={self.label!r}, {state})"


class Engine:
    """Discrete-event scheduler.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(10.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [10.0]
    """

    __slots__ = ("now", "_heap", "_seq", "_events_processed", "_running")

    #: Does this backend run the fused hop fast path (repro.ib.fastpath)?
    #: The heap engine is the oracle: it always takes the general,
    #: one-callback-per-event path.
    fused = False

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._running: bool = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire at absolute simulated ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past.
        Returns the :class:`Event`, which may be cancelled.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        ev = Event(time, callback, label)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def schedule_after(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` ns after the current time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined schedule(): a non-negative delay can never land in the
        # past, so the past-check is skipped.  This is the simulator's
        # single hottest entry point (one call per packet event).
        time = self.now + delay
        ev = Event(time, callback, label)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        Stops when the queue is empty, or — if ``until`` is given — when
        the next event is strictly later than ``until`` (in which case
        ``now`` is advanced to ``until``).

        Raises :class:`SimulationError` if ``until`` lies in the past
        or is NaN: the clock never runs backward.

        ``events_processed`` is updated once on return, not per event
        (hot-loop optimization) — callbacks must not read it mid-run.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run until t={until}, not at or after now={self.now}"
            )
        self._running = True
        # Hot loop: everything it touches is bound to locals, and the
        # per-event counter increment is batched into one store at exit.
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            if until is None:
                while heap:
                    time, _seq, ev = pop(heap)
                    if ev.cancelled:
                        continue
                    self.now = time
                    processed += 1
                    ev.callback()
            else:
                while heap:
                    time = heap[0][0]
                    if time > until:
                        break
                    _time, _seq, ev = pop(heap)
                    if ev.cancelled:
                        continue
                    self.now = time
                    processed += 1
                    ev.callback()
                if until > self.now:
                    self.now = until
        finally:
            self._events_processed += processed
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queue entries (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    # ------------------------------------------------------------------
    # End of life
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every pending event, and with it the callbacks' hold on
        the model (``Subnet.close`` calls this).

        ``now`` and :attr:`events_processed` stay readable.  Idempotent;
        raises :class:`SimulationError` from inside a firing callback.
        """
        if self._running:
            raise SimulationError(
                "close() may not be called from inside a firing callback"
            )
        self._heap.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self.now}, pending={self.pending}, "
            f"processed={self._events_processed})"
        )
