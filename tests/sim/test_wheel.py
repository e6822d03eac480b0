"""Wheel-backend-specific tests: geometry edge cases the generic
engine contract (tests/sim/test_engine.py, run against both backends)
cannot reach — events past the wheel's rotation (the far heap and its
moves onto the wheel), same-slot inserts during a firing run, where
the cursor parks, and the batched event accounting.

The far-event tests keep the times the retired upper wheel levels were
sized for (level 1 up to ~2.1 ms, level 2 up to ~268 ms, an overflow
heap past that): each now lies on the far heap."""

import pytest

from repro.sim.engine import Engine
from repro.sim.wheel import _G, _M0, _SPAN0, WheelEngine


def test_fractional_times_within_one_slot_sort():
    """Sub-slot (fractional-ns) times fire in exact (time, seq) order."""
    eng = WheelEngine()
    fired = []
    for t in (5.7, 5.1, 5.3, 5.1):  # 5.1 twice: FIFO tie-break
        eng.schedule(t, lambda t=t: fired.append((t, len(fired))))
    eng.run()
    assert fired == [(5.1, 0), (5.1, 1), (5.3, 2), (5.7, 3)]


def test_level1_cascade():
    """An event a few rotations ahead moves from the heap onto the
    wheel and fires on time, interleaved correctly with near events."""
    eng = WheelEngine()
    fired = []
    far = 49165.0  # three rotations and 13 ns ahead
    eng.schedule(far, lambda: fired.append(eng.now))
    eng.schedule(10.0, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [10.0, far]
    assert eng.events_processed == 2


def test_event_one_rotation_ahead():
    """An event exactly one rotation ahead goes to the heap, and moves
    onto the wheel at the next boundary even though the rotation
    scanned before it was empty."""
    eng = WheelEngine()
    fired = []
    far = float(_SPAN0 << _G)  # 16384.0: the first slot of rotation 1
    eng.schedule(far, lambda: fired.append(eng.now))
    assert len(eng._far) == 1
    eng.run()
    assert fired == [far]
    assert eng.pending == 0


def test_level2_cascade():
    eng = WheelEngine()
    fired = []
    far = 4195313.0  # ~4.2 ms: 256 rotations ahead
    eng.schedule(far, lambda: fired.append(eng.now))
    eng.schedule(5.0, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [5.0, far]


def test_overflow_heap_beyond_level2():
    """Events past ~268 ms live on the far heap and still fire in
    global time order."""
    eng = WheelEngine()
    fired = []
    times = [268435473.0, 536870915.0, 42.0]
    for t in times:
        eng.schedule(t, lambda t=t: fired.append(t))
    assert len(eng._far) == 2
    eng.run()
    assert fired == sorted(times)
    assert eng.pending == 0


def test_cursor_jumps_across_empty_horizons():
    """With nothing on the wheel, the cursor jumps straight to the
    rotation of the heap's head instead of scanning the empty slots
    between (1e15 ns is ~6e13 slots ahead: a scan would not finish)."""
    eng = WheelEngine()
    fired = []
    eng.schedule(268435461.0, lambda: fired.append(eng.now))
    eng.schedule(1e15, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [268435461.0, 1e15]


def test_run_until_parks_at_first_boundary_past_horizon():
    """Under run(until), an empty wheel whose heap head lies far past
    the horizon parks the cursor no further than the first rotation
    boundary after the horizon (where a scan would have stopped), not
    at the head; inserts on either side of the parked cursor then
    fire in order."""
    eng = WheelEngine()
    fired = []
    eng.schedule(1e15, lambda: fired.append(eng.now))
    until = 3 * _SPAN0 * (1 << _G) + 100.0  # inside the fourth rotation
    eng.run(until=until)
    assert fired == []
    assert eng.now == until
    assert eng._cur <= ((int(until) >> _G) | _M0) + 1
    for delay in (_SPAN0 << _G, 20.0):  # past, then below, the cursor
        eng.schedule(eng.now + delay, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [until + 20.0, until + (_SPAN0 << _G), 1e15]


def test_same_slot_insert_during_firing_run():
    """A callback scheduling into the slot currently being fired merges
    into the run (the _insert si < cur re-sort path) and fires in
    (time, seq) order — exactly like the heap."""
    heap, wheel = Engine(), WheelEngine()
    results = []
    for eng in (heap, wheel):
        fired = []
        slot_start = float(4 << _G)

        def burst(eng=eng, fired=fired):
            fired.append(eng.now)
            # Same slot, later fraction: merges into the live run.
            eng.schedule(eng.now + 0.25, lambda: fired.append(eng.now))
            eng.schedule(eng.now + 0.50, lambda: fired.append(eng.now))

        eng.schedule(slot_start + 0.1, burst)
        eng.schedule(slot_start + 0.3, lambda: fired.append(eng.now))
        eng.run()
        results.append((fired, eng.events_processed))
    assert results[0] == results[1]
    assert results[1][1] == 4


def test_run_until_mid_slot_boundary():
    """run(until) stopping inside a slot fires only the due fraction of
    that slot and puts the rest back (the non-run_safe path)."""
    eng = WheelEngine()
    fired = []
    slot_start = float(1 << _G)  # 16.0: both events share slot 1
    eng.schedule(slot_start + 1.0, lambda: fired.append("a"))
    eng.schedule(slot_start + 9.0, lambda: fired.append("b"))
    eng.run(until=slot_start + 4.0)
    assert fired == ["a"]
    assert eng.now == slot_start + 4.0
    assert eng.pending == 1
    assert eng.events_processed == 1
    eng.run()
    assert fired == ["a", "b"]
    assert eng.events_processed == 2


def test_run_until_resumes_leftover_slot_against_new_horizon():
    """Entries left over from a previous run(until) were checked against
    a different horizon; a later run must re-check them per event."""
    eng = WheelEngine()
    fired = []
    for frac in (1.0, 5.0, 9.0, 13.0):
        eng.schedule(16.0 + frac, lambda f=frac: fired.append(f))
    eng.run(until=18.0)
    assert fired == [1.0]
    eng.run(until=26.0)
    assert fired == [1.0, 5.0, 9.0]
    eng.run()
    assert fired == [1.0, 5.0, 9.0, 13.0]


def test_exception_mid_batch_keeps_count_exact():
    """events_processed matches the heap when a callback raises midway
    through a batched slot drain: the raiser counts, the rest survive."""

    def build(eng):
        fired = []
        t = float(2 << _G)
        eng.schedule(t + 0.1, lambda: fired.append("a"))
        eng.schedule(t + 0.2, lambda: (_ for _ in ()).throw(RuntimeError("x")))
        eng.schedule(t + 0.3, lambda: fired.append("c"))
        eng.schedule(t + 0.4, lambda: fired.append("d"))
        return fired

    heap, wheel = Engine(), WheelEngine()
    outcomes = []
    for eng in (heap, wheel):
        fired = build(eng)
        with pytest.raises(RuntimeError):
            eng.run()
        mid = eng.events_processed
        eng.run()
        outcomes.append((fired, mid, eng.events_processed, eng.pending))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1] == (["a", "c", "d"], 2, 4, 0)


def test_cancelled_reaped_in_batch_accounting():
    """Lazily-cancelled entries inside a drained slot are reaped without
    inflating events_processed."""
    eng = WheelEngine()
    fired = []
    t = float(3 << _G)
    keep = [t + 0.1, t + 0.4]
    eng.schedule(keep[0], lambda: fired.append(1))
    victim = eng.schedule(t + 0.2, lambda: fired.append(99))
    eng.schedule(keep[1], lambda: fired.append(2))
    victim.cancel()
    eng.run()
    assert fired == [1, 2]
    assert eng.events_processed == 2


def test_pending_counts_all_levels():
    eng = WheelEngine()
    eng.schedule(1.0, lambda: None)          # wheel
    eng.schedule(32768.0, lambda: None)      # far heap from here on
    eng.schedule(4194304.0, lambda: None)
    eng.schedule(536870912.0, lambda: None)
    assert eng.pending == 4
    eng.run()
    assert eng.pending == 0
    assert eng.events_processed == 4


def test_schedule_pooled_reset_and_stale_cancel():
    """schedule_pooled resets ``cancelled`` on reuse, so a stale cancel
    of a recycled object cannot suppress its next incarnation."""

    class Pooled:
        __slots__ = ("time", "seq", "cancelled", "pool")

        def __init__(self):
            self.time = 0.0
            self.seq = 0
            self.cancelled = False
            self.pool = []

    eng = WheelEngine()
    ev = Pooled()
    fired = []
    eng.schedule_pooled(5.0, ev, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [5.0]
    # Stale cancel of the already-fired (recycled) object, e.g. a
    # Transmitter.fail() racing a pool recycle ...
    ev.cancelled = True
    eng.schedule_pooled(7.0, ev, lambda: fired.append(eng.now))
    assert ev.cancelled is False  # ... is cleared on reschedule,
    eng.run()
    assert fired == [5.0, 12.0]  # so the new incarnation still fires.


def test_cancelled_pooled_event_reaped_to_pool():
    """A pooled event found cancelled at dispatch is recycled onto its
    own free list instead of firing."""

    class Pooled:
        __slots__ = ("time", "seq", "cancelled", "pool")

        def __init__(self):
            self.time = 0.0
            self.seq = 0
            self.cancelled = False
            self.pool = []

    eng = WheelEngine()
    ev = Pooled()
    fired = []
    eng.schedule_pooled(5.0, ev, lambda: fired.append(eng.now))
    ev.cancelled = True
    eng.run()
    assert fired == []
    assert eng.events_processed == 0
    assert ev.pool == [ev]


def test_close_releases_pooled_events():
    """close() releases every pooled event it holds, queued or free:
    a pooled event's stage callbacks may be bound to itself."""

    class Pooled:
        __slots__ = ("time", "seq", "cancelled", "pool", "released")

        def __init__(self, pool):
            self.time = 0.0
            self.seq = 0
            self.cancelled = False
            self.pool = pool
            self.released = False

        def release(self):
            self.released = True

    eng = WheelEngine()
    queued, free = Pooled(eng.hop_pool), Pooled(eng.hop_pool)
    eng.hop_pool.append(free)
    eng.schedule_pooled(5.0, queued, lambda: None)
    eng.close()
    assert queued.released and free.released
    assert eng.hop_pool == [] and eng.pending == 0


def test_exhausted_advance_parks_cursor_at_now():
    """Running an idle engine dry must not strand the cursor a rotation
    ahead of ``now`` — an overshot cursor sends every later insert
    below it through the merge-and-resort current-run path, making
    the first rotation of scheduling quadratic (a caller may run an
    empty engine before anything is scheduled)."""
    eng = WheelEngine()
    eng.run()
    assert eng._cur == int(eng.now) >> _G  # parked, not slot _SPAN0
    # Inserts after the empty run take the plain bucket path, not the
    # current-run merge (which would grow _curlist before any run()).
    eng.schedule(5.0, lambda: None)
    assert eng._curlist == []
    # Same after running an engine dry mid-simulation.
    eng.run()
    assert eng.events_processed == 1
    assert eng._cur == int(eng.now) >> _G
    eng.schedule(eng.now + 1.0, lambda: None)
    assert eng._curlist == []
    # Order across the parked cursor stays exact.
    fired = []
    eng.schedule(eng.now + 0.5, lambda: fired.append("early"))
    eng.run()
    assert fired == ["early"]
