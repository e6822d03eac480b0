"""Unit tests for the discrete-event engine.

Every test runs against both scheduler backends — the heap oracle
(``repro.sim.engine.Engine``) and the timing wheel
(``repro.sim.wheel.WheelEngine``) — because the wheel's contract is
*bit-identical behaviour* (same order, same counters, same guards).
"""

import math

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.wheel import WheelEngine


@pytest.fixture(params=[Engine, WheelEngine], ids=["heap", "wheel"])
def eng(request):
    return request.param()


def test_initial_state(eng):
    assert eng.now == 0.0
    assert eng.pending == 0
    assert eng.events_processed == 0


def test_single_event_fires_at_time(eng):
    fired = []
    eng.schedule(10.0, lambda: fired.append(eng.now))
    eng.run()
    assert fired == [10.0]
    assert eng.now == 10.0


def test_events_fire_in_time_order(eng):
    order = []
    eng.schedule(30.0, lambda: order.append(3))
    eng.schedule(10.0, lambda: order.append(1))
    eng.schedule(20.0, lambda: order.append(2))
    eng.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_fifo(eng):
    order = []
    for i in range(10):
        eng.schedule(5.0, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_schedule_after_uses_relative_delay(eng):
    times = []

    def first():
        times.append(eng.now)
        eng.schedule_after(7.0, lambda: times.append(eng.now))

    eng.schedule(3.0, first)
    eng.run()
    assert times == [3.0, 10.0]


def test_schedule_in_past_raises(eng):
    eng.schedule(5.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule(4.0, lambda: None)


def test_negative_delay_raises(eng):
    with pytest.raises(SimulationError):
        eng.schedule_after(-1.0, lambda: None)


def test_run_until_stops_before_later_events(eng):
    fired = []
    eng.schedule(10.0, lambda: fired.append("a"))
    eng.schedule(50.0, lambda: fired.append("b"))
    eng.run(until=20.0)
    assert fired == ["a"]
    assert eng.now == 20.0
    eng.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_when_queue_empty(eng):
    eng.run(until=100.0)
    assert eng.now == 100.0


def test_run_until_boundary_event_fires(eng):
    fired = []
    eng.schedule(20.0, lambda: fired.append(1))
    eng.run(until=20.0)
    assert fired == [1]


def test_run_until_in_past_raises_instead_of_rewinding(eng):
    """Regression: run(until < now) used to silently rewind the clock."""
    eng.schedule(10.0, lambda: None)
    eng.run(until=50.0)
    assert eng.now == 50.0
    with pytest.raises(SimulationError):
        eng.run(until=20.0)
    assert eng.now == 50.0  # clock untouched
    # A past `until` is rejected even with events still pending.
    eng.schedule(80.0, lambda: None)
    with pytest.raises(SimulationError):
        eng.run(until=49.0)
    assert eng.now == 50.0
    assert eng.pending == 1


def test_run_until_nan_raises(eng):
    """A NaN horizon is rejected like a past one: no event time
    compares beyond it, so the run would never stop at it."""
    fired = []
    eng.schedule(10.0, lambda: fired.append(eng.now))
    with pytest.raises(SimulationError):
        eng.run(until=math.nan)
    assert fired == []
    assert eng.now == 0.0
    assert eng.pending == 1


def test_run_until_now_is_a_noop(eng):
    eng.run(until=30.0)
    eng.run(until=30.0)  # boundary: until == now is allowed
    assert eng.now == 30.0


def test_cancel_prevents_firing(eng):
    fired = []
    ev = eng.schedule(10.0, lambda: fired.append(1))
    ev.cancel()
    eng.run()
    assert fired == []
    assert eng.events_processed == 0


def test_cancel_is_idempotent(eng):
    ev = eng.schedule(10.0, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()


def test_events_scheduled_during_run_fire(eng):
    fired = []

    def chain(depth):
        fired.append(eng.now)
        if depth:
            eng.schedule_after(1.0, lambda: chain(depth - 1))

    eng.schedule(0.0, lambda: chain(3))
    eng.run()
    assert fired == [0.0, 1.0, 2.0, 3.0]


def test_step_processes_one_event(eng):
    """A bounded run up to the next event's time is one step: it fires
    that event alone, and the following step fires the next."""
    fired = []
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(2.0, lambda: fired.append(2))
    eng.run(until=1.0)
    assert fired == [1]
    assert eng.events_processed == 1
    assert eng.pending == 1
    eng.run(until=2.0)
    assert fired == [1, 2]
    assert eng.events_processed == 2
    assert eng.pending == 0


def test_step_skips_cancelled(eng):
    """A step over a cancelled head fires the next live event instead."""
    fired = []
    ev = eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(2.0, lambda: fired.append(2))
    ev.cancel()
    eng.run(until=2.0)
    assert fired == [2]
    assert eng.now == 2.0
    assert eng.events_processed == 1


def test_run_skips_run_of_cancelled_heads(eng):
    """run(until) pops through consecutive cancelled heads and fires the
    first live event exactly once."""
    fired = []
    cancelled = [
        eng.schedule(float(t), lambda t=t: fired.append(t)) for t in (1, 2, 3)
    ]
    eng.schedule(4.0, lambda: fired.append(4))
    for ev in cancelled:
        ev.cancel()
    eng.run(until=4.0)
    assert fired == [4]
    assert eng.now == 4.0
    assert eng.events_processed == 1


def test_run_over_only_cancelled_leaves_clock(eng):
    """An unbounded run over a queue of cancelled events drains it
    without firing anything or moving the clock."""
    events = [eng.schedule(float(t), lambda: None) for t in (1, 2)]
    for ev in events:
        ev.cancel()
    eng.run()
    assert eng.pending == 0
    assert eng.now == 0.0  # clock untouched when nothing fires
    assert eng.events_processed == 0


def test_event_cancelled_mid_step_sequence(eng):
    """An event cancelled by an earlier event's callback never fires,
    across a sequence of bounded runs."""
    fired = []
    later = eng.schedule(2.0, lambda: fired.append("later"))
    eng.schedule(1.0, lambda: (fired.append("first"), later.cancel()))
    eng.run(until=1.0)
    assert fired == ["first"]
    eng.run(until=3.0)
    assert fired == ["first"]
    assert eng.events_processed == 1


def test_events_processed_counts(eng):
    for t in range(5):
        eng.schedule(float(t), lambda: None)
    eng.run()
    assert eng.events_processed == 5


def test_reentrant_run_rejected(eng):
    def nested():
        with pytest.raises(SimulationError):
            eng.run()

    eng.schedule(1.0, nested)
    eng.run()


def test_reentrant_step_rejected(eng):
    """A bounded run from inside a firing callback is rejected: it would
    recurse into the dispatch loop and double-fire queue state."""
    caught = []

    def nested():
        with pytest.raises(SimulationError):
            eng.run(until=eng.now + 1.0)
        caught.append(True)

    eng.schedule(1.0, nested)
    eng.run()
    assert caught == [True]
    # The guard also trips under bounded (stepwise) dispatch.
    eng.schedule(2.0, nested)
    eng.run(until=2.0)
    assert caught == [True, True]


def test_zero_time_self_scheduling_same_timestamp(eng):
    """An event may schedule another at the current time; it fires next."""
    order = []

    def a():
        order.append("a")
        eng.schedule(eng.now, lambda: order.append("b"))

    eng.schedule(5.0, a)
    eng.schedule(5.0, lambda: order.append("c"))
    eng.run()
    assert order == ["a", "c", "b"]  # FIFO among same-time events


def test_exception_in_callback_propagates_and_engine_recovers(eng):
    eng.schedule(1.0, lambda: (_ for _ in ()).throw(ValueError("boom")))
    eng.schedule(2.0, lambda: None)
    with pytest.raises(ValueError):
        eng.run()
    # The failed event was consumed; the rest still runs.
    eng.run()
    assert eng.now == 2.0
    assert eng.events_processed == 2  # the raiser counts as fired


def test_close_drops_pending_and_keeps_counters(eng):
    """close() ends the engine's life: every pending entry, on the
    wheel or past its rotation, is dropped unfired; the clock and the
    processed count stay readable.  Idempotent."""
    fired = []
    eng.schedule(1.0, lambda: fired.append(eng.now))
    eng.schedule(5.0, lambda: fired.append(eng.now))
    eng.schedule(50_000.0, lambda: fired.append(eng.now))  # far heap
    eng.schedule(5e6, lambda: fired.append(eng.now))
    eng.schedule(1e9, lambda: fired.append(eng.now))
    eng.schedule_after(3.0, lambda: fired.append(eng.now))
    eng.run(until=2.0)
    eng.close()
    assert eng.pending == 0
    eng.close()
    eng.run()
    assert fired == [1.0]
    assert eng.now == 2.0
    assert eng.events_processed == 1


def test_close_rejected_inside_callback(eng):
    caught = []

    def nested():
        with pytest.raises(SimulationError):
            eng.close()
        caught.append(True)

    eng.schedule(1.0, nested)
    eng.run()
    assert caught == [True]
