"""Stateful property test of the event engine (hypothesis state machine).

Random interleavings of schedule / cancel / run(until) / run() must
preserve the engine's core contracts: time never runs backward, events
fire in (time, insertion) order, cancelled events never fire, and
counters stay consistent.

Delays and spans mix the packet hot path's short ones with ones past
the wheel's 16.4 µs rotation and past 268 ms, so the wheel's far heap,
its moves onto the wheel and the cursor's jumps and parking all take
part in the interleavings.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.wheel import WheelEngine


# Short (the hot path), past one rotation (~16.4 us), past 268 ms.
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=16_384.0, max_value=5e6),
    st.floats(min_value=2.7e8, max_value=1e9),
)
_SPANS = st.one_of(
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=5e6),
    st.floats(min_value=2.7e8, max_value=1e9),
)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.fired = []  # (time, tag)
        self.scheduled = {}  # tag -> (time, event)
        self.cancelled = set()
        self.next_tag = 0

    @rule(delay=_DELAYS)
    def schedule(self, delay):
        tag = self.next_tag
        self.next_tag += 1
        time = self.engine.now + delay
        ev = self.engine.schedule(
            time, lambda t=tag: self.fired.append((self.engine.now, t))
        )
        self.scheduled[tag] = (time, ev)

    @precondition(lambda self: self.scheduled)
    @rule(data=st.data())
    def cancel_one(self, data):
        pending = [
            t
            for t, (_, ev) in self.scheduled.items()
            if t not in self.cancelled and t not in {f[1] for f in self.fired}
        ]
        if not pending:
            return
        tag = data.draw(st.sampled_from(pending))
        self.scheduled[tag][1].cancel()
        self.cancelled.add(tag)

    @rule(span=_SPANS)
    def run_until(self, span):
        self.engine.run(until=self.engine.now + span)

    @rule()
    def drain(self):
        self.engine.run()
        assert self.engine.pending == 0

    @invariant()
    def fired_in_order(self):
        times = [t for t, _ in self.fired]
        assert times == sorted(times)

    @invariant()
    def cancelled_never_fire(self):
        fired_tags = {tag for _, tag in self.fired}
        assert not (fired_tags & self.cancelled)

    @invariant()
    def fire_times_match_schedule(self):
        for t, tag in self.fired:
            assert t == self.scheduled[tag][0]

    @invariant()
    def clock_monotone(self):
        if self.fired:
            assert self.engine.now >= self.fired[-1][0]

    @invariant()
    def processed_counter_consistent(self):
        assert self.engine.events_processed == len(self.fired)


class WheelEngineMachine(EngineMachine):
    """Same contracts, exercised against the timing-wheel backend."""

    def __init__(self):
        super().__init__()
        self.engine = WheelEngine()


TestEngineStateMachine = EngineMachine.TestCase
TestEngineStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)

TestWheelEngineStateMachine = WheelEngineMachine.TestCase
TestWheelEngineStateMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
