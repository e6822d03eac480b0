"""LinkFlapStorm lifecycle: stopping a storm before its horizon."""

from __future__ import annotations

import threading
import time

from repro.service import LinkFlapStorm


def test_stop_mid_horizon_skips_the_rest_of_the_schedule():
    """A stop requested mid-horizon recovers what is down and returns,
    instead of playing every remaining flap without pacing."""
    storm = LinkFlapStorm(4, 2, flap_links=2, horizon_ns=50_000_000, pace_s=0.002)
    mgr = storm.mgr
    traps_sent = []  # one entry per trap sent to the SM (one sweep each)
    notice = mgr.detector.notice

    def counting_notice(callback, label="trap"):
        traps_sent.append(label)
        return notice(callback, label)

    mgr.detector.notice = counting_notice
    at_stop = {}
    cancel = mgr.cancel_pending_faults

    def snapshot_then_cancel():
        # Runs on the storm thread between engine runs, so this is the
        # fabric state the run-down starts from.
        at_stop.update(
            now=mgr.engine.now,
            sweeps=len(mgr.records),
            down=len(mgr.down_links) + len(mgr.down_switches),
            traps_pending=len(traps_sent) - mgr.detector.traps_delivered,
            programming=mgr._pending_ctx is not None,
        )
        return cancel()

    mgr.cancel_pending_faults = snapshot_then_cancel
    storm.start()
    deadline = time.monotonic() + 30
    while len(mgr.records) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(mgr.records) >= 3

    stopper = threading.Thread(target=storm.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive(), "stop() is playing out the horizon"
    assert storm.error is None

    assert at_stop, "the storm took the horizon path"
    assert at_stop["now"] < storm.horizon_ns
    assert not mgr.down_links and not mgr.down_switches
    assert storm.store.get().generation == mgr.generation
    assert not storm.store.get().down_links
    # Every sweep after the stop answers a trap already in flight, a
    # recovery kept for a link that was down, or finishes programming
    # that was under way; none comes from the rest of the schedule.
    bound = at_stop["down"] + at_stop["traps_pending"] + at_stop["programming"]
    assert len(mgr.records) - at_stop["sweeps"] <= bound
    # The clock stops shortly after the stop, far from the horizon.
    assert mgr.engine.now < at_stop["now"] + 50_000
