"""LinkFlapStorm lifecycle: stopping a storm before its horizon, and
the routing artifacts a storm is wired from."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.ib.artifacts import (
    artifact_cache_info,
    build_artifacts,
    clear_artifact_cache,
    get_artifacts,
)
from repro.service import LinkFlapStorm
from repro.service.storm import flap_schedule, pick_flap_links
from repro.topology.fattree import FatTree


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


@pytest.fixture
def empty_cache():
    clear_artifact_cache()
    yield
    clear_artifact_cache()


def test_storms_on_one_fabric_share_one_cached_artifact(empty_cache):
    storms = [LinkFlapStorm(4, 2), LinkFlapStorm(4, 2)]
    assert artifact_cache_info() == {"hits": 1, "misses": 1, "size": 1}
    assert storms[0].net.scheme is storms[1].net.scheme


def test_storm_play_leaves_the_cached_tables_as_programmed(empty_cache):
    """The dynamic SM reprograms a switch by swapping its LFT object: a
    flap storm that ends with one more link down leaves the shared
    tables equal to an uncached build."""
    cached = get_artifacts(4, 2, "mlid")
    *_, (sw, port) = pick_flap_links(cached.ft, 3)
    schedule = flap_schedule(cached.ft, count=2).link_down(101_000.0, sw, port)
    storm = LinkFlapStorm(4, 2, schedule=schedule).start()
    deadline = time.monotonic() + 30
    while storm.running() and time.monotonic() < deadline:
        time.sleep(0.01)
    storm.stop()
    assert storm.net.scheme is cached.scheme
    live = storm.mgr.live_lfts()
    assert any(live[s] != cached.lfts[s] for s in live)
    assert cached.lfts == build_artifacts(4, 2, "mlid").lfts


def test_pick_flap_links_takes_every_root_link():
    ft = FatTree(4, 2)
    picks = pick_flap_links(ft, 8)
    assert len(set(picks)) == 8
    assert all(ft.peer(sw, port).is_switch for sw, port in picks)
    with pytest.raises(ValueError, match="only 8 root"):
        pick_flap_links(ft, 9)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_flap_schedule_needs_a_finite_horizon(horizon):
    # The timeline repeats each flap until the horizon: an infinite one
    # never ends.
    with pytest.raises(ValueError, match="finite"):
        flap_schedule(FatTree(4, 2), horizon_ns=horizon)
