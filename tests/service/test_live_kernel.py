"""The live kernel behind published snapshots is retraced, not
recompiled: after every sweep it equals a fresh compile of the live
LFTs, and a published snapshot never changes afterwards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernel import RouteKernel
from repro.service import LinkFlapStorm

ROUTE_ARRAYS = (
    "port",
    "route_switch",
    "route_port",
    "route_len",
    "delivered",
    "bad_port",
)


def _arrays(kernel: RouteKernel) -> dict:
    return {name: getattr(kernel, name).copy() for name in ROUTE_ARRAYS}


def _assert_same(got: dict, want: dict) -> None:
    for name in ROUTE_ARRAYS:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize(
    "m,n,scheme", [(4, 3, "mlid"), (8, 2, "slid")], ids=["ft4x3-mlid", "ft8x2-slid"]
)
def test_every_sweep_live_kernel_equals_fresh_compile(m, n, scheme):
    storm = LinkFlapStorm(m, n, scheme, flap_links=2, horizon_ns=60_000.0)
    mgr = storm.mgr
    published = [(storm.store.get(), _arrays(storm.store.get().kernel))]
    publish = mgr.on_sweep  # the snapshot publisher's hook
    channels = [(0, 0), (mgr.ft.num_switches - 1, mgr.ft.m - 1)]
    sweeps = []

    def check(record):
        publish(record)
        kernel = mgr.live_kernel()
        fresh = RouteKernel.from_lfts(mgr.scheme, mgr.live_lfts())
        _assert_same(_arrays(kernel), _arrays(fresh))
        assert np.array_equal(
            kernel.estimated_link_loads(), fresh.estimated_link_loads()
        )
        for sw, port in channels:
            got, want = kernel.flows_crossing(sw, port), fresh.flows_crossing(sw, port)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        snap = storm.store.get()
        assert snap.generation == mgr.generation
        assert snap.kernel is kernel
        if snap is not published[-1][0]:
            published.append((snap, _arrays(snap.kernel)))
        sweeps.append(record)

    mgr.on_sweep = check
    storm.net.engine.run()
    assert len(sweeps) == len(mgr.records) > 4
    assert len(published) > 4
    # Every snapshot still holds exactly the routes it was published with.
    for snap, arrays in published:
        _assert_same(_arrays(snap.kernel), arrays)


def test_published_snapshots_select_by_the_subnet_dlid_matrix():
    """One DLID matrix per storm: every snapshot's kernel reads the
    subnet's own, which the manager installed once."""
    storm = LinkFlapStorm(4, 2, "mlid", flap_links=2, horizon_ns=30_000.0)
    snaps = [storm.store.get()]
    publish = storm.mgr.on_sweep

    def keep(record):
        publish(record)
        if storm.store.get() is not snaps[-1]:
            snaps.append(storm.store.get())

    storm.mgr.on_sweep = keep
    storm.net.engine.run()
    assert len(snaps) > 2
    matrix = storm.net.dlid_matrix()
    for snap in snaps:
        assert np.shares_memory(snap.kernel.selected, matrix)
