"""Telemetry frames: what the service publishes about itself.

One frame is one JSON-ready dict; :func:`telemetry_frame` assembles it
from whatever sources the service is wired with — always the snapshot
store (generation, age), and, when a live storm is attached, the
fabric's drop counters (:func:`repro.ib.instrumentation.loss_report`'s
stable dict form), the SM's repair records
(:meth:`~repro.runtime.FailoverMetrics.to_dict`) and the snapshot's
top estimated link loads.  The TCP server pushes frames to subscribed
clients on a configurable interval; the same function serves the
one-shot ``telemetry`` query.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.topology.labels import format_switch

__all__ = ["telemetry_frame"]

#: Estimated link loads a frame lists, most loaded first.
TOP_LINKS = 5


def telemetry_frame(
    store,
    *,
    storm=None,
    counters: Optional[dict] = None,
) -> dict:
    """One telemetry frame (JSON-ready).

    ``store`` is a :class:`~repro.service.snapshot.SnapshotStore`;
    ``storm`` an optional :class:`~repro.service.storm.LinkFlapStorm`
    (adds repair/loss sections); ``counters`` the server's per-op query
    counters, included verbatim.
    """
    frame: dict = {"type": "telemetry", "wall_s": time.time()}
    frame["snapshots"] = store.stats()
    snap = store.current
    if snap is not None:
        ft = snap.kernel.ft
        frame["down_links"] = len(snap.down_links)
        frame["link_load_top"] = [
            {
                "switch": format_switch(*ft.switches[sw_id]),
                "port": port,
                "load": load,
            }
            for sw_id, port, load in snap.top_loads(TOP_LINKS)
        ]
    if storm is not None:
        from repro.ib.instrumentation import loss_report

        metrics = storm.mgr.metrics()
        frame["sim_time_ns"] = storm.net.engine.now
        frame["repairs"] = metrics.to_dict()["summary"]
        records = metrics.records
        if records:
            frame["last_repair"] = records[-1].to_dict()
        frame["drops"] = loss_report(storm.net).to_dict()
    if counters is not None:
        frame["queries"] = dict(counters)
    return frame
