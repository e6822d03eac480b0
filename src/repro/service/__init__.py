"""The route-query service: serving routing answers, not running runs.

Everything else in this repo *simulates*; this package *serves*.  The
compiled route tensor (:class:`~repro.core.kernel.RouteKernel`), the
incremental fault-repair kernel and the generation-counted live
kernel of the dynamic SM already hold every answer an online
consumer could ask of a fat-tree fabric — this package exposes them as
a long-running server:

* :mod:`repro.service.snapshot` — immutable, generation-counted
  :class:`RouteSnapshot` views of the forwarding state, swapped
  atomically through a :class:`SnapshotStore` while repairs run
  underneath (readers never block, never see a torn table);
* :mod:`repro.service.storm` — a scripted link-flap storm driving a
  live :class:`~repro.runtime.DynamicSubnetManager` on a background
  thread, publishing a fresh snapshot per completed repair sweep;
* :mod:`repro.service.server` — the asyncio TCP server speaking a
  line-delimited JSON protocol, plus :class:`RouteQueryService`, the
  in-process client API the server itself queries through;
* :mod:`repro.service.client` — the blocking socket client;
* :mod:`repro.service.telemetry` — periodic telemetry frames (link
  load, drop counters, repair latency, snapshot generation/age).

See DESIGN.md §13 for the architecture and wire protocol.
"""

from repro.service.client import ServiceClient
from repro.service.server import RouteQueryServer, RouteQueryService
from repro.service.snapshot import (
    RouteSnapshot,
    SnapshotPublisher,
    SnapshotStore,
    baseline_snapshot,
)
from repro.service.storm import LinkFlapStorm, flap_schedule
from repro.service.telemetry import telemetry_frame

__all__ = [
    "RouteSnapshot",
    "SnapshotStore",
    "SnapshotPublisher",
    "baseline_snapshot",
    "RouteQueryService",
    "RouteQueryServer",
    "ServiceClient",
    "LinkFlapStorm",
    "flap_schedule",
    "telemetry_frame",
]
