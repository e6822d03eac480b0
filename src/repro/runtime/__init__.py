"""Dynamic subnet management: failure injection *during* simulation.

The paper fixes routing at initialization "unless a subnet
reconfiguration or … the subnet manager re-assigns forwarding table for
each switch".  :mod:`repro.core.fault` models that re-assignment
offline; this package runs it *online*, inside a live simulation:

* :mod:`repro.runtime.schedule` — declarative fault timelines (link
  and switch down/up events at simulated times);
* :mod:`repro.runtime.detection` — the trap/heartbeat model for when
  the Subnet Manager *learns* about a port-state change
  (``SimConfig.detection_latency_ns``);
* :mod:`repro.runtime.manager` — the
  :class:`~repro.runtime.manager.DynamicSubnetManager`: applies
  physical failures to the live subnet, re-sweeps on detection,
  computes repaired tables with
  :class:`~repro.core.fault_kernel.FaultRepairKernel` (bit-identical to
  :class:`~repro.core.fault.FaultTolerantTables`' offline repair),
  programs LFT *deltas* switch-by-switch through the
  existing LFT-swap path, and collects the failover metrics bundle
  (time-to-detect, time-to-repair, packets lost, flows rerouted,
  path-length inflation).
"""

from repro.runtime.detection import TrapDetector
from repro.runtime.manager import (
    DynamicSubnetManager,
    FailoverMetrics,
    ReroutingRecord,
)
from repro.runtime.schedule import FaultEvent, FaultSchedule

__all__ = [
    "DynamicSubnetManager",
    "FailoverMetrics",
    "FaultEvent",
    "FaultSchedule",
    "ReroutingRecord",
    "TrapDetector",
]
