"""The paper's contribution: the Multiple LID (MLID) routing scheme.

Three cooperating pieces (Section 4 of the paper):

* :mod:`repro.core.addressing` — the processing-node addressing scheme
  (LMC, BaseLID, LIDset);
* :mod:`repro.core.path_selection` — the path-selection scheme (which
  DLID a source uses for a destination);
* :mod:`repro.core.forwarding` — the forwarding-table assignment
  scheme (Equations 1 and 2), written once in
  :class:`~repro.core.forwarding.FatTreeForwarding`.

Plus the Single LID (SLID) baseline (:mod:`repro.core.slid`), which
forwards by the same equations at LMC 0, a common
:class:`~repro.core.scheme.RoutingScheme` interface that derives every
table and DLID matrix from a scheme's rules through one override
guard, and static
verification tooling (:mod:`repro.core.verification`) that traces every
path a scheme produces and checks reachability, minimality and
deadlock-freedom without running the simulator.
"""

from repro.core.addressing import MlidAddressing, lmc_for, max_lid
from repro.core.path_selection import select_dlid
from repro.core.forwarding import FatTreeForwarding, MlidScheme
from repro.core.slid import SlidScheme
from repro.core.extensions import HashedMlidScheme, DestStaggeredMlidScheme
from repro.core.fault import FaultSet, FaultTolerantTables, DisconnectedError
from repro.core.fault_kernel import FaultRepairKernel, RepairedTables
from repro.core.updown import UpDownScheme
from repro.core.scheme import RoutingScheme, get_scheme, available_schemes
from repro.core.kernel import RouteKernel, compile_kernel
from repro.core.verification import (
    PathTrace,
    RoutingError,
    trace_path,
    verify_scheme,
    lca_usage,
)

__all__ = [
    "MlidAddressing",
    "lmc_for",
    "max_lid",
    "select_dlid",
    "FatTreeForwarding",
    "MlidScheme",
    "SlidScheme",
    "HashedMlidScheme",
    "DestStaggeredMlidScheme",
    "FaultSet",
    "FaultTolerantTables",
    "DisconnectedError",
    "FaultRepairKernel",
    "RepairedTables",
    "UpDownScheme",
    "RoutingScheme",
    "get_scheme",
    "available_schemes",
    "RouteKernel",
    "compile_kernel",
    "PathTrace",
    "RoutingError",
    "trace_path",
    "verify_scheme",
    "lca_usage",
]
