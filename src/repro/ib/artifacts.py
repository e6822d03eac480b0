"""Routing-artifact cache for sweep execution.

Every point of a paper figure rebuilds the same deterministic setup:
the :class:`~repro.topology.fattree.FatTree` description, the routing
scheme (MLID/SLID tables), the Subnet Manager's LFTs and the dense
DLID path-selection matrix.  Equations (1)/(2) fix all of it from the
fabric and the scheme alone — not the seed, the offered load, the VL
count or any other :class:`~repro.ib.config.SimConfig` field — so a
figure's schemes × VL counts × loads × seeds grid has one distinct
answer per scheme.

:func:`get_artifacts` memoizes that setup per process, keyed on
``(m, n, scheme-name)``.  :func:`build_artifacts` takes no
configuration, so no configuration can reach the tables: the key is
complete by construction.

The route kernel compiled from the programmed LFTs
(:attr:`RoutingArtifacts.kernel`) is built on first read.  Packet
points never read it; the static analyses and the route-query service
do, and share it with :func:`~repro.core.kernel.compile_kernel`
through the scheme's memo slot.

Everything cached is immutable after construction — ``FatTree``,
scheme tables, :class:`~repro.ib.lft.LinearForwardingTable` entries
and the (write-protected) DLID array — so one
:class:`RoutingArtifacts` instance can be shared by any number of
subnets, sequentially or concurrently.  Per-seed simulator state
(engine, switches, endnodes, RNG streams) is *never* cached; see
:func:`repro.ib.subnet.build_subnet`.

Determinism guarantee: ``build_artifacts`` is a pure function of its
key, and a subnet wired from cached artifacts is indistinguishable
from a freshly built one, so cached runs are bit-for-bit identical to
uncached runs (tested in ``tests/ib/test_artifacts.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.kernel import RouteKernel
from repro.core.scheme import RoutingScheme, get_scheme
from repro.ib.config import SimConfig
from repro.ib.lft import LinearForwardingTable
from repro.ib.sm import SubnetManager
from repro.topology.fattree import FatTree
from repro.topology.labels import SwitchLabel

__all__ = [
    "RoutingArtifacts",
    "build_artifacts",
    "dlid_row_lists",
    "get_artifacts",
    "artifact_cache_info",
    "clear_artifact_cache",
    "routing_cache_info",
]

#: Cache key: (m, n, scheme name).
ArtifactKey = Tuple[int, int, str]

#: Serializes first reads of :attr:`RoutingArtifacts.kernel`.
_kernel_lock = threading.Lock()


@dataclass(frozen=True)
class RoutingArtifacts:
    """The seed- and load-independent part of one subnet build."""

    m: int
    n: int
    scheme_name: str
    scheme: RoutingScheme
    lfts: Dict[SwitchLabel, LinearForwardingTable] = field(repr=False)
    #: Flattened (num_nodes * num_nodes) DLID matrix, write-protected.
    dlid_flat: np.ndarray = field(repr=False)

    @property
    def ft(self) -> FatTree:
        return self.scheme.ft

    @cached_property
    def dlid_rows(self) -> List[List[int]]:
        """:func:`dlid_row_lists` of the DLID matrix, built on the
        first subnet build and shared by every later one."""
        return dlid_row_lists(self.dlid_flat, self.ft.num_nodes)

    @cached_property
    def kernel(self) -> RouteKernel:
        """Route kernel of the programmed LFTs — the port/peer arrays
        every switch forwards through, shared with all static analyses
        (verify, LCA usage, link loads, CDG) and the route-query
        service.

        Compiled on the first read, with this artifact's DLID matrix,
        and installed in :func:`~repro.core.kernel.compile_kernel`'s
        memo slot on the scheme.  If ``compile_kernel(self.scheme)``
        ran first, this is its kernel.  Concurrent first reads get one
        object."""
        with _kernel_lock:
            kernel = getattr(self.scheme, "_route_kernel", None)
            if kernel is None:
                kernel = RouteKernel.from_lfts(self.scheme, self.lfts)
                nodes = self.ft.num_nodes
                kernel._set_selected(self.dlid_flat.reshape(nodes, nodes))
                self.scheme._route_kernel = kernel
            return kernel

    def snapshot(self):
        """Generation-0 :class:`~repro.service.snapshot.RouteSnapshot`
        over this artifact's kernel — the way to stand up a static
        (storm-less) route-query service.  The first call compiles the
        kernel; later ones share it."""
        from repro.service.snapshot import baseline_snapshot

        return baseline_snapshot(self)


def dlid_row_lists(dlid_flat: np.ndarray, num_nodes: int) -> List[List[int]]:
    """The flattened DLID matrix as one Python list per source PID,
    indexed by destination PID, for the endnodes' per-packet lookup.
    Equal DLIDs share one ``int`` object across rows."""
    interned: Dict[int, int] = {}
    intern = interned.setdefault
    return [
        [intern(d, d) for d in row]
        for row in dlid_flat.reshape(num_nodes, num_nodes).tolist()
    ]


def build_artifacts(m: int, n: int, scheme: str) -> RoutingArtifacts:
    """Build the shareable routing artifacts of FT(m, n) under ``scheme``.

    This is exactly the setup work :func:`~repro.ib.subnet.build_subnet`
    performs on its fresh-build path: construct FT(m, n), instantiate
    the scheme, run the Subnet Manager's full initialization (sweep
    discovery, LID plan, LFT programming) and materialize the dense
    DLID matrix.  The route kernel waits for its first read
    (:attr:`RoutingArtifacts.kernel`).
    """
    ft = FatTree(m, n)
    scheme_obj = get_scheme(scheme, ft)
    lfts = SubnetManager(scheme_obj).configure()
    dlid_flat = scheme_obj.dlid_matrix().reshape(-1)
    dlid_flat.setflags(write=False)
    return RoutingArtifacts(
        m=m,
        n=n,
        scheme_name=scheme.lower(),
        scheme=scheme_obj,
        lfts=lfts,
        dlid_flat=dlid_flat,
    )


_lock = threading.Lock()
_cache: Dict[ArtifactKey, RoutingArtifacts] = {}
_hits = 0
_misses = 0


def get_artifacts(
    m: int, n: int, scheme: str, cfg: Optional[SimConfig] = None
) -> RoutingArtifacts:
    """Cached :func:`build_artifacts` (per-process, thread-safe).

    ``cfg`` is ignored: the artifacts depend on ``(m, n, scheme)``
    alone.  It remains only for ``benchmarks/e2e/workloads.py``, the
    last caller that passes one, and goes with that file's next change.
    """
    global _hits, _misses
    key: ArtifactKey = (m, n, scheme.lower())
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            return cached
        _misses += 1
    built = build_artifacts(m, n, scheme)
    with _lock:
        # Keep the first build if two threads raced; both are equal.
        return _cache.setdefault(key, built)


def artifact_cache_info() -> dict:
    """Hit/miss/size counters of this process's artifact cache."""
    with _lock:
        return {"hits": _hits, "misses": _misses, "size": len(_cache)}


def clear_artifact_cache() -> None:
    """Drop every cached artifact and reset the counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def routing_cache_info() -> dict:
    """Combined registry view over this process's routing caches.

    Three layers memoize (m, n, scheme)-keyed work: the artifact cache
    here, the flow-model LRU in
    :mod:`repro.experiments.flowlevel`, and the persistent flow-model
    store on disk (:mod:`repro.experiments.modelstore`).  This
    cross-references all three so benchmarks and the CLI can tell
    which layer a "fast" run actually hit.  The disk store is counted,
    never loaded.
    """
    from repro.experiments import flowlevel, modelstore

    return {
        "artifacts": artifact_cache_info(),
        "flow_models": flowlevel.flow_model_cache_info(),
        "flow_store": {
            "dir": str(modelstore.default_cache_dir()),
            "models": len(modelstore.list_models()),
        },
    }
