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

:func:`build_artifacts` is the one place a fabric's routing state is
built: every :func:`~repro.ib.subnet.build_subnet` wires its subnet
from a :class:`RoutingArtifacts`, cached for a scheme name and built
uncached for a scheme object (a repaired scheme or a test double).

The route kernel (:attr:`RoutingArtifacts.kernel`) is the scheme's
:func:`~repro.core.kernel.compile_kernel` memo, compiled on first read
and selecting DLIDs through the artifact's matrix.  Packet points never
read it; the static analyses and the route-query service do.

Everything cached is immutable after construction — ``FatTree``,
scheme tables, :class:`~repro.ib.lft.LinearForwardingTable` entries
and the (write-protected) DLID array — so one
:class:`RoutingArtifacts` instance can be shared by any number of
subnets, sequentially or concurrently.  The dynamic Subnet Manager
reprograms a switch by swapping its LFT object, never by writing one.
Per-seed simulator state (engine, switches, endnodes, RNG streams) is
*never* cached; see :func:`repro.ib.subnet.build_subnet`.

Determinism guarantee: ``build_artifacts`` is a pure function of its
key, and an uncached ``build_artifacts`` is the reference the cache is
tested against, bit for bit (``tests/ib/test_artifacts.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.kernel import RouteKernel, compile_kernel
from repro.core.scheme import RoutingScheme, get_scheme
from repro.ib.config import SimConfig
from repro.ib.lft import LinearForwardingTable
from repro.ib.sm import SubnetManager
from repro.topology.fattree import FatTree
from repro.topology.labels import SwitchLabel

__all__ = [
    "RoutingArtifacts",
    "build_artifacts",
    "get_artifacts",
    "artifact_cache_info",
    "clear_artifact_cache",
    "routing_cache_info",
]

#: Cache key: (m, n, scheme name).
ArtifactKey = Tuple[int, int, str]


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
        """The DLID matrix as one Python list per source PID, indexed by
        destination PID, for the endnodes' per-packet lookup: built on
        the first subnet build and shared by every later one.  Equal
        DLIDs share one ``int`` object across rows."""
        interned: Dict[int, int] = {}
        intern = interned.setdefault
        nodes = self.ft.num_nodes
        return [
            [intern(d, d) for d in row]
            for row in self.dlid_flat.reshape(nodes, nodes).tolist()
        ]

    @cached_property
    def kernel(self) -> RouteKernel:
        """Route kernel of the scheme's tables — the port/peer arrays
        every switch forwards through (the LFTs hold the same ports,
        shifted by one), shared with all static analyses (verify, LCA
        usage, link loads, CDG) and the route-query service.

        :func:`~repro.core.kernel.compile_kernel`'s memo, whichever is
        read first, selecting DLIDs through this artifact's matrix."""
        kernel = compile_kernel(self.scheme)
        nodes = self.ft.num_nodes
        kernel._set_selected(self.dlid_flat.reshape(nodes, nodes))
        return kernel

    def snapshot(self):
        """Generation-0 :class:`~repro.service.snapshot.RouteSnapshot`
        over this artifact's kernel — the way to stand up a static
        (storm-less) route-query service.  The first call compiles the
        kernel; later ones share it."""
        from repro.service.snapshot import baseline_snapshot

        return baseline_snapshot(self)


def build_artifacts(
    m: int, n: int, scheme: Union[str, RoutingScheme]
) -> RoutingArtifacts:
    """Build the routing artifacts of FT(m, n) under ``scheme``, uncached.

    ``scheme`` is a registered name, instantiated on a new FT(m, n), or
    a scheme instance built for FT(m, n), used as is.  Then the Subnet
    Manager runs its full initialization (sweep discovery, LID plan,
    LFT programming) and the dense DLID matrix is materialized.  The
    route kernel waits for its first read
    (:attr:`RoutingArtifacts.kernel`).
    """
    if isinstance(scheme, str):
        scheme_obj = get_scheme(scheme, FatTree(m, n))
    else:
        scheme_obj = scheme
        if (scheme_obj.ft.m, scheme_obj.ft.n) != (m, n):
            raise ValueError("scheme was built for a different FT(m, n)")
    lfts = SubnetManager(scheme_obj).configure()
    dlid_flat = scheme_obj.dlid_matrix().reshape(-1)
    dlid_flat.setflags(write=False)
    return RoutingArtifacts(
        m=m,
        n=n,
        scheme_name=scheme.lower() if isinstance(scheme, str) else scheme_obj.name,
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
