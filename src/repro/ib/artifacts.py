"""Routing-artifact cache for sweep execution.

Every point of a paper figure rebuilds the same deterministic setup:
the :class:`~repro.topology.fattree.FatTree` description, the routing
scheme (MLID/SLID tables), the Subnet Manager's LFTs and the dense
DLID path-selection matrix.  None of these depend on the seed or the
offered load — only on ``(m, n, scheme, cfg)`` — so a sweep of S seeds
× L loads pays the setup cost S·L times for one distinct answer.

:func:`get_artifacts` memoizes that setup per process.  The cache key
is ``(m, n, scheme-name, cfg)`` (``SimConfig`` is a frozen, hashable
dataclass, so the full configuration participates in the key; the
artifacts themselves currently depend only on the topology and scheme,
but keying on the config keeps the cache trivially correct if a future
config knob ever influences table construction).

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

#: Cache key: (m, n, scheme name, full simulation config).
ArtifactKey = Tuple[int, int, str, SimConfig]


@dataclass(frozen=True)
class RoutingArtifacts:
    """The seed- and load-independent part of one subnet build."""

    m: int
    n: int
    scheme_name: str
    cfg: SimConfig
    scheme: RoutingScheme
    lfts: Dict[SwitchLabel, LinearForwardingTable] = field(repr=False)
    #: Flattened (num_nodes * num_nodes) DLID matrix, write-protected.
    dlid_flat: np.ndarray = field(repr=False)
    #: Route kernel compiled from the programmed LFTs — the compiled
    #: port/peer arrays every switch forwards through, shared with all
    #: static analyses (verify, LCA usage, link loads, CDG).
    kernel: RouteKernel = field(repr=False)

    @property
    def ft(self) -> FatTree:
        return self.scheme.ft

    @cached_property
    def dlid_rows(self) -> List[List[int]]:
        """:func:`dlid_row_lists` of the DLID matrix, built on the
        first subnet build and shared by every later one."""
        return dlid_row_lists(self.dlid_flat, self.ft.num_nodes)

    @property
    def key(self) -> ArtifactKey:
        return (self.m, self.n, self.scheme_name, self.cfg)

    def snapshot(self):
        """Generation-0 :class:`~repro.service.snapshot.RouteSnapshot`
        over this artifact's kernel — the zero-cost way to stand up a
        static (storm-less) route-query service."""
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


def build_artifacts(
    m: int, n: int, scheme: str, cfg: Optional[SimConfig] = None
) -> RoutingArtifacts:
    """Build the shareable routing artifacts for one configuration.

    This is exactly the setup work :func:`~repro.ib.subnet.build_subnet`
    performs on its fresh-build path: construct FT(m, n), instantiate
    the scheme, run the Subnet Manager's full initialization (sweep
    discovery, LID plan, LFT programming) and materialize the dense
    DLID matrix.
    """
    cfg = cfg or SimConfig()
    ft = FatTree(m, n)
    scheme_obj = get_scheme(scheme, ft)
    sm = SubnetManager(scheme_obj)
    lfts = sm.configure()
    dlid_matrix = scheme_obj.dlid_matrix()
    dlid_flat = dlid_matrix.reshape(-1)
    dlid_flat.setflags(write=False)
    kernel = RouteKernel.from_lfts(scheme_obj, lfts)
    kernel._set_selected(dlid_matrix)  # reuse instead of recomputing
    scheme_obj._route_kernel = kernel  # compile_kernel() memo slot
    return RoutingArtifacts(
        m=m,
        n=n,
        scheme_name=scheme.lower(),
        cfg=cfg,
        scheme=scheme_obj,
        lfts=lfts,
        dlid_flat=dlid_flat,
        kernel=kernel,
    )


_lock = threading.Lock()
_cache: Dict[ArtifactKey, RoutingArtifacts] = {}
_hits = 0
_misses = 0


def get_artifacts(
    m: int, n: int, scheme: str, cfg: Optional[SimConfig] = None
) -> RoutingArtifacts:
    """Cached :func:`build_artifacts` (per-process, thread-safe)."""
    global _hits, _misses
    cfg = cfg or SimConfig()
    key: ArtifactKey = (m, n, scheme.lower(), cfg)
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            return cached
        _misses += 1
    built = build_artifacts(m, n, scheme, cfg)
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
