"""Flow-level evaluator: link-load fixed point over compiled routes.

The packet simulator reproduces the paper's figures faithfully but
tops out around FT(16, 3): event counts grow with nodes x load x
window.  This module evaluates a (topology, scheme, pattern, load)
point *analytically* instead, in three steps:

1. **Flow classes.**  A route is a pure function of (leaf switch of
   the source, DLID) — the same invariant :class:`RouteKernel`
   compiles — so all (src, dst) pairs sharing that key form one flow
   class.  The class's demand coefficient (bytes/ns per unit offered
   load) follows from the pattern: uniform is ``1/(N-1)`` per pair;
   k%-centric adds the hot-destination mass ``f`` for every non-hot
   source and the hot source's own uniform traffic
   (:class:`repro.traffic.patterns.CentricPattern` semantics with the
   sweep stack's ``hot_pid=0``).
2. **Streaming trace.**  Each class's route is hop-stepped through
   the scheme's closed-form ``output_port_batch`` over
   :class:`~repro.core.kernel.FabricArrays` adjacency — no forwarding
   table and no (leaves x LIDs x steps) route tensor, so FT(32, 3)
   (8192 nodes, 2 097 152 LIDs) compiles in seconds where the kernel
   tensor alone would need ~17 GB.  On fabrics where the kernel *is*
   affordable the per-link loads are bit-identical to
   :meth:`RouteKernel.accumulate_link_loads` /
   :meth:`RouteKernel.link_loads_all_to_one` (integer pair counts are
   exact in float64) — asserted in ``tests/experiments/test_flowlevel.py``.
3. **Fixed point.**  Per class an acceptance ratio ``theta`` is
   iterated: loads are one ``np.bincount`` over the flattened route
   codes, each class is scaled down by its bottleneck resource's
   overload factor (links at ``link_bandwidth``, ejection links at
   ``link_bandwidth * ejection_efficiency`` — VL-aware — and shared
   routing-engine pools at ``k * packet_bytes / routing_time``), with
   damping until stable.  Below the knee every ``theta`` is 1 and the
   loop exits after a single iteration.

**Symmetry folding** (the fast path, DESIGN.md §15): on a perfect
FT(m, n) under uniform or centric demand, MLID/SLID routes commute
with the fabric's automorphisms, so flow classes collapse into
:mod:`~repro.experiments.folding` orbits and the S*m physical links
into a handful of link *types*.  A folded :class:`FlowModel` is the
same dataclass over that quotient — route codes index link types,
``link_mult``/``engine_mult`` carry multiplicities, ``coef`` carries
each orbit's total demand — and every evaluation routine below runs
on it unchanged.  ``fold=False`` keeps the unfolded build as the
oracle; ``tests/experiments/test_folding.py`` asserts bit-identical
``flow_link_loads`` and tolerance-tight curves between the two.

Latency is an M/D/1-style estimate anchored to
:func:`repro.experiments.analytical.min_latency`: the class's unloaded
latency (its hop count gives the gcp length alpha) plus a
``u / (2 (1 - u))`` waiting term per traversed resource, and a source
queueing term that separates ``latency_total_mean`` from
``latency_mean`` exactly as the simulator's generation-vs-injection
split does.

The evaluator is deliberately *not* a replacement for the simulator:
near and past the knee the fixed point smooths over transient
queueing, HOL blocking and VL arbitration.  The sweep stack therefore
uses it as the far-from-saturation half of a hybrid
(:func:`select_backends`): points whose peak utilization
(:func:`knee_utilization`) stays below the fixed
:data:`KNEE_THRESHOLD` (0.75) run here, the rest fall back to the
packet engine.  See DESIGN.md §11.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernel import _defining_class, fabric_arrays
from repro.core.scheme import RoutingScheme, get_scheme
from repro.experiments import folding
from repro.experiments.analytical import ejection_efficiency
from repro.ib.config import SimConfig
from repro.topology.fattree import FatTree

__all__ = [
    "KNEE_THRESHOLD",
    "SUPPORTED_PATTERNS",
    "FlowModel",
    "build_flow_model",
    "get_flow_model",
    "clear_flow_models",
    "flow_model_cache_info",
    "evaluate_point",
    "evaluate_curve",
    "knee_utilization",
    "select_backends",
    "flow_link_loads",
    "all_to_one_link_loads",
]

#: Peak-utilization fraction above which hybrid mode distrusts the
#: flow model and falls back to the packet engine (see DESIGN.md §11).
KNEE_THRESHOLD = 0.75

#: Patterns with closed-form demand coefficients.
SUPPORTED_PATTERNS = ("uniform", "centric")

#: Source rows per dlid_rows block during class extraction — bounds the
#: (chunk x N x n) comparison temporary to ~100 MB on FT(32, 3).
_SRC_CHUNK = 256

#: Flow classes per trace block — bounds the hop-step temporaries.
_TRACE_CHUNK = 1 << 22

#: Utilization clip for the M/D/1 waiting terms (keeps latencies
#: finite at and past the knee, where hybrid mode defers to the packet
#: engine anyway).
_U_CLIP = 0.995

_FIXED_POINT_TOL = 1e-5
_FIXED_POINT_MAX_ITERS = 100

#: Histogram resolution for the weighted p99 estimate.
_P99_BINS = 4096


def _scheme_for(m: int, n: int, scheme: str) -> RoutingScheme:
    """Instantiate ``scheme`` on FT(m, n) for flow-level analysis.

    Fabrics beyond the strict IBA LMC ceiling (FT(32, 3) needs LMC 8 >
    7) cannot be addressed by a conformant SM, but the flow model can
    still evaluate them — retry with ``strict_iba=False`` and leave
    the conformance question to :mod:`repro.core.addressing`.
    """
    ft = FatTree(m, n)
    try:
        return get_scheme(scheme, ft)
    except ValueError as exc:
        if "strict_iba" in str(exc):
            return get_scheme(scheme, ft, strict_iba=False)
        raise


def _guarded_dlid_rows(scheme: RoutingScheme):
    """``dlid_rows`` honouring ``dlid`` overrides (kernel's MRO rule)."""
    cls = type(scheme)
    if issubclass(
        _defining_class(cls, "dlid_rows"), _defining_class(cls, "dlid")
    ):
        return scheme.dlid_rows
    return lambda ids: RoutingScheme.dlid_rows(scheme, ids)


def _guarded_port_batch(scheme: RoutingScheme):
    """``output_port_batch`` honouring ``output_port`` overrides."""
    cls = type(scheme)
    if issubclass(
        _defining_class(cls, "output_port_batch"),
        _defining_class(cls, "output_port"),
    ):
        return scheme.output_port_batch
    return lambda sw, lids: RoutingScheme.output_port_batch(scheme, sw, lids)


@dataclass
class FlowModel:
    """Compiled flow classes + routes of one (fabric, scheme, pattern).

    Everything offered-load- and :class:`SimConfig`-independent:
    evaluating a point is a handful of bincounts over ``flat_codes``.

    A model is either *unfolded* (one row per (leaf, DLID) class,
    ``flat_codes`` index physical ``switch * m + port`` channels) or
    *folded* (one row per symmetry orbit, codes index link types, and
    the ``*_mult`` arrays carry the quotient's multiplicities — see
    :mod:`repro.experiments.folding`).  Every consumer below handles
    both through the same arrays.
    """

    m: int
    n: int
    scheme: str
    pattern: str
    hotspot_fraction: float
    num_nodes: int
    num_switches: int
    num_leaves: int
    lids_per_node: int
    #: (K,) class keys ``leaf * (num_lids + 1) + dlid``, sorted.  For a
    #: folded model: the key of each orbit's canonical representative.
    class_keys: np.ndarray
    #: (K,) (src, dst) pairs mapping to each class.
    cnt_all: np.ndarray
    #: (K,) pairs with dst == hot node, src != hot (centric only).
    cnt_hotdst: np.ndarray
    #: (K,) pairs with src == hot node (centric only).
    cnt_hotsrc: np.ndarray
    #: (K,) demand per class per unit offered load (bytes/ns).  For a
    #: folded model: the orbit's *total* demand (per-class x orbit size).
    coef: np.ndarray
    #: (K,) switches on each class's route.
    hops: np.ndarray
    #: (sum hops,) link codes, class-contiguous: ``switch * m + port``
    #: unfolded, link-type ids folded.
    flat_codes: np.ndarray
    #: (K,) start offset of each class's codes in ``flat_codes``.
    offsets: np.ndarray
    #: (num_links,) True where the link (type) ejects into a node.
    is_ejection: np.ndarray
    #: (num_links,) *per-channel* load per unit offered load, theta=1.
    unit_link: np.ndarray
    #: (num_engines,) *per-switch* routed bytes/ns per unit offered load.
    unit_engine: np.ndarray
    #: whether this model is the folded quotient.
    folded: bool = False
    #: (K,) classes per orbit (folded; None when unfolded).
    class_mult: Optional[np.ndarray] = None
    #: (sum hops,) engine index per route code (switch id unfolded,
    #: engine-type id folded).  Derived in ``__post_init__`` if absent.
    engine_codes: Optional[np.ndarray] = None
    #: link-resource count: S * m unfolded, #link types folded.
    num_links: int = -1
    #: engine-resource count: S unfolded, #engine types folded.
    num_engines: int = -1
    #: (num_links,) physical channels per link type (folded only).
    link_mult: Optional[np.ndarray] = None
    #: (num_engines,) switches per engine type (folded only).
    engine_mult: Optional[np.ndarray] = None
    #: (S * m,) link-type id of every physical channel (folded only) —
    #: expands folded per-type loads back to physical links.
    link_type_of_code: Optional[np.ndarray] = None
    #: per-SimConfig capacity cache (see ``_caps``).
    _caps_cache: Dict[tuple, tuple] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.engine_codes is None:
            self.engine_codes = self.flat_codes // self.m
        if self.num_links < 0:
            self.num_links = self.num_switches * self.m
        if self.num_engines < 0:
            self.num_engines = self.num_switches

    @property
    def num_classes(self) -> int:
        return len(self.class_keys)

    @property
    def total_classes(self) -> int:
        """Classes represented, counting each folded orbit's members."""
        if self.class_mult is None:
            return self.num_classes
        return int(self.class_mult.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "folded, " if self.folded else ""
        return (
            f"FlowModel(FT({self.m}, {self.n}), {self.scheme}, "
            f"{self.pattern}, {kind}{self.num_classes} classes)"
        )


def build_flow_model(
    m: int,
    n: int,
    scheme: str,
    pattern: str = "uniform",
    hotspot_fraction: float = 0.5,
    *,
    fold: bool = True,
) -> FlowModel:
    """Extract flow classes and trace their routes (the compile step).

    ``fold=True`` (default) builds the symmetry-folded quotient when
    the scheme x pattern has a registered closed-form orbit
    enumeration, and transparently falls back to the unfolded build
    otherwise.  ``fold=False`` forces the unfolded oracle.
    """
    if pattern not in SUPPORTED_PATTERNS:
        raise ValueError(
            f"flow-level evaluator supports patterns {SUPPORTED_PATTERNS}, "
            f"got {pattern!r}"
        )
    sch = _scheme_for(m, n, scheme)
    ft = sch.ft
    arrays = fabric_arrays(ft)
    frac = hotspot_fraction if pattern == "centric" else 0.0
    if fold and folding.foldable(sch, pattern):
        return _build_folded(sch, arrays, pattern, frac)
    total = ft.num_nodes
    key_mod = sch.num_lids + 1  # DLIDs are 1-based; key = leaf*mod + dlid
    dlid_rows = _guarded_dlid_rows(sch)
    hot = 0  # the sweep stack's CentricPattern hot_pid

    # -- flow-class extraction (chunked over sources) ------------------
    key_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    hotdst_parts: List[np.ndarray] = []
    hotsrc_parts: List[np.ndarray] = []
    for start in range(0, total, _SRC_CHUNK):
        ids = np.arange(start, min(start + _SRC_CHUNK, total), dtype=np.int64)
        rows = dlid_rows(ids)  # (R, N); 0 where src == dst
        keys = arrays.attach_leaf[ids].astype(np.int64)[:, None] * key_mod + rows
        valid = rows > 0
        uniq, counts = np.unique(keys[valid], return_counts=True)
        key_parts.append(uniq)
        count_parts.append(counts)
        if pattern == "centric":
            hotdst_parts.append(keys[:, hot][rows[:, hot] > 0])
            if start <= hot < start + len(ids):
                row = hot - start
                hotsrc_parts.append(keys[row][valid[row]])
    class_keys, inverse = np.unique(
        np.concatenate(key_parts), return_inverse=True
    )
    cnt_all = np.bincount(
        inverse,
        weights=np.concatenate(count_parts),
        minlength=len(class_keys),
    )
    cnt_hotdst = np.zeros(len(class_keys))
    cnt_hotsrc = np.zeros(len(class_keys))
    if pattern == "centric":
        for parts, out in ((hotdst_parts, cnt_hotdst), (hotsrc_parts, cnt_hotsrc)):
            cat = np.concatenate(parts) if parts else np.empty(0, np.int64)
            out += np.bincount(
                np.searchsorted(class_keys, cat), minlength=len(class_keys)
            )

    # -- demand coefficients (bytes/ns per unit offered load) ----------
    coef = cnt_all * ((1.0 - frac) / (total - 1))
    if pattern == "centric":
        # Non-hot sources add mass `frac` on the hot destination; the
        # hot source's own draws are uniform (frac + (1-frac) shares).
        coef += frac * cnt_hotdst + (frac / (total - 1)) * cnt_hotsrc

    # -- streaming route trace (chunked over classes) ------------------
    leaf_idx = class_keys // key_mod
    dlid = class_keys % key_mod
    hops, flat_codes = _trace_routes(
        sch, arrays, leaf_idx, dlid, max_hops=2 * n - 1
    )
    offsets = np.zeros(len(class_keys), dtype=np.int64)
    np.cumsum(hops[:-1], out=offsets[1:])

    # -- per-unit-load resource loads at theta = 1 ---------------------
    weights = np.repeat(coef, hops)
    unit_link = np.bincount(
        flat_codes,
        weights=weights,
        minlength=ft.num_switches * m,
    )
    unit_engine = np.bincount(
        flat_codes // m, weights=weights, minlength=ft.num_switches
    )
    return FlowModel(
        m=m,
        n=n,
        scheme=scheme,
        pattern=pattern,
        hotspot_fraction=frac,
        num_nodes=total,
        num_switches=ft.num_switches,
        num_leaves=arrays.num_leaves,
        lids_per_node=sch.lids_per_node,
        class_keys=class_keys,
        cnt_all=cnt_all,
        cnt_hotdst=cnt_hotdst,
        cnt_hotsrc=cnt_hotsrc,
        coef=coef,
        hops=hops,
        flat_codes=flat_codes,
        offsets=offsets,
        is_ejection=(arrays.peer_node.reshape(-1) >= 0),
        unit_link=unit_link,
        unit_engine=unit_engine,
    )


def _build_folded(
    sch: RoutingScheme, arrays, pattern: str, frac: float
) -> FlowModel:
    """Assemble the symmetry-folded quotient model (DESIGN.md §15).

    One row per class orbit, traced through the orbit's canonical
    representative; route codes index link *types*; ``coef`` is the
    orbit's total demand so every bincount in the evaluator aggregates
    whole orbits at once.
    """
    ft = sch.ft
    m, n = ft.m, ft.n
    total = ft.num_nodes
    groups = folding.fold_class_groups(sch, pattern)
    lt = folding.link_types(arrays, pattern)
    et = folding.engine_types(arrays, pattern)

    src_ids = np.array([ft.node_id(g.src) for g in groups], dtype=np.int64)
    dlid = np.array([sch.dlid(g.src, g.dst) for g in groups], dtype=np.int64)
    leaf_idx = arrays.attach_leaf[src_ids].astype(np.int64)
    key_mod = sch.num_lids + 1
    class_keys = leaf_idx * key_mod + dlid
    order = np.argsort(class_keys)
    if len(np.unique(class_keys)) != len(class_keys):  # pragma: no cover
        raise RuntimeError("fold enumeration produced duplicate classes")
    class_keys = class_keys[order]
    leaf_idx = leaf_idx[order]
    dlid = dlid[order]
    groups = [groups[i] for i in order]

    codes = _trace_block(
        arrays, _guarded_port_batch(sch), leaf_idx, dlid, max_hops=2 * n - 1
    )
    hops = (codes >= 0).sum(axis=1).astype(np.int32)
    real_codes = codes[codes >= 0]
    flat_codes = lt.type_of_code[real_codes].astype(np.int32)
    engine_codes = et.type_of_switch[real_codes // m].astype(np.int32)
    offsets = np.zeros(len(class_keys), dtype=np.int64)
    np.cumsum(hops[:-1], out=offsets[1:])

    class_mult = np.array([g.n_classes for g in groups], dtype=np.float64)
    cnt_all = np.array([g.cnt_all for g in groups], dtype=np.float64)
    cnt_hotdst = np.array([g.cnt_hotdst for g in groups], dtype=np.float64)
    cnt_hotsrc = np.array([g.cnt_hotsrc for g in groups], dtype=np.float64)

    coef = cnt_all * ((1.0 - frac) / (total - 1))
    if pattern == "centric":
        coef += frac * cnt_hotdst + (frac / (total - 1)) * cnt_hotsrc
    coef *= class_mult  # orbit total, so bincounts aggregate orbits

    link_mult = lt.mult.astype(np.float64)
    engine_mult = et.mult.astype(np.float64)
    weights = np.repeat(coef, hops)
    unit_link = (
        np.bincount(flat_codes, weights=weights, minlength=lt.num_types)
        / link_mult
    )
    unit_engine = (
        np.bincount(engine_codes, weights=weights, minlength=et.num_types)
        / engine_mult
    )
    return FlowModel(
        m=m,
        n=n,
        scheme=sch.name,
        pattern=pattern,
        hotspot_fraction=frac,
        num_nodes=total,
        num_switches=ft.num_switches,
        num_leaves=arrays.num_leaves,
        lids_per_node=sch.lids_per_node,
        class_keys=class_keys,
        cnt_all=cnt_all,
        cnt_hotdst=cnt_hotdst,
        cnt_hotsrc=cnt_hotsrc,
        coef=coef,
        hops=hops,
        flat_codes=flat_codes,
        offsets=offsets,
        is_ejection=lt.is_ejection,
        unit_link=unit_link,
        unit_engine=unit_engine,
        folded=True,
        class_mult=class_mult,
        engine_codes=engine_codes,
        num_links=lt.num_types,
        num_engines=et.num_types,
        link_mult=link_mult,
        engine_mult=engine_mult,
        link_type_of_code=lt.type_of_code,
    )


# -- route tracing -----------------------------------------------------


def _trace_block(
    arrays, port_batch, leaf_idx: np.ndarray, dlid: np.ndarray, max_hops: int
) -> np.ndarray:
    """Hop-step one block of classes; (len, max_hops) codes, -1 padded."""
    count = len(leaf_idx)
    codes = np.full((count, max_hops), -1, dtype=np.int64)
    cur = arrays.leaf_switch[leaf_idx].astype(np.int64)
    live = np.arange(count, dtype=np.int64)
    for step in range(max_hops):
        ports = port_batch(cur, dlid[live])
        codes[live, step] = cur * arrays.m + ports
        ejected = arrays.peer_node[cur, ports] >= 0
        nxt = arrays.peer_switch[cur, ports]
        live = live[~ejected]
        cur = nxt[~ejected].astype(np.int64)
        if not len(live):
            return codes
    raise RuntimeError(
        f"{len(live)} routes still active after {max_hops} hops"
    )  # pragma: no cover - schemes are up*/down* by construction


def _trace_routes(
    sch: RoutingScheme,
    arrays,
    leaf_idx: np.ndarray,
    dlid: np.ndarray,
    max_hops: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Trace every (leaf, dlid) row; ``(hops, flat_codes)``."""
    port_batch = _guarded_port_batch(sch)
    hops = np.empty(len(leaf_idx), dtype=np.int32)
    code_chunks: List[np.ndarray] = []
    for start in range(0, len(leaf_idx), _TRACE_CHUNK):
        stop = min(start + _TRACE_CHUNK, len(leaf_idx))
        codes = _trace_block(
            arrays, port_batch, leaf_idx[start:stop], dlid[start:stop], max_hops
        )
        hops[start:stop] = (codes >= 0).sum(axis=1)
        code_chunks.append(codes[codes >= 0].astype(np.int32))
    return hops, np.concatenate(code_chunks)


# -- model cache -------------------------------------------------------

_MODELS: "OrderedDict[tuple, FlowModel]" = OrderedDict()

#: In-process cache bound: a multi-scheme sweep touches 2-3 models; an
#: FT(32, 3) *unfolded* model holds >2 GB of route codes, so holding
#: every model of a long session would accumulate without bound.
_MODEL_CACHE_CAP = 4


def get_flow_model(
    m: int,
    n: int,
    scheme: str,
    pattern: str = "uniform",
    hotspot_fraction: float = 0.5,
    *,
    fold: bool = True,
    store=None,
) -> FlowModel:
    """LRU-cached :func:`build_flow_model` (compile at most once).

    Misses consult the on-disk model store
    (:mod:`repro.experiments.modelstore`) before compiling.  Freshly
    compiled *unfolded* models spill back to it, so a repeated sweep
    skips their minutes-long compile.  Folded models do not: a folded
    FT(32, 3) compile takes milliseconds, no longer than writing its 17
    files, and what that write costs depends on the file system, not
    the model.  ``store=False`` disables the disk layer; a path
    overrides the default cache directory.
    """
    from repro.experiments import modelstore

    frac = hotspot_fraction if pattern == "centric" else 0.0
    key = (m, n, scheme, pattern, frac, bool(fold))
    model = _MODELS.get(key)
    if model is None:
        model = modelstore.load_model(
            m, n, scheme, pattern, frac, fold=bool(fold), store=store
        )
        if model is None:
            model = build_flow_model(
                m, n, scheme, pattern, hotspot_fraction, fold=fold
            )
            if not fold:
                modelstore.save_model(model, fold=False, store=store)
        _MODELS[key] = model
    else:
        _MODELS.move_to_end(key)
    while len(_MODELS) > _MODEL_CACHE_CAP:
        _MODELS.popitem(last=False)
    return model


def clear_flow_models() -> None:
    """Drop all cached flow models (tests, memory pressure, workers)."""
    _MODELS.clear()


def flow_model_cache_info() -> dict:
    """Size/cap/keys of this process's flow-model LRU (see the
    combined :func:`repro.ib.artifacts.routing_cache_info`)."""
    return {
        "size": len(_MODELS),
        "cap": _MODEL_CACHE_CAP,
        "keys": list(_MODELS),
    }


# -- evaluation --------------------------------------------------------


def _caps(model: FlowModel, cfg: SimConfig) -> tuple:
    """(link caps, engine caps, bincount denominators, peak unit
    utilization) for one config.

    Caps are *per-channel*; the denominators additionally fold in the
    type multiplicities so a folded model's aggregated bincounts come
    out as per-channel utilizations.  Unfolded models reuse the cap
    arrays as denominators — byte-identical to the historical math.
    """
    key = (
        cfg.packet_bytes,
        cfg.byte_time_ns,
        cfg.flying_time_ns,
        cfg.routing_time_ns,
        cfg.num_vls,
        cfg.routing_engines_per_switch,
    )
    cached = model._caps_cache.get(key)
    if cached is not None:
        return cached
    bandwidth = cfg.link_bandwidth
    cap_link = np.full(model.num_links, bandwidth)
    cap_link[model.is_ejection] = bandwidth * ejection_efficiency(cfg)
    engines = cfg.routing_engines_per_switch
    if engines == 0 or cfg.routing_time_ns == 0:
        # One engine per port/VL: never binding below link saturation.
        cap_engine = np.full(model.num_engines, math.inf)
    else:
        cap_engine = np.full(
            model.num_engines,
            engines * cfg.packet_bytes / cfg.routing_time_ns,
        )
    if model.link_mult is None:
        denom_link = cap_link
        denom_engine = cap_engine
    else:
        denom_link = cap_link * model.link_mult
        denom_engine = cap_engine * model.engine_mult
    max_unit = 1.0 / bandwidth  # the injection link
    if model.unit_link.size:
        max_unit = max(max_unit, float((model.unit_link / cap_link).max()))
    if np.isfinite(cap_engine[0]) and model.unit_engine.size:
        max_unit = max(max_unit, float((model.unit_engine / cap_engine).max()))
    out = (cap_link, cap_engine, denom_link, denom_engine, max_unit)
    model._caps_cache[key] = out
    return out


def knee_utilization(model: FlowModel, cfg: SimConfig, offered: float) -> float:
    """Peak resource utilization at ``offered`` if every flow were
    fully accepted — the hybrid mode's distrust signal."""
    max_unit = _caps(model, cfg)[-1]
    return offered * max_unit


def select_backends(
    model: FlowModel,
    cfg: SimConfig,
    loads: Sequence[float],
    mode: str,
) -> List[str]:
    """Backend ("flow" or "packet") per load point for one curve;
    hybrid splits at :data:`KNEE_THRESHOLD` peak utilization."""
    if mode == "flow":
        return ["flow"] * len(loads)
    if mode == "hybrid":
        return [
            "flow"
            if knee_utilization(model, cfg, offered) < KNEE_THRESHOLD
            else "packet"
            for offered in loads
        ]
    raise ValueError(f"unknown sweep mode {mode!r} (packet|flow|hybrid)")


def _fixed_point(
    model: FlowModel,
    cfg: SimConfig,
    offered: float,
    theta0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Iterate per-class acceptance ratios to a stable load point.

    Returns ``(theta, u_link, u_engine, iterations)``.  Below the knee
    the first iteration already satisfies every capacity and the loop
    exits with ``theta = 1`` everywhere.  ``theta0`` warm-starts the
    iteration (clipped to the injection ceiling) — monotone load
    sweeps hand each point the previous point's converged ratios.
    """
    _, _, denom_link, denom_engine, _ = _caps(model, cfg)
    # A source cannot inject faster than its link drains: cap every
    # class's acceptance at the injectable fraction (this term does not
    # scale with theta, so it is a ceiling, not a fixed-point resource).
    ceil = min(1.0, cfg.link_bandwidth / offered)
    if theta0 is None:
        theta = np.full(model.num_classes, ceil)
    else:
        theta = np.minimum(np.asarray(theta0, dtype=np.float64), ceil)
    engine_codes = model.engine_codes
    u_link = u_engine = None
    # The map theta -> min(ceil, theta / bottleneck(theta)) is
    # idempotent when one resource dominates (utilization is linear in
    # theta), so start undamped — most points converge in a couple of
    # iterations.  If the residual stops contracting (heterogeneous
    # bottlenecks trading load back and forth), damp at 0.5, and
    # release the damping once contraction is clearly restored —
    # measured over the sweep corpus this never iterates more than the
    # sticky schedule and lets warm-started points regain full steps.
    damping = 0.0
    prev_residual = math.inf
    iters = 0
    for iters in range(1, _FIXED_POINT_MAX_ITERS + 1):
        weights = np.repeat(model.coef * theta, model.hops) * offered
        u_link = (
            np.bincount(
                model.flat_codes, weights=weights, minlength=model.num_links
            )
            / denom_link
        )
        u_engine = (
            np.bincount(
                engine_codes, weights=weights, minlength=model.num_engines
            )
            / denom_engine
        )
        per_code = np.maximum(u_link[model.flat_codes], u_engine[engine_codes])
        bottleneck = np.maximum.reduceat(per_code, model.offsets)
        target = np.minimum(ceil, theta / np.maximum(bottleneck, 1e-12))
        residual = float(np.abs(target - theta).max())
        if residual < _FIXED_POINT_TOL:
            theta = target
            break
        if residual > 0.9 * prev_residual:
            damping = 0.5
        elif damping and residual < 0.25 * prev_residual:
            damping = 0.0
        prev_residual = residual
        theta = damping * theta + (1.0 - damping) * target
    return theta, u_link, u_engine, iters


def _weighted_p99(latency: np.ndarray, weight: np.ndarray) -> float:
    """Weighted 99th percentile via a fixed-resolution histogram."""
    lo = float(latency.min())
    hi = float(latency.max())
    if hi <= lo:
        return hi
    hist, edges = np.histogram(
        latency, bins=_P99_BINS, range=(lo, hi), weights=weight
    )
    cdf = np.cumsum(hist)
    idx = int(np.searchsorted(cdf, 0.99 * cdf[-1]))
    return float(edges[min(idx + 1, _P99_BINS)])


def evaluate_point(
    model: FlowModel,
    cfg: SimConfig,
    offered: float,
    *,
    measure_ns: float = 120_000.0,
) -> dict:
    """One flow-level measurement, shaped like
    :meth:`repro.ib.subnet.Subnet.run_measurement`'s result.

    ``measure_ns`` only scales the synthetic ``packets`` count (used
    as the latency weight when replicas are averaged).  The fixed
    point starts cold, so this is the per-load oracle the warm-started
    :func:`evaluate_curve` is tested against.
    """
    result, _ = _evaluate_point_state(model, cfg, offered, measure_ns, None)
    return result


def _evaluate_point_state(
    model: FlowModel,
    cfg: SimConfig,
    offered: float,
    measure_ns: float,
    theta0: Optional[np.ndarray],
) -> Tuple[dict, Optional[np.ndarray]]:
    """``(result dict, converged theta)`` — the warm-start plumbing."""
    if offered < 0:
        raise ValueError(f"offered load must be non-negative, got {offered}")
    if offered == 0:
        return {
            "offered": 0.0,
            "accepted": 0.0,
            "latency_mean": math.nan,
            "latency_p99": math.nan,
            "latency_total_mean": math.nan,
            "packets": 0,
            "backend": "flow",
            "iterations": 0,
        }, None
    theta, u_link, u_engine, iters = _fixed_point(model, cfg, offered, theta0)
    accepted_per_class = model.coef * theta * offered
    accepted = float(accepted_per_class.sum()) / model.num_nodes

    # -- M/D/1-style latency, anchored to analytical.min_latency -------
    # A class visiting h switches has gcp length alpha = n - (h+1)/2:
    # base = (h+1) links' flying + h routings + one serialization,
    # which equals min_latency(cfg, m, n, alpha) exactly.
    hops = model.hops
    base = (
        (hops + 1.0) * cfg.flying_time_ns
        + hops * cfg.routing_time_ns
        + cfg.serialization_ns
    )
    u_l = np.minimum(u_link, _U_CLIP)
    wait_link = u_l / (2.0 * (1.0 - u_l)) * cfg.serialization_ns
    if np.isfinite(u_engine).all():
        u_e = np.minimum(u_engine, _U_CLIP)
        wait_engine = u_e / (2.0 * (1.0 - u_e)) * cfg.routing_time_ns
    else:
        wait_engine = np.zeros(model.num_engines)
    per_code = (
        wait_link[model.flat_codes] + wait_engine[model.engine_codes]
    )
    latency = base + np.add.reduceat(per_code, model.offsets)
    # reduceat on a zero-length trailing segment would repeat the last
    # element; hops >= 1 for every class, so segments are well-formed.
    weight = accepted_per_class
    total_weight = float(weight.sum())
    if total_weight == 0.0:
        # A denormal offered load can underflow every per-class weight
        # to zero; degrade like offered == 0 instead of dividing by it.
        return {
            "offered": offered,
            "accepted": 0.0,
            "latency_mean": math.nan,
            "latency_p99": math.nan,
            "latency_total_mean": math.nan,
            "packets": 0,
            "backend": "flow",
            "iterations": iters,
        }, theta
    latency_mean = float(latency @ weight) / total_weight
    latency_p99 = _weighted_p99(latency, weight)
    # Source queueing (generation -> injection) separates the
    # simulator's latency_total from its net latency.
    u_src = min(offered / cfg.link_bandwidth, _U_CLIP)
    source_wait = u_src / (2.0 * (1.0 - u_src)) * cfg.serialization_ns
    packets = int(round(accepted * model.num_nodes * measure_ns / cfg.packet_bytes))
    return {
        "offered": offered,
        "accepted": accepted,
        "latency_mean": latency_mean,
        "latency_p99": latency_p99,
        "latency_total_mean": latency_mean + source_wait,
        "packets": max(packets, 1),
        "backend": "flow",
        "iterations": iters,
    }, theta


def evaluate_curve(
    model: FlowModel,
    cfg: SimConfig,
    loads: Sequence[float],
    *,
    measure_ns: float = 120_000.0,
) -> List[dict]:
    """Evaluate a whole load curve; results in input order.

    Visits the loads in ascending order and seeds each fixed point
    with the previous point's converged ``theta`` — the solutions vary
    smoothly along a monotone sweep, so saturated points converge in
    about two fifths of the cold iterations (DESIGN.md §15).  Below
    the knee every point equals its cold :func:`evaluate_point`.
    """
    loads = list(loads)
    results: List[Optional[dict]] = [None] * len(loads)
    theta: Optional[np.ndarray] = None
    for i in sorted(range(len(loads)), key=lambda i: loads[i]):
        result, theta_out = _evaluate_point_state(
            model, cfg, loads[i], measure_ns, theta
        )
        results[i] = result
        if theta_out is not None:
            theta = theta_out
    return results


# -- validation helpers ------------------------------------------------


def flow_link_loads(model: FlowModel, weights: np.ndarray) -> np.ndarray:
    """(num_switches, m) link loads for per-class ``weights``.

    With integer-valued weights the accumulation is exact in float64,
    so the result is bit-identical to
    :meth:`RouteKernel.accumulate_link_loads` over the same flows.
    For a folded model, ``weights[i]`` applies to *every* class of
    orbit ``i``; the per-type totals (integer sums, exactly divisible
    by the type multiplicity) expand back to physical links, keeping
    the bit-identity with the unfolded oracle.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (model.num_classes,):
        raise ValueError(
            f"weights must be ({model.num_classes},), got {weights.shape}"
        )
    if model.folded:
        type_loads = np.bincount(
            model.flat_codes,
            weights=np.repeat(weights * model.class_mult, model.hops),
            minlength=model.num_links,
        )
        per_link = type_loads / model.link_mult
        return per_link[model.link_type_of_code].reshape(
            model.num_switches, model.m
        )
    loads = np.bincount(
        model.flat_codes,
        weights=np.repeat(weights, model.hops),
        minlength=model.num_switches * model.m,
    )
    return loads.reshape(model.num_switches, model.m)


def all_to_one_link_loads(model: FlowModel) -> np.ndarray:
    """(num_switches, m) link loads of every source sending one unit
    to the hot node — comparable bit-for-bit with
    :meth:`RouteKernel.link_loads_all_to_one` (requires a centric
    model, whose ``cnt_hotdst`` is exactly that flow multiset)."""
    if model.pattern != "centric":
        raise ValueError("all-to-one loads need a centric flow model")
    return flow_link_loads(model, model.cnt_hotdst)
