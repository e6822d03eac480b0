"""Point-level pieces of the sweep pipeline.

``run_point`` builds a subnet, attaches the traffic pattern, measures
one offered-load point and closes the subnet (``measure_point`` holds
that lifetime).  Every run uses a fresh simulator
(engine, switches, endnodes, RNG streams) so points are statistically
independent (the paper's methodology: one simulation run per generation
rate); the seed-independent routing artifacts (FatTree, scheme tables,
LFTs) are reused through the per-process cache of
:mod:`repro.ib.artifacts`, and the offered traffic of points that share
a traffic key through the tapes
:func:`~repro.experiments.parallel.execute_points` passes in.  A cached
point is bit-identical to one built from scratch (``build_subnet``
without ``artifacts`` or ``traffic``), which
``tests/ib/test_artifacts.py`` checks.

``sweep_specs`` lists a curve's packet points in grid order,
``plan_flow_curve`` picks each load's backend and solves the flow
points, and ``aggregate_sweep`` folds per-seed results into
``SweepPoint``s.  :func:`repro.experiments.sweep.run_figure` strings
them together for every curve of a figure, and ``run_sweep`` there is
its one-curve form.  Aggregation happens in the parent process, in grid
order, so ``jobs=N`` output is bit-for-bit identical to ``jobs=1``.
"""

from __future__ import annotations

import gc
import math
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

from repro.experiments import flowlevel
from repro.experiments.parallel import PointSpec
from repro.ib.artifacts import get_artifacts
from repro.ib.config import SimConfig
from repro.ib.endnode import TrafficTapes
from repro.ib.subnet import Subnet, build_subnet
from repro.traffic.patterns import make_pattern

__all__ = [
    "SweepPoint",
    "run_point",
    "measure_point",
    "sweep_specs",
    "aggregate_sweep",
    "plan_flow_curve",
    "SWEEP_MODES",
]

#: Valid ``mode`` arguments of ``run_figure`` / ``run_sweep``.
SWEEP_MODES = ("packet", "flow", "hybrid")


@dataclass(frozen=True)
class SweepPoint:
    """One (offered load) measurement, averaged over seeds."""

    scheme: str
    num_vls: int
    offered: float
    accepted: float
    latency_mean: float
    latency_p99: float
    latency_total_mean: float
    packets: int
    replicas: int
    #: which engine produced the point: "packet" or "flow".
    backend: str = "packet"

    def as_row(self) -> dict:
        return {
            "scheme": self.scheme,
            "vls": self.num_vls,
            "offered": self.offered,
            "accepted": self.accepted,
            "latency_mean": self.latency_mean,
            "latency_p99": self.latency_p99,
            "latency_total_mean": self.latency_total_mean,
            "packets": self.packets,
            "replicas": self.replicas,
            "backend": self.backend,
        }


@lru_cache(maxsize=64)
def _build_pattern(pattern: str, num_nodes: int, hotspot_fraction: float):
    """Per-process memoized pattern construction.

    Patterns are immutable after ``__init__`` (choosers draw from the
    caller's RNG), so sharing one instance across the sweep hot loop is
    safe and skips the O(N) permutation/derangement setup per point.
    """
    if pattern == "centric":
        return make_pattern(
            "centric", num_nodes, hot_pid=0, fraction=hotspot_fraction
        )
    return make_pattern(pattern, num_nodes)


def run_point(
    m: int,
    n: int,
    scheme: str,
    pattern: str,
    offered: float,
    *,
    cfg: Optional[SimConfig] = None,
    hotspot_fraction: float = 0.5,
    warmup_ns: float = 30_000.0,
    measure_ns: float = 120_000.0,
    seed: int = 1,
    traffic: Optional[TrafficTapes] = None,
) -> dict:
    """Measure one offered-load point on a fresh simulator.

    The seed-independent routing artifacts come from
    :func:`repro.ib.artifacts.get_artifacts`; the engine, switches and
    endnodes are built fresh, and closed once the point is measured
    (:func:`measure_point`).  The RNG streams are fresh too, unless
    ``traffic`` hands in the tapes of points with this point's traffic
    key (``build_subnet(traffic=...)``).
    """
    cfg = cfg or SimConfig()
    artifacts = get_artifacts(m, n, scheme)
    return measure_point(
        lambda: build_subnet(
            m, n, scheme, cfg, seed=seed, artifacts=artifacts, traffic=traffic
        ),
        pattern,
        offered,
        hotspot_fraction=hotspot_fraction,
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
    )


def measure_point(
    build: Callable[[], Subnet],
    pattern: str,
    offered: float,
    *,
    hotspot_fraction: float = 0.5,
    warmup_ns: float = 30_000.0,
    measure_ns: float = 120_000.0,
) -> dict:
    """One point's whole lifetime: build a subnet with ``build()``,
    drive it with ``pattern`` at ``offered``, measure, and close it.

    :meth:`Subnet.close` breaks the subnet's reference cycles, so
    refcounting frees the point and the cyclic garbage collector has
    nothing to find; it is paused for the point's lifetime, build
    included, and the caller's collector state (on or off) comes back
    even when the point raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with closing(build()) as net:
            net.attach_pattern(
                _build_pattern(pattern, net.num_nodes, hotspot_fraction)
            )
            return net.run_measurement(offered, warmup_ns, measure_ns)
    finally:
        if collecting:
            gc.enable()


def sweep_specs(
    m: int,
    n: int,
    scheme: str,
    pattern: str,
    loads: Sequence[float],
    *,
    cfg: SimConfig,
    hotspot_fraction: float = 0.5,
    warmup_ns: float = 30_000.0,
    measure_ns: float = 120_000.0,
    seeds: Sequence[int] = (1,),
) -> List[PointSpec]:
    """The sweep's work items, load-major / seed-minor (grid order)."""
    return [
        PointSpec(
            m=m,
            n=n,
            scheme=scheme,
            pattern=pattern,
            offered=offered,
            cfg=cfg,
            hotspot_fraction=hotspot_fraction,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            seed=seed,
        )
        for offered in loads
        for seed in seeds
    ]


def aggregate_sweep(
    scheme: str,
    cfg: SimConfig,
    loads: Sequence[float],
    seeds: Sequence[int],
    results: Sequence[dict],
    backends: Optional[Sequence[str]] = None,
) -> List[SweepPoint]:
    """Fold per-point measurements (grid order) into ``SweepPoint``s.

    Latency means are packet-count-weighted across replicas; the p99 is
    the max across replicas (conservative).  The accumulation order is
    exactly the historical serial loop's, so parallel and serial sweeps
    aggregate identically.  ``backends`` optionally tags each load's
    point with the engine that produced it ("packet" when omitted).
    """
    if len(results) != len(loads) * len(seeds):
        raise ValueError(
            f"expected {len(loads) * len(seeds)} results, got {len(results)}"
        )
    if backends is not None and len(backends) != len(loads):
        raise ValueError(
            f"expected {len(loads)} backend tags, got {len(backends)}"
        )
    k = len(seeds)
    points: List[SweepPoint] = []
    for i, offered in enumerate(loads):
        acc = 0.0
        lat_num = lat_tot_num = 0.0
        p99 = -math.inf
        packets = 0
        for res in results[i * k : (i + 1) * k]:
            acc += res["accepted"]
            got = res["packets"]
            if got and not math.isnan(res["latency_mean"]):
                lat_num += res["latency_mean"] * got
                lat_tot_num += res["latency_total_mean"] * got
                packets += got
            if not math.isnan(res["latency_p99"]):
                p99 = max(p99, res["latency_p99"])
        points.append(
            SweepPoint(
                scheme=scheme,
                num_vls=cfg.num_vls,
                offered=offered,
                accepted=acc / k,
                latency_mean=lat_num / packets if packets else math.nan,
                latency_p99=p99 if p99 > -math.inf else math.nan,
                latency_total_mean=lat_tot_num / packets if packets else math.nan,
                packets=packets,
                replicas=k,
                backend=backends[i] if backends is not None else "packet",
            )
        )
    return points


def plan_flow_curve(
    m: int,
    n: int,
    scheme: str,
    pattern: str,
    loads: Sequence[float],
    cfg: SimConfig,
    *,
    hotspot_fraction: float = 0.5,
    mode: str = "hybrid",
    measure_ns: float = 120_000.0,
) -> tuple:
    """Plan one curve's backends and evaluate its flow-level points.

    Returns ``(backends, flow_results)``: the per-load backend tags and
    a dict mapping load index -> flow-level measurement (only for
    loads tagged "flow").  Flow points are evaluated here, at planning
    time — they cost a few bincounts, so nothing is gained by shipping
    them to the process pool alongside the packet points.  The model
    is the symmetry-folded one where the scheme allows it, and the
    curve's fixed points are warm-started along the load grid
    (:func:`repro.experiments.flowlevel.evaluate_curve`).
    """
    if not isinstance(scheme, str):
        raise ValueError(
            f"flow/hybrid sweeps need a scheme name, got {scheme!r}"
        )
    model = flowlevel.get_flow_model(m, n, scheme, pattern, hotspot_fraction)
    backends = flowlevel.select_backends(model, cfg, loads, mode)
    flow_idx = [i for i, backend in enumerate(backends) if backend == "flow"]
    flow_loads = [loads[i] for i in flow_idx]
    curve = flowlevel.evaluate_curve(model, cfg, flow_loads, measure_ns=measure_ns)
    flow_results = dict(zip(flow_idx, curve))
    return backends, flow_results
