"""The sweep pipeline: every latency-vs-accepted-traffic curve.

A paper figure is a family of latency-vs-accepted-traffic curves: one
per (scheme, VL count).  :func:`run_figure` produces them all for one
:class:`~repro.experiments.configs.ExperimentConfig`: it plans each
curve's flow points, dispatches every packet point in one
:func:`~repro.experiments.parallel.execute_points` call and splices
both back in grid order.  :func:`run_sweep` is its one-curve form (one
scheme, one VL count) and has no planning or dispatch of its own.
:func:`saturation_throughput` extracts the scalar the paper's
observations compare ("the throughput of the MLID scheme is higher…").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.configs import ExperimentConfig
from repro.experiments.parallel import execute_points
from repro.experiments.runner import (
    SWEEP_MODES,
    SweepPoint,
    aggregate_sweep,
    plan_flow_curve,
    sweep_specs,
)
from repro.ib.config import SimConfig

__all__ = ["FigureResult", "run_figure", "run_sweep", "saturation_throughput"]

#: Curve key: (scheme name, VL count).
CurveKey = Tuple[str, int]


@dataclass
class FigureResult:
    """All curves of one figure."""

    config: ExperimentConfig
    curves: Dict[CurveKey, List[SweepPoint]] = field(default_factory=dict)

    def saturation(self, scheme: str, vls: int) -> float:
        """Max accepted traffic along one curve (bytes/ns/node)."""
        return saturation_throughput(self.curves[(scheme, vls)])

    def summary_rows(self) -> List[dict]:
        """One row per curve: its saturation throughput and the latency
        at the lowest load (the 'zero-load' latency).

        Empty curves yield NaN entries instead of raising — one failed
        curve must not poison the whole figure report.
        """
        rows = []
        for (scheme, vls), points in sorted(self.curves.items()):
            rows.append(
                {
                    "scheme": scheme,
                    "vls": vls,
                    "saturation": saturation_throughput(points),
                    "low_load_latency": points[0].latency_mean
                    if points
                    else math.nan,
                }
            )
        return rows


def saturation_throughput(points: List[SweepPoint]) -> float:
    """The throughput the paper reads off a curve: max accepted traffic.

    An empty curve degrades to NaN (it used to raise ``ValueError``,
    which poisoned every report touching the figure).
    """
    if not points:
        return math.nan
    return max(p.accepted for p in points)


def run_figure(
    config: ExperimentConfig,
    *,
    quick: bool = False,
    base_cfg: SimConfig | None = None,
    jobs: Optional[int] = 1,
    mode: str = "packet",
) -> FigureResult:
    """Run every (scheme, VL) curve of one figure config.

    ``quick`` selects the reduced load grid / windows / seed set for
    benchmark-speed runs; the full grid reproduces the paper curves.
    ``base_cfg`` overrides simulation constants (VL count is set per
    curve on top of it).

    ``jobs`` parallelizes across *all* of the figure's packet-simulated
    points (every curve × load × seed) in one process-pool dispatch, so
    even a figure with more curves than loads keeps every worker busy;
    ``jobs=1`` runs the historical serial loop.  Results are
    bit-identical for any ``jobs``.

    ``mode`` selects the engine per point: "packet" (default), "flow"
    (the vectorized flow-level evaluator everywhere — FT(32, 3)-scale
    figures in under a second), or "hybrid" (flow-level below
    :data:`~repro.experiments.flowlevel.KNEE_THRESHOLD` peak
    utilization, packet simulation at and past the knee).  Each
    :class:`SweepPoint` carries the backend that produced it, and
    hybrid packet points are bit-identical to ``mode="packet"``.  Flow
    points are solved while each curve is planned (folded model,
    warm-started fixed points), so ``jobs`` fans out packet points only.

    Raises ``ValueError`` on an unknown mode, an empty load grid, or a
    seed set that is empty or repeats a seed (a repeat would count one
    replica twice).
    """
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}; expected {SWEEP_MODES}")
    base_cfg = base_cfg or SimConfig()
    loads = config.quick_loads if quick else config.loads
    warmup = config.quick_warmup_ns if quick else config.warmup_ns
    measure = config.quick_measure_ns if quick else config.measure_ns
    seeds = config.quick_seeds if quick else config.seeds
    if not loads:
        raise ValueError("need at least one load point")
    if not seeds:
        raise ValueError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seeds {list(seeds)}; each seed is one replica")
    # One flat spec list covering every curve's *packet* points, in
    # curve-major order; flow points are evaluated during planning.
    curve_cfgs: List[Tuple[CurveKey, SimConfig]] = []
    curve_plans: List[Tuple[List[str], dict, int]] = []
    specs = []
    for vls in config.vl_counts:
        cfg = base_cfg.with_vls(vls)
        for scheme in config.schemes:
            curve_cfgs.append(((scheme, vls), cfg))
            if mode == "packet":
                backends = ["packet"] * len(loads)
                flow_results: dict = {}
            else:
                backends, flow_results = plan_flow_curve(
                    config.m,
                    config.n,
                    scheme,
                    config.pattern,
                    loads,
                    cfg,
                    hotspot_fraction=config.hotspot_fraction,
                    mode=mode,
                    measure_ns=measure,
                )
            curve_plans.append((backends, flow_results, len(specs)))
            packet_loads = [
                offered
                for offered, backend in zip(loads, backends)
                if backend == "packet"
            ]
            if packet_loads:
                specs.extend(
                    sweep_specs(
                        config.m,
                        config.n,
                        scheme,
                        config.pattern,
                        packet_loads,
                        cfg=cfg,
                        hotspot_fraction=config.hotspot_fraction,
                        warmup_ns=warmup,
                        measure_ns=measure,
                        seeds=seeds,
                    )
                )
    results = execute_points(specs, jobs=jobs)
    result = FigureResult(config=config)
    for ((scheme, vls), cfg), (backends, flow_results, start) in zip(
        curve_cfgs, curve_plans
    ):
        chunk: List[dict] = []
        taken = start
        for i in range(len(loads)):
            if i in flow_results:
                chunk.extend([flow_results[i]] * len(seeds))
            else:
                chunk.extend(results[taken : taken + len(seeds)])
                taken += len(seeds)
        result.curves[(scheme, vls)] = aggregate_sweep(
            scheme, cfg, loads, seeds, chunk, backends=backends
        )
    return result


def run_sweep(
    m: int,
    n: int,
    scheme: str,
    pattern: str,
    loads: Sequence[float],
    *,
    cfg: Optional[SimConfig] = None,
    hotspot_fraction: float = 0.5,
    warmup_ns: float = 30_000.0,
    measure_ns: float = 120_000.0,
    seeds: Sequence[int] = (1,),
    jobs: Optional[int] = 1,
    mode: str = "packet",
) -> List[SweepPoint]:
    """Sweep offered loads for one (scheme, VL count), averaging seeds.

    The one-curve :func:`run_figure`: same ``jobs`` and ``mode``
    semantics, same validation, same points.
    """
    cfg = cfg or SimConfig()
    config = ExperimentConfig(
        id="sweep",
        title=f"{scheme} sweep",
        m=m,
        n=n,
        pattern=pattern,
        schemes=(scheme,),
        vl_counts=(cfg.num_vls,),
        hotspot_fraction=hotspot_fraction,
        loads=tuple(loads),
        warmup_ns=warmup_ns,
        measure_ns=measure_ns,
        seeds=tuple(seeds),
    )
    figure = run_figure(config, base_cfg=cfg, jobs=jobs, mode=mode)
    return figure.curves[(scheme, cfg.num_vls)]
