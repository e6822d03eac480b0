"""Declarative configs for every paper artifact and ablation.

Each :class:`ExperimentConfig` names one table or figure from the paper
(or an ablation from DESIGN.md §4) and carries everything needed to
regenerate it: topology, traffic, VL counts, load grid and simulation
windows.  Benchmarks and the CLI look experiments up by id.

Two load-grid presets exist per experiment: ``loads`` (the full grid a
faithful reproduction sweeps) and ``quick_loads`` (a 3-4 point subset
for CI-speed benchmark runs).  Windows scale likewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "TABLES",
    "ABLATIONS",
    "get_experiment",
    "all_experiments",
    "table1_rows",
]

#: Default load grid (bytes/ns/node offered), low load to past saturation.
_FULL_LOADS = [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.55, 0.7, 0.85, 1.0]
_QUICK_LOADS = [0.1, 0.3, 0.7]


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible experiment (a paper table/figure or an ablation)."""

    id: str
    title: str
    m: int
    n: int
    pattern: str  # "uniform" or "centric"
    schemes: Tuple[str, ...] = ("slid", "mlid")
    vl_counts: Tuple[int, ...] = (1, 2, 4)
    hotspot_fraction: float = 0.5
    loads: Tuple[float, ...] = tuple(_FULL_LOADS)
    quick_loads: Tuple[float, ...] = tuple(_QUICK_LOADS)
    warmup_ns: float = 30_000.0
    measure_ns: float = 120_000.0
    quick_warmup_ns: float = 15_000.0
    quick_measure_ns: float = 45_000.0
    seeds: Tuple[int, ...] = (1, 2)
    quick_seeds: Tuple[int, ...] = (1,)
    notes: str = ""

    @property
    def num_nodes(self) -> int:
        return 2 * (self.m // 2) ** self.n

    def describe(self) -> str:
        return (
            f"{self.id}: {self.title} — FT({self.m},{self.n}) "
            f"({self.num_nodes} nodes), {self.pattern} traffic, "
            f"VLs {list(self.vl_counts)}, schemes {list(self.schemes)}"
        )


def _figure(
    fid: str, m: int, n: int, pattern: str, notes: str = "", **kw
) -> ExperimentConfig:
    pat = "uniform" if pattern == "uniform" else "50% centric"
    return ExperimentConfig(
        id=fid,
        title=f"{pat} traffic, {m}-port {n}-tree, 256-byte packets",
        m=m,
        n=n,
        pattern=pattern,
        notes=notes,
        **kw,
    )


#: The paper's eight latency-vs-accepted-traffic figures.  The OCR of
#: the paper stripped the figure numbers and (m, n) digits; DESIGN.md §3
#: documents the reconstruction: four network sizes spanning "not
#: large" (4-, 8-port) to "large" (16-, 32-port) per Observation 1,
#: with an n=3 case for Remark 3, under both traffic patterns.
FIGURES: Dict[str, ExperimentConfig] = {
    cfg.id: cfg
    for cfg in [
        _figure("fig12", 4, 2, "uniform"),
        _figure("fig13", 8, 2, "uniform"),
        _figure("fig14", 16, 2, "uniform"),
        _figure(
            "fig15",
            8,
            3,
            "uniform",
            notes="higher-n case (Remark 3); 128 nodes",
            seeds=(1,),
            measure_ns=90_000.0,
        ),
        _figure("fig16", 4, 2, "centric"),
        _figure("fig17", 8, 2, "centric"),
        _figure("fig18", 16, 2, "centric"),
        _figure(
            "fig19",
            8,
            3,
            "centric",
            notes="higher-n case (Remark 3); 128 nodes",
            seeds=(1,),
            measure_ns=90_000.0,
        ),
    ]
}

#: Table 1: the simulated network sizes.
TABLES: Dict[str, ExperimentConfig] = {
    "table1": ExperimentConfig(
        id="table1",
        title="simulated m-port n-tree network sizes",
        m=0,  # spans several (m, n); see table1_rows
        n=0,
        pattern="uniform",
        notes="static topology/addressing table; no simulation",
    )
}


def table1_rows() -> List[dict]:
    """Table 1's rows, one per simulated FT(m, n) in the paper's order,
    each validated structurally, with its size and MLID addressing."""
    from repro.core.addressing import MlidAddressing
    from repro.topology.fattree import FatTree
    from repro.topology.validate import validate_fattree

    rows = []
    for m, n in [(4, 2), (8, 2), (16, 2), (32, 2), (4, 3), (8, 3)]:
        ft = FatTree(m, n)
        validate_fattree(ft)
        addr = MlidAddressing(m, n)
        rows.append(
            {
                "m-port": m,
                "n-tree": n,
                "nodes": ft.num_nodes,
                "switches": ft.num_switches,
                "LMC": addr.lmc,
                "LIDs/node": addr.lids_per_node,
                "total LIDs": addr.num_lids,
            }
        )
    return rows


#: Ablations (DESIGN.md §4, ids A1-A4).
ABLATIONS: Dict[str, ExperimentConfig] = {
    "a1_path_distribution": ExperimentConfig(
        id="a1_path_distribution",
        title="static LCA/link-load spreading, MLID vs SLID",
        m=8,
        n=2,
        pattern="centric",
        notes="static trace analysis; no simulation",
    ),
    "a2_virtual_lanes": ExperimentConfig(
        id="a2_virtual_lanes",
        title="VL-count sensitivity under centric traffic",
        m=8,
        n=2,
        pattern="centric",
        vl_counts=(1, 2, 4, 8),
        loads=(0.6,),
        quick_loads=(0.6,),
    ),
    "a3_tree_depth": ExperimentConfig(
        id="a3_tree_depth",
        title="MLID gain vs tree depth n (Remark 3)",
        m=4,
        n=0,  # sweeps n; see the bench
        pattern="uniform",
        loads=(0.8,),
        quick_loads=(0.8,),
    ),
    "a4_model_knobs": ExperimentConfig(
        id="a4_model_knobs",
        title="sensitivity to injection queueing and routing-engine pool",
        m=8,
        n=2,
        pattern="centric",
        vl_counts=(1,),
        loads=(0.6,),
        quick_loads=(0.6,),
        notes="shows which reconstruction choices the shapes depend on",
    ),
    "a7_analytical": ExperimentConfig(
        id="a7_analytical",
        title="closed-form bounds vs simulation",
        m=0, n=0, pattern="uniform",
        notes="see benchmarks/test_analytical_validation.py",
    ),
    "a8_vl_qos": ExperimentConfig(
        id="a8_vl_qos",
        title="IBA weighted VL arbitration QoS",
        m=8, n=2, pattern="centric",
        notes="see benchmarks/test_ablation_vl_qos.py",
    ),
    "a9_fault_tolerance": ExperimentConfig(
        id="a9_fault_tolerance",
        title="random link failures + SM table repair",
        m=8, n=2, pattern="uniform",
        notes="see benchmarks/test_ablation_fault_tolerance.py",
    ),
    "a10_scale_32port": ExperimentConfig(
        id="a10_scale_32port",
        title="512-node 32-port 2-tree scale test",
        m=32, n=2, pattern="uniform",
        notes="see benchmarks/test_ablation_scale_32port.py",
    ),
    "a11_collectives": ExperimentConfig(
        id="a11_collectives",
        title="collective-communication workloads",
        m=8, n=2, pattern="uniform",
        notes="see benchmarks/test_ablation_collectives.py",
    ),
    "a12_hot_fraction": ExperimentConfig(
        id="a12_hot_fraction",
        title="centric fraction sweep",
        m=8, n=2, pattern="centric",
        notes="see benchmarks/test_ablation_hot_fraction.py",
    ),
    "a13_message_size": ExperimentConfig(
        id="a13_message_size",
        title="message size and buffer depth",
        m=8, n=2, pattern="uniform",
        notes="see benchmarks/test_ablation_message_size.py",
    ),
    "a14_statistics": ExperimentConfig(
        id="a14_statistics",
        title="seed robustness of the headline points",
        m=8, n=2, pattern="centric",
        notes="see benchmarks/test_statistical_robustness.py",
    ),
    "a15_updown_baseline": ExperimentConfig(
        id="a15_updown_baseline",
        title="generic up*/down* vs the fat-tree-aware schemes",
        m=8, n=2, pattern="uniform",
        notes="see benchmarks/test_ablation_updown_baseline.py",
    ),
    "a16_scale_flow": ExperimentConfig(
        id="a16_scale_flow",
        title="FT(32,3) fig-style sweep via the flow-level evaluator",
        m=32,
        n=3,
        pattern="uniform",
        vl_counts=(1,),
        seeds=(1,),
        quick_seeds=(1,),
        notes=(
            "8192 nodes / 2 097 152 LIDs — packet simulation is "
            "infeasible; run with mode='flow' or 'hybrid' "
            "(benchmarks/test_scale_throughput.py)"
        ),
    ),
    "a17_scale_flow64": ExperimentConfig(
        id="a17_scale_flow64",
        title="FT(64,2) fig-style sweep via the flow-level evaluator",
        m=64,
        n=2,
        pattern="uniform",
        vl_counts=(1,),
        seeds=(1,),
        quick_seeds=(1,),
        notes=(
            "2048 nodes on a two-level tree — the widest-radix "
            "fabric the LMC budget admits; flow-level only "
            "(benchmarks/test_scale_throughput.py)"
        ),
    ),
}


def all_experiments() -> Dict[str, ExperimentConfig]:
    """Every experiment, keyed by id."""
    out: Dict[str, ExperimentConfig] = {}
    out.update(TABLES)
    out.update(FIGURES)
    out.update(ABLATIONS)
    return out


def get_experiment(exp_id: str) -> ExperimentConfig:
    """Look an experiment up by id (e.g. ``"fig13"``)."""
    experiments = all_experiments()
    try:
        return experiments[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(experiments)}"
        ) from None
