"""Experiment harness: the paper's evaluation, reproducible.

* :mod:`repro.experiments.configs` — one declarative config per paper
  table/figure (and per ablation), matching DESIGN.md's index;
* :mod:`repro.experiments.runner` — the point-level pieces: one
  packet point (``run_point``), a curve's specs, flow plan and
  seed aggregation;
* :mod:`repro.experiments.parallel` — fans independent packet sweep
  points out over a process pool with order-preserving, bit-identical
  assembly (``jobs=N`` on ``run_sweep``/``run_figure``);
* :mod:`repro.experiments.flowlevel` — vectorized flow-level evaluator
  (link-load fixed point over compiled routes) powering the "flow" and
  "hybrid" sweep modes at FT(32, 3)+ scale: one in-process compile
  with exact symmetry folding (:mod:`repro.experiments.folding`) and
  one curve solver, warm-started along the load grid;
* :mod:`repro.experiments.modelstore` — persistent memory-mapped cache
  of compiled flow models (``repro-ibft flow-cache`` inspects it);
* :mod:`repro.experiments.sweep` — the one sweep pipeline:
  ``run_figure`` (all schemes × VL counts) and its one-curve form
  ``run_sweep``, with saturation detection;
* :mod:`repro.experiments.report` — renders results as aligned text
  tables and CSV, the way the benchmarks print them.
"""

from repro.experiments.configs import (
    ExperimentConfig,
    FIGURES,
    TABLES,
    ABLATIONS,
    get_experiment,
    all_experiments,
)
from repro.experiments.failover import FAILOVER_COLUMNS, run_failover
from repro.experiments.flowlevel import (
    FlowModel,
    build_flow_model,
    clear_flow_models,
    evaluate_curve,
    evaluate_point,
    get_flow_model,
    knee_utilization,
    select_backends,
)
from repro.experiments.parallel import PointSpec, execute_points
from repro.experiments.runner import SWEEP_MODES, SweepPoint, run_point
from repro.experiments.sweep import (
    FigureResult,
    run_figure,
    run_sweep,
    saturation_throughput,
)
from repro.experiments.report import render_table, to_csv, render_figure_result

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "TABLES",
    "ABLATIONS",
    "get_experiment",
    "all_experiments",
    "PointSpec",
    "execute_points",
    "SweepPoint",
    "SWEEP_MODES",
    "run_point",
    "run_sweep",
    "FlowModel",
    "build_flow_model",
    "clear_flow_models",
    "evaluate_curve",
    "evaluate_point",
    "get_flow_model",
    "knee_utilization",
    "select_backends",
    "FAILOVER_COLUMNS",
    "run_failover",
    "FigureResult",
    "run_figure",
    "saturation_throughput",
    "render_table",
    "to_csv",
    "render_figure_result",
]
