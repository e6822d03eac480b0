"""A16/A17 — flow-level scale throughput and hybrid-vs-packet agreement.

Two gates from DESIGN.md §11, updated for the §15 fast path:

* **Agreement.**  On every figure config it runs, hybrid mode must
  reproduce the packet-only saturation throughput within
  ``AGREEMENT_RTOL``.  Hybrid's packet-backed points are bit-identical
  to packet mode by construction, so any disagreement comes from
  below-knee points where the flow model's exact ``accepted = offered``
  replaces the simulator's (noisy) estimate — small by definition of
  the knee.  The default run checks the 4-port figures under both
  traffic patterns (CI's benchmark smoke run, ``pytest benchmarks -q
  --benchmark-disable``, includes it); ``REPRO_BENCH_FULL=1`` checks
  every paper figure.

* **Scale.**  Full fig-style sweeps through the flow-level evaluator,
  timed per phase (cold symmetry-folded compile, point evaluation,
  fixed-point iterations of the warm-started curve against per-load
  cold solves) and persisted to
  ``benchmarks/results/BENCH_scale.json``.  The full grid runs
  FT(32, 3) — 8192 nodes, 2 097 152 LIDs, far beyond the packet
  simulator — plus the first FT(64, 2) row; the quick grid stands in
  FT(16, 2) so CI exercises the same path in seconds.

The scale sweep uses per-port routing engines
(``routing_engines_per_switch=0``, the paper's switch model, as in
``test_engine_throughput.py``): with the default shared-engine pool
every FT(32, 3) curve saturates at the engine bound near offered 0.08
and the load grid would be flat.

Timing protocol: compile and evaluation are wall-clock on whatever
this host is; the headline comparison is against the recorded
*unfolded, serial* FT(32, 3) baseline of this same benchmark
(``BASELINE_FT32_TOTAL_S``, measured before symmetry folding landed),
same grid, same schemes, same config.  The compile phase builds each
folded model from scratch against an empty private model store, which
folded models never enter (DESIGN.md §15).
"""

from __future__ import annotations

import math
import os
import tempfile
import time

from repro.experiments import flowlevel
from repro.experiments.configs import FIGURES, get_experiment
from repro.experiments.report import render_table
from repro.experiments.sweep import run_figure, saturation_throughput
from repro.ib.config import SimConfig

from conftest import write_bench_report


FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Documented hybrid-vs-packet saturation tolerance.  Measured deltas
#: are far smaller (the saturating point is packet-backed and therefore
#: bit-identical on every config checked); the margin covers configs
#: whose saturation lands on a below-knee flow point, where the flow
#: model returns ``offered`` exactly while the simulator under-counts
#: by its measurement-window noise.
AGREEMENT_RTOL = 0.05

#: Both traffic patterns on the smallest fabric by default; every paper
#: figure under REPRO_BENCH_FULL=1.
AGREEMENT_FIGS = tuple(FIGURES) if FULL else ("fig12", "fig16")

#: Recorded total of this benchmark's FT(32, 3) full sweep *before*
#: the symmetry-folded fast path (unfolded compile + serial cold
#: solves) — the number the fast path is gated against.
BASELINE_FT32_TOTAL_S = 1520.43

#: FT(32, 3) is the paper-scale headline; FT(64, 2) is the widest
#: radix the LMC budget admits, first measured by this benchmark.
SCALE_CONFIGS = ("a16_scale_flow", "a17_scale_flow64") if FULL else ("fig14",)


def test_hybrid_matches_packet_saturation(save_result):
    rows = []
    for fig_id in AGREEMENT_FIGS:
        config = get_experiment(fig_id)
        packet = run_figure(config, quick=True)
        hybrid = run_figure(config, quick=True, mode="hybrid")
        assert set(packet.curves) == set(hybrid.curves)
        for key in sorted(packet.curves):
            scheme, vls = key
            p_sat = saturation_throughput(packet.curves[key])
            h_sat = saturation_throughput(hybrid.curves[key])
            rel = abs(h_sat - p_sat) / p_sat
            backends = [pt.backend for pt in hybrid.curves[key]]
            rows.append(
                {
                    "figure": fig_id,
                    "scheme": scheme,
                    "vls": vls,
                    "packet_sat": p_sat,
                    "hybrid_sat": h_sat,
                    "rel_delta": rel,
                    "flow_points": backends.count("flow"),
                    "packet_points": backends.count("packet"),
                }
            )
            assert rel <= AGREEMENT_RTOL, (
                f"{fig_id} {key}: hybrid saturation {h_sat:.4f} vs "
                f"packet {p_sat:.4f} ({rel:.1%} > {AGREEMENT_RTOL:.0%})"
            )
    text = render_table(
        rows,
        title=(
            f"hybrid vs packet saturation (quick grids, "
            f"tolerance {AGREEMENT_RTOL:.0%})"
        ),
    )
    save_result("scale_hybrid_agreement", text)


def _sweep_one_fabric(config, base_cfg, store):
    """Timed phases of one fabric's fig-style flow sweep."""
    loads = config.loads if FULL else config.quick_loads
    flowlevel.clear_flow_models()

    # -- cold: symmetry-folded compile from scratch ------------------
    compile_stats = {}
    t_fabric = time.perf_counter()
    for scheme in config.schemes:
        t0 = time.perf_counter()
        model = flowlevel.get_flow_model(
            config.m,
            config.n,
            scheme,
            config.pattern,
            config.hotspot_fraction,
            store=store,
        )
        compile_stats[scheme] = {
            "seconds": time.perf_counter() - t0,
            "folded": model.folded,
            "flow_classes": model.num_classes,
            "total_classes": model.total_classes,
            "route_codes": int(model.flat_codes.size),
            "knee_offered": round(
                flowlevel.KNEE_THRESHOLD
                / flowlevel.knee_utilization(model, base_cfg, 1.0),
                4,
            ),
        }
    compile_wall = time.perf_counter() - t_fabric

    # -- fixed-point iterations: warm curve vs per-load cold solves ---
    iteration_stats = {}
    solve_wall = 0.0
    for scheme in config.schemes:
        model = flowlevel.get_flow_model(
            config.m,
            config.n,
            scheme,
            config.pattern,
            config.hotspot_fraction,
            store=store,
        )
        cfg = base_cfg.with_vls(config.vl_counts[0])
        t0 = time.perf_counter()
        warm = flowlevel.evaluate_curve(model, cfg, loads)
        warm_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        cold = [flowlevel.evaluate_point(model, cfg, offered) for offered in loads]
        cold_s = time.perf_counter() - t0
        solve_wall += warm_s
        iteration_stats[scheme] = {
            "warm_iterations": sum(r["iterations"] for r in warm),
            "cold_iterations": sum(r["iterations"] for r in cold),
            "warm_solve_s": warm_s,
            "cold_solve_s": cold_s,
        }

    # -- the real sweep stack (compiled models, warm-started curves) --
    t0 = time.perf_counter()
    result = run_figure(config, quick=not FULL, base_cfg=base_cfg, mode="flow")
    eval_wall = time.perf_counter() - t0
    total_wall = time.perf_counter() - t_fabric

    curves = {}
    for (scheme, vls), points in sorted(result.curves.items()):
        assert [p.backend for p in points] == ["flow"] * len(loads)
        sat = saturation_throughput(points)
        assert sat > 0 and not math.isnan(sat)
        curves[f"{scheme}/vl{vls}"] = {
            "saturation": round(sat, 4),
            "low_load_latency_ns": round(points[0].latency_mean, 1),
            "accepted": [round(p.accepted, 4) for p in points],
        }

    num_points = len(result.curves) * len(loads)
    return {
        "nodes": config.num_nodes,
        "loads": list(loads),
        "compile": compile_stats,
        "iterations": iteration_stats,
        "wall_s": {
            "compile_cold": compile_wall,
            "evaluate": eval_wall,
            "total": total_wall,
        },
        "points": num_points,
        "points_per_s": num_points / eval_wall,
        "curves": curves,
    }


def test_scale_flow_sweep():
    """Headline: full fig-style sweeps through the flow evaluator,
    phase-timed per fabric.  Writes BENCH_scale.json."""
    base_cfg = SimConfig(routing_engines_per_switch=0)
    fabrics = {}
    with tempfile.TemporaryDirectory(prefix="repro-flow-bench-") as store:
        for cfg_id in SCALE_CONFIGS:
            config = get_experiment(cfg_id)
            fabrics[f"ft{config.m}x{config.n}"] = _sweep_one_fabric(
                config, base_cfg, store
            )
    flowlevel.clear_flow_models()

    sections = dict(fabrics=fabrics)
    if FULL:
        ft32_total = fabrics["ft32x3"]["wall_s"]["total"]
        sections["headline"] = {
            "baseline_ft32x3_total_s": BASELINE_FT32_TOTAL_S,
            "fastpath_ft32x3_total_s": ft32_total,
            "speedup": BASELINE_FT32_TOTAL_S / ft32_total,
        }
        # The tentpole gate: >= 5x over the recorded unfolded baseline.
        assert ft32_total * 5 <= BASELINE_FT32_TOTAL_S, (
            f"FT(32,3) sweep took {ft32_total:.1f}s; needs "
            f"<= {BASELINE_FT32_TOTAL_S / 5:.1f}s for the 5x gate"
        )

    path = write_bench_report(
        "BENCH_scale.json",
        "fig-style flow-level sweeps at scale (symmetry-folded fast path)",
        full=FULL,
        config={
            "mode": "flow",
            "fold": True,
            "configs": list(SCALE_CONFIGS),
            "routing_engines_per_switch": 0,
        },
        protocol={
            "phases": (
                "compile_cold = folded compile from scratch; "
                "evaluate = run_figure(mode='flow') over the compiled models; "
                "iterations compare the warm-started evaluate_curve with "
                "per-load cold evaluate_point solves on the same load grid"
            ),
            "baseline": (
                f"speedup is vs the recorded unfolded serial FT(32,3) "
                f"total of {BASELINE_FT32_TOTAL_S}s (same benchmark, "
                f"same grid, before symmetry folding)"
            ),
        },
        **sections,
    )
    for name, fab in fabrics.items():
        wall = fab["wall_s"]
        print(
            f"\n{name}: {fab['points']} points in {wall['total']:.2f}s "
            f"(compile {wall['compile_cold']:.2f}s, evaluate "
            f"{wall['evaluate']:.2f}s) -> {path}"
        )
