"""Sweep-executor throughput: serial vs artifact-cached vs parallel.

Measures points/sec for one quick-grid ``run_figure`` (fig13, the
8-port 2-tree headline figure; ``REPRO_BENCH_FULL=1`` selects its full
grid) under three execution modes:

* ``serial fresh`` — the historical behavior: every point rebuilds
  FatTree + scheme + LFTs (``build_subnet`` without artifacts), the
  reference the cache is checked against.  It shares ``run_point``'s
  point lifetime (``measure_point``: collector paused, subnet closed),
  so the speedup column credits the cache alone;
* ``serial cached`` — ``run_figure(jobs=1)``: the per-process
  routing-artifact cache;
* ``parallel cached`` — ``jobs=min(4, cpus)``: process-pool fan-out on
  top of per-worker caches.

All three modes must produce bit-identical curves — that determinism
guarantee is asserted here on every run, so this benchmark doubles as
an integration test of the executor.  The speedup column is relative
to ``serial fresh``; on a multi-core host the parallel row is the
headline number, on a single core it degrades to pool overhead and
only the cache row shows a gain.
"""

from __future__ import annotations

import os
import time
from functools import partial
from multiprocessing import cpu_count

from repro.experiments.configs import get_experiment
from repro.experiments.report import render_table
from repro.experiments.runner import aggregate_sweep, measure_point, sweep_specs
from repro.experiments.sweep import run_figure
from repro.ib.artifacts import artifact_cache_info, clear_artifact_cache
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet

EXP_ID = "fig13"


def fresh_figure(config, quick):
    """``run_figure(config, quick=quick, jobs=1).curves`` with every
    point built from scratch instead of from cached artifacts."""
    loads = config.quick_loads if quick else config.loads
    warmup = config.quick_warmup_ns if quick else config.warmup_ns
    measure = config.quick_measure_ns if quick else config.measure_ns
    seeds = config.quick_seeds if quick else config.seeds
    curves = {}
    for vls in config.vl_counts:
        cfg = SimConfig().with_vls(vls)
        for scheme in config.schemes:
            results = []
            for spec in sweep_specs(
                config.m, config.n, scheme, config.pattern, loads, cfg=cfg,
                hotspot_fraction=config.hotspot_fraction, warmup_ns=warmup,
                measure_ns=measure, seeds=seeds,
            ):
                results.append(
                    measure_point(
                        partial(
                            build_subnet, spec.m, spec.n, spec.scheme, spec.cfg,
                            seed=spec.seed,
                        ),
                        spec.pattern,
                        spec.offered,
                        hotspot_fraction=spec.hotspot_fraction,
                        warmup_ns=spec.warmup_ns,
                        measure_ns=spec.measure_ns,
                    )
                )
            curves[(scheme, vls)] = aggregate_sweep(scheme, cfg, loads, seeds, results)
    return curves


def measure():
    config = get_experiment(EXP_ID)
    quick = os.environ.get("REPRO_BENCH_FULL", "0") != "1"
    loads = config.quick_loads if quick else config.loads
    seeds = config.quick_seeds if quick else config.seeds
    num_points = (
        len(config.vl_counts) * len(config.schemes) * len(loads) * len(seeds)
    )
    jobs = min(4, cpu_count())
    modes = [
        ("serial fresh", lambda: fresh_figure(config, quick)),
        ("serial cached", lambda: run_figure(config, quick=quick, jobs=1).curves),
        (
            f"parallel x{jobs} cached",
            lambda: run_figure(config, quick=quick, jobs=jobs).curves,
        ),
    ]
    rows = []
    curves = {}
    cache_info = {}
    for name, run in modes:
        clear_artifact_cache()
        t0 = time.perf_counter()
        curves[name] = run()
        elapsed = time.perf_counter() - t0
        if name == "serial fresh":
            assert artifact_cache_info()["misses"] == 0, "fresh row used the cache"
        if name == "serial cached":
            # Parallel mode fills per-worker caches, invisible here.
            cache_info = artifact_cache_info()
        rows.append(
            {
                "mode": name,
                "points": num_points,
                "seconds": elapsed,
                "points/sec": num_points / elapsed,
            }
        )
    baseline = rows[0]["seconds"]
    for row in rows:
        row["speedup"] = baseline / row["seconds"]
    # Determinism guarantee: every mode reproduces the same curves.
    reference = curves[modes[0][0]]
    for name, _ in modes[1:]:
        assert curves[name] == reference, f"{name} diverged from serial fresh"
    return rows, cache_info, num_points


def test_sweep_throughput(benchmark, save_timing):
    rows, cache_info, num_points = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    text = render_table(
        rows,
        title=(
            f"sweep executor throughput — {EXP_ID}, {num_points} points "
            f"({cpu_count()} cpus; parent cache after serial-cached run: "
            f"{cache_info['hits']} hits / {cache_info['misses']} misses)"
        ),
    )
    save_timing("sweep_throughput", text)
    # The cache must never hurt: allow timing noise but catch pathology.
    serial, cached = rows[0], rows[1]
    assert cached["seconds"] < serial["seconds"] * 1.25
    # One artifact build per (scheme, VL) curve, the rest cache hits.
    config = get_experiment(EXP_ID)
    assert cache_info["misses"] == len(config.schemes) * len(config.vl_counts)
