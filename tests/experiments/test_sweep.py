"""Tests for full-figure orchestration (tiny synthetic config)."""

import math

import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.flowlevel import evaluate_curve, get_flow_model
from repro.experiments.runner import aggregate_sweep, run_point
from repro.experiments.sweep import FigureResult, run_figure
from repro.ib.config import SimConfig

TINY = ExperimentConfig(
    id="tiny",
    title="tiny synthetic figure",
    m=4,
    n=2,
    pattern="uniform",
    vl_counts=(1, 2),
    loads=(0.05, 0.2),
    quick_loads=(0.1,),
    warmup_ns=2_000.0,
    measure_ns=15_000.0,
    quick_warmup_ns=1_000.0,
    quick_measure_ns=8_000.0,
    seeds=(1,),
    quick_seeds=(1,),
)


def _curve_point_by_point(config, scheme, vls, backends):
    """One quick-grid curve of ``config`` built without the pipeline:
    every packet cell from its own ``run_point``, the flow cells from
    one ``evaluate_curve`` over the curve's flow loads, folded by
    ``aggregate_sweep``."""
    cfg = SimConfig().with_vls(vls)
    loads, seeds = config.quick_loads, config.quick_seeds
    flow_loads = [off for off, b in zip(loads, backends) if b == "flow"]
    model = get_flow_model(config.m, config.n, scheme, config.pattern)
    flow = iter(
        evaluate_curve(model, cfg, flow_loads, measure_ns=config.quick_measure_ns)
    )
    results = []
    for offered, backend in zip(loads, backends):
        if backend == "flow":
            results.extend([next(flow)] * len(seeds))
            continue
        for seed in seeds:
            results.append(
                run_point(
                    config.m,
                    config.n,
                    scheme,
                    config.pattern,
                    offered,
                    cfg=cfg,
                    warmup_ns=config.quick_warmup_ns,
                    measure_ns=config.quick_measure_ns,
                    seed=seed,
                )
            )
    return aggregate_sweep(scheme, cfg, loads, seeds, results, backends=backends)


@pytest.fixture(scope="module")
def result():
    return run_figure(TINY)


def test_all_curves_present(result):
    assert set(result.curves) == {
        ("slid", 1), ("slid", 2), ("mlid", 1), ("mlid", 2)
    }


def test_curves_follow_load_grid(result):
    for points in result.curves.values():
        assert [p.offered for p in points] == [0.05, 0.2]


def test_vl_count_propagated(result):
    for (scheme, vls), points in result.curves.items():
        assert all(p.num_vls == vls for p in points)


def test_saturation_accessor(result):
    sat = result.saturation("mlid", 1)
    assert sat == max(p.accepted for p in result.curves[("mlid", 1)])


def test_summary_rows_one_per_curve(result):
    rows = result.summary_rows()
    assert len(rows) == 4
    for row in rows:
        assert row["saturation"] > 0


def test_quick_mode_uses_quick_grid():
    quick = run_figure(TINY, quick=True)
    for points in quick.curves.values():
        assert [p.offered for p in points] == [0.1]


def test_base_cfg_override():
    cfg = SimConfig(packet_bytes=128)
    res = run_figure(TINY, quick=True, base_cfg=cfg)
    assert res.curves[("mlid", 1)][0].packets > 0


def test_chunk_slicing_with_mismatched_loads_and_seeds():
    """Per-curve result slicing must stay aligned when len(loads) !=
    len(seeds): every curve is bit-identical to its points run one by
    one."""
    config = ExperimentConfig(
        id="tiny-3x2",
        title="3 loads x 2 seeds",
        m=4,
        n=2,
        pattern="uniform",
        vl_counts=(1, 2),
        quick_loads=(0.05, 0.1, 0.2),
        quick_seeds=(1, 2),
        quick_warmup_ns=1_000.0,
        quick_measure_ns=8_000.0,
    )
    res = run_figure(config, quick=True)
    assert len(res.curves) == 4
    for (scheme, vls), points in res.curves.items():
        assert [p.offered for p in points] == [0.05, 0.1, 0.2]
        assert all(p.replicas == 2 for p in points)
        expected = _curve_point_by_point(config, scheme, vls, ["packet"] * 3)
        assert points == expected


def test_hybrid_figure_reassembles_mixed_backends():
    """Hybrid curves interleave flow and packet results per load; the
    packet slices must land on the right (curve, load, seed) cells."""
    config = ExperimentConfig(
        id="tiny-hybrid",
        title="hybrid split figure",
        m=4,
        n=2,
        pattern="uniform",
        vl_counts=(1,),
        quick_loads=(0.05, 5.0),
        quick_seeds=(1, 2),
        quick_warmup_ns=1_000.0,
        quick_measure_ns=8_000.0,
    )
    res = run_figure(config, quick=True, mode="hybrid")
    for (scheme, vls), points in res.curves.items():
        assert [p.backend for p in points] == ["flow", "packet"]
        expected = _curve_point_by_point(config, scheme, vls, ["flow", "packet"])
        assert points == expected


def test_unknown_figure_mode_rejected():
    with pytest.raises(ValueError, match="unknown sweep mode"):
        run_figure(TINY, quick=True, mode="nope")


def test_summary_rows_empty_curve_degrades_to_nan(result):
    partial = FigureResult(config=TINY, curves=dict(result.curves))
    partial.curves[("updn", 1)] = []
    rows = partial.summary_rows()
    empty = [r for r in rows if r["scheme"] == "updn"]
    assert len(empty) == 1
    assert math.isnan(empty[0]["saturation"])
    assert math.isnan(empty[0]["low_load_latency"])
    assert math.isnan(partial.saturation("updn", 1))
    # The populated curves are unaffected.
    assert sum(r["saturation"] > 0 for r in rows) == 4


def test_centric_figure_runs():
    centric = ExperimentConfig(
        id="tiny-centric",
        title="tiny centric",
        m=4,
        n=2,
        pattern="centric",
        vl_counts=(1,),
        quick_loads=(0.2,),
        quick_warmup_ns=1_000.0,
        quick_measure_ns=8_000.0,
        quick_seeds=(1,),
    )
    res = run_figure(centric, quick=True)
    assert res.curves[("mlid", 1)][0].accepted > 0
