"""Determinism and plumbing of the parallel sweep executor."""

import dataclasses
import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.parallel import (
    PointSpec,
    execute_points,
    normalize_jobs,
    run_spec,
)
from repro.experiments.runner import sweep_specs
from repro.experiments.sweep import run_sweep
from repro.experiments.sweep import run_figure
from repro.experiments.configs import ExperimentConfig
from repro.ib.config import SimConfig

FAST = dict(warmup_ns=2_000.0, measure_ns=10_000.0)


def test_parallel_sweep_bit_identical_to_serial():
    """The acceptance criterion: jobs=4 == jobs=1, field for field."""
    kwargs = dict(seeds=(1, 2), **FAST)
    loads = [0.1, 0.3]
    serial = run_sweep(4, 2, "mlid", "uniform", loads, **kwargs)
    parallel = run_sweep(4, 2, "mlid", "uniform", loads, jobs=4, **kwargs)
    assert serial == parallel  # frozen dataclasses: exact equality


TINY = ExperimentConfig(
    id="tiny",
    title="tiny",
    m=4,
    n=2,
    pattern="uniform",
    schemes=("slid", "mlid"),
    vl_counts=(1, 2),
    quick_loads=(0.1, 0.3),
    quick_seeds=(1,),
    quick_warmup_ns=2_000.0,
    quick_measure_ns=8_000.0,
)


def test_parallel_figure_bit_identical_to_serial():
    serial = run_figure(TINY, quick=True)
    parallel = run_figure(TINY, quick=True, jobs=2)
    assert serial.curves == parallel.curves


def test_parallel_hybrid_figure_bit_identical_to_serial():
    """Hybrid mode: ``jobs`` fans out the packet points past the knee,
    while every curve's flow points are solved in-process."""
    tiny = dataclasses.replace(TINY, quick_loads=(0.05, 0.3, 0.6, 0.9))
    serial = run_figure(tiny, quick=True, mode="hybrid", jobs=1)
    parallel = run_figure(tiny, quick=True, mode="hybrid", jobs=2)
    for points in serial.curves.values():
        assert [p.backend for p in points] == ["flow", "flow", "packet", "packet"]
    assert serial.curves == parallel.curves  # frozen dataclasses: exact equality


def test_execute_points_preserves_spec_order():
    cfg = SimConfig()
    specs = sweep_specs(
        4, 2, "mlid", "uniform", [0.05, 0.2], cfg=cfg, seeds=(1, 2), **FAST
    )
    results = execute_points(specs, jobs=2)
    assert [r["offered"] for r in results] == [0.05, 0.05, 0.2, 0.2]
    # And each entry matches the spec's own in-process execution.
    assert results[0] == run_spec(specs[0])


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_point_names_its_spec(jobs):
    """The exception keeps its type and message and carries the failing
    spec as a note, also across the process pool."""
    good = PointSpec(m=4, n=2, scheme="mlid", pattern="uniform", offered=0.1,
                     cfg=SimConfig(), **FAST)
    bad = dataclasses.replace(good, warmup_ns=-1.0)
    with pytest.raises(ValueError) as info:
        execute_points([good, bad], jobs=jobs)
    assert str(info.value) == "warmup must be >= 0 and measure window positive"
    if sys.version_info >= (3, 11):
        assert info.value.__notes__ == [f"while running {bad!r}"]


@pytest.mark.skipif(
    sys.version_info < (3, 11) or multiprocessing.get_start_method() != "fork",
    reason="needs exception notes, and workers forked after the patch",
)
def test_killed_worker_names_lost_points(monkeypatch):
    """A worker that dies without raising (a signal, an OOM kill) breaks
    the pool; the error lists the points whose results never came back."""
    from repro.experiments import runner

    def run_point(m, n, scheme, pattern, offered, **kwargs):
        if offered == 0.3:
            os._exit(1)
        return {"offered": offered}

    monkeypatch.setattr(runner, "run_point", run_point)
    specs = [
        PointSpec(m=4, n=2, scheme="mlid", pattern="uniform", offered=load,
                  cfg=SimConfig(), **FAST)
        for load in (0.1, 0.2, 0.3, 0.4)
    ]
    with pytest.raises(BrokenProcessPool) as info:
        execute_points(specs, jobs=2)
    (note,) = info.value.__notes__
    assert repr(specs[2]) in note


def test_jobs_validation():
    assert normalize_jobs(None) == 1
    assert normalize_jobs(1) == 1
    assert normalize_jobs(7) == 7
    with pytest.raises(ValueError):
        normalize_jobs(0)
    with pytest.raises(ValueError):
        normalize_jobs(-2)
    with pytest.raises(ValueError):
        run_sweep(4, 2, "mlid", "uniform", [0.1], jobs=0, seeds=(1,), **FAST)


def test_more_jobs_than_points():
    """Oversized pools (jobs > points) must not drop, duplicate or
    reorder results."""
    kwargs = dict(seeds=(1,), **FAST)
    serial = run_sweep(4, 2, "mlid", "uniform", [0.1, 0.3], **kwargs)
    flooded = run_sweep(4, 2, "mlid", "uniform", [0.1, 0.3], jobs=16, **kwargs)
    assert serial == flooded

    cfg = SimConfig()
    specs = sweep_specs(
        4, 2, "mlid", "uniform", [0.05], cfg=cfg, seeds=(1,), **FAST
    )
    results = execute_points(specs, jobs=8)
    assert len(results) == 1
    assert results[0] == run_spec(specs[0])


def test_point_spec_is_picklable():
    import pickle

    spec = PointSpec(
        m=4, n=2, scheme="mlid", pattern="uniform", offered=0.1, cfg=SimConfig()
    )
    assert pickle.loads(pickle.dumps(spec)) == spec
