"""Determinism and plumbing of the parallel sweep executor."""

import dataclasses
import multiprocessing
import os
import sys
import weakref
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    PointSpec,
    execute_points,
    normalize_jobs,
    run_spec,
    traffic_key,
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


def _shared_traffic_specs():
    """Two loads x two seeds x (2 schemes x 2 VL counts): four traffic
    keys of four points each, interleaved curve-major as a figure lists
    them."""
    return [
        spec
        for vls in (1, 2)
        for scheme in ("slid", "mlid")
        for spec in sweep_specs(
            4, 2, scheme, "centric", [0.2, 0.7], cfg=SimConfig(num_vls=vls),
            seeds=(1, 2), **FAST,
        )
    ]


def test_traffic_key_ignores_scheme_and_network():
    spec = PointSpec(m=4, n=2, scheme="mlid", pattern="centric", offered=0.3,
                     cfg=SimConfig())
    same = dataclasses.replace(
        spec, scheme="slid", warmup_ns=1.0,
        cfg=SimConfig(num_vls=4, injection_queueing="fifo", buffer_packets_per_vl=2),
    )
    assert traffic_key(same) == traffic_key(spec)
    for other in (
        dataclasses.replace(spec, seed=2),
        dataclasses.replace(spec, offered=0.4),
        dataclasses.replace(spec, pattern="uniform"),
        dataclasses.replace(spec, hotspot_fraction=0.3),
        dataclasses.replace(spec, m=8),
        dataclasses.replace(spec, cfg=SimConfig(message_packets=2)),
    ):
        assert traffic_key(other) != traffic_key(spec)


def test_shared_traffic_points_equal_fresh_and_tapes_die(monkeypatch):
    """Each group of four points shares one set of tapes, every point
    equals its own fresh run, and once execute_points returns nothing
    keeps a group's tapes alive."""
    specs = _shared_traffic_specs()
    fresh = [run_spec(spec) for spec in specs]
    seen = []
    real = parallel.run_spec

    def spying(spec, traffic=None):
        seen.append((traffic_key(spec), weakref.ref(traffic)))
        return real(spec, traffic)

    monkeypatch.setattr(parallel, "run_spec", spying)
    assert execute_points(specs, jobs=1) == fresh
    # Group by group: four points of one key after another, sharing one
    # TrafficTapes (weakref.ref hands out one ref per live object).
    keys = [key for key, _ in seen]
    refs = [ref for _, ref in seen]
    assert len(set(keys)) == 4 and len({id(ref) for ref in refs}) == 4
    for i in range(16):
        assert keys[i] == keys[i - i % 4] and refs[i] is refs[i - i % 4]
    assert all(ref() is None for ref in refs)


def test_shared_traffic_jobs2_equals_jobs1():
    """Chunks of two points split every group across workers, which
    share tapes within what they receive: bit-identical either way."""
    specs = _shared_traffic_specs()
    assert execute_points(specs, jobs=2) == execute_points(specs, jobs=1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_point_names_its_spec(jobs):
    """The exception keeps its type and message and carries the failing
    spec as a note, also across the process pool."""
    good = PointSpec(m=4, n=2, scheme="mlid", pattern="uniform", offered=0.1,
                     cfg=SimConfig(), **FAST)
    bad = dataclasses.replace(good, warmup_ns=-1.0)
    with pytest.raises(ValueError) as info:
        execute_points([good, bad], jobs=jobs)
    assert str(info.value) == (
        "warmup must be finite and >= 0, and the measure window finite "
        "and positive; got -1.0, 10000.0"
    )
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
