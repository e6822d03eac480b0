"""Correctness of the routing-artifact cache."""

import numpy as np
import pytest

from repro.ib.artifacts import (
    artifact_cache_info,
    build_artifacts,
    clear_artifact_cache,
    get_artifacts,
)
from repro.ib.config import SimConfig
from repro.ib.subnet import build_subnet


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_artifact_cache()
    yield
    clear_artifact_cache()


def test_cached_build_equals_fresh_build():
    """A cached scheme/LFT build must equal a from-scratch one."""
    cfg = SimConfig()
    cached = get_artifacts(4, 2, "mlid", cfg)
    fresh = build_artifacts(4, 2, "mlid", cfg)
    assert cached.lfts.keys() == fresh.lfts.keys()
    for sw in cached.lfts:
        assert cached.lfts[sw] == fresh.lfts[sw]
    assert np.array_equal(cached.dlid_flat, fresh.dlid_flat)
    assert cached.scheme.name == fresh.scheme.name
    assert cached.scheme.lmc == fresh.scheme.lmc


def test_cache_hits_and_key_sensitivity():
    cfg = SimConfig()
    a = get_artifacts(4, 2, "mlid", cfg)
    b = get_artifacts(4, 2, "mlid", cfg)
    assert a is b
    info = artifact_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1
    # Any key component change misses: scheme, topology, config.
    assert get_artifacts(4, 2, "slid", cfg) is not a
    assert get_artifacts(8, 2, "mlid", cfg) is not a
    assert get_artifacts(4, 2, "mlid", cfg.with_vls(2)) is not a
    assert artifact_cache_info()["size"] == 4
    # Scheme names are case-normalized.
    assert get_artifacts(4, 2, "MLID", cfg) is a


def test_subnet_from_artifacts_matches_fresh_subnet():
    cfg = SimConfig()
    artifacts = get_artifacts(4, 2, "mlid", cfg)
    cached_net = build_subnet(4, 2, "mlid", cfg, seed=3, artifacts=artifacts)
    fresh_net = build_subnet(4, 2, "mlid", cfg, seed=3)
    assert cached_net.num_nodes == fresh_net.num_nodes
    for sw, model in cached_net.switches.items():
        assert model.lft == fresh_net.switches[sw].lft
    for s in range(cached_net.num_nodes):
        for d in range(cached_net.num_nodes):
            if s != d:
                assert cached_net.dlid_for(s, d) == fresh_net.dlid_for(s, d)


def test_cached_measurement_bit_identical_to_fresh():
    """End to end: identical per-seed RNG streams and results.  The
    fresh side is ``build_subnet`` without artifacts; ``run_point``
    always goes through the cache."""
    from repro.experiments.runner import run_point
    from repro.traffic.patterns import make_pattern

    net = build_subnet(4, 2, "slid", SimConfig(), seed=7)
    net.attach_pattern(make_pattern("uniform", net.num_nodes))
    fresh = net.run_measurement(0.2, warmup_ns=2_000.0, measure_ns=10_000.0)
    cached = run_point(
        4, 2, "slid", "uniform", 0.2,
        warmup_ns=2_000.0, measure_ns=10_000.0, seed=7,
    )
    assert artifact_cache_info()["misses"] == 1
    assert fresh == cached


def test_figure_cached_equals_fresh_one_build_per_curve(monkeypatch):
    """A whole figure through the cache equals the same points built
    from scratch, and the cache builds once per (scheme, VL) curve.

    The figure's points also share their offered traffic: the points of
    one load and seed, every (scheme, VL) curve's, replay the tapes the
    first of them recorded, while the fresh side draws every point's
    traffic itself.  Uniform and centric traffic, 1, 2 and 4 VLs,
    multi-packet messages and FIFO injection queues."""
    from dataclasses import replace
    from functools import partial

    from repro.experiments import runner
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.runner import aggregate_sweep, measure_point, sweep_specs
    from repro.experiments.sweep import run_figure

    tiny = ExperimentConfig(
        id="tiny", title="tiny", m=4, n=2, pattern="centric",
        schemes=("slid", "mlid"), vl_counts=(1, 2), quick_loads=(0.1, 0.6),
        quick_seeds=(1, 2), quick_warmup_ns=2_000.0, quick_measure_ns=8_000.0,
    )
    cases = [
        (tiny, SimConfig()),
        (replace(tiny, pattern="uniform", vl_counts=(1, 2, 4)), SimConfig()),
        (
            replace(tiny, vl_counts=(1, 4)),
            SimConfig(message_packets=3, injection_queueing="fifo"),
        ),
    ]
    tapes = []
    real_build = runner.build_subnet

    def build_subnet_spy(*args, traffic=None, **kwargs):
        tapes.append(traffic)
        return real_build(*args, traffic=traffic, **kwargs)

    monkeypatch.setattr(runner, "build_subnet", build_subnet_spy)
    for config, base in cases:
        clear_artifact_cache()
        fresh = {}
        for vls in config.vl_counts:
            cfg = base.with_vls(vls)
            for scheme in config.schemes:
                specs = sweep_specs(
                    config.m, config.n, scheme, config.pattern, config.quick_loads,
                    cfg=cfg, hotspot_fraction=config.hotspot_fraction,
                    warmup_ns=config.quick_warmup_ns,
                    measure_ns=config.quick_measure_ns, seeds=config.quick_seeds,
                )
                results = [
                    measure_point(
                        partial(build_subnet, s.m, s.n, s.scheme, s.cfg, seed=s.seed),
                        s.pattern, s.offered, hotspot_fraction=s.hotspot_fraction,
                        warmup_ns=s.warmup_ns, measure_ns=s.measure_ns,
                    )
                    for s in specs
                ]
                fresh[(scheme, vls)] = aggregate_sweep(
                    scheme, cfg, config.quick_loads, config.quick_seeds, results
                )
        assert artifact_cache_info()["misses"] == 0  # fresh builds skip the cache
        del tapes[:]
        cached = run_figure(config, quick=True, base_cfg=base, jobs=1).curves
        curves = len(config.schemes) * len(config.vl_counts)
        assert artifact_cache_info()["misses"] == curves
        assert cached == fresh
        # One set of tapes per (load, seed), read by every curve's point.
        groups = len(config.quick_loads) * len(config.quick_seeds)
        assert len(tapes) == groups * curves
        assert len({id(traffic) for traffic in tapes}) == groups
        assert all(tapes.count(traffic) == curves for traffic in tapes)


def test_artifacts_validated_against_request():
    cfg = SimConfig()
    artifacts = get_artifacts(4, 2, "mlid", cfg)
    with pytest.raises(ValueError):
        build_subnet(8, 2, "mlid", cfg, artifacts=artifacts)
    with pytest.raises(ValueError):
        build_subnet(4, 2, "slid", cfg, artifacts=artifacts)


def test_dlid_matrix_is_write_protected():
    artifacts = get_artifacts(4, 2, "mlid", SimConfig())
    with pytest.raises(ValueError):
        artifacts.dlid_flat[0] = 99


def test_artifacts_carry_compiled_kernel():
    """The kernel compiled from the programmed LFTs equals one compiled
    from the scheme directly, and verifies the whole fabric."""
    from repro.core.kernel import RouteKernel, compile_kernel

    artifacts = get_artifacts(4, 2, "mlid", SimConfig())
    kernel = artifacts.kernel
    direct = RouteKernel.from_scheme(artifacts.scheme)
    assert np.array_equal(kernel.port, direct.port)
    assert np.array_equal(kernel.route_switch, direct.route_switch)
    assert np.array_equal(kernel.delivered, direct.delivered)
    nodes = artifacts.ft.num_nodes
    assert kernel.verify() == artifacts.scheme.num_lids * (nodes - 1)
    # The artifact's DLID matrix is shared with the kernel...
    assert np.array_equal(
        kernel.selected.reshape(-1), artifacts.dlid_flat
    )
    # ...and compile_kernel() reuses the artifact's compilation.
    assert compile_kernel(artifacts.scheme) is kernel


def test_kernel_selected_matrix_consistent_for_extensions():
    """mlid-hash artifacts: the cached DLID matrix must agree with the
    scheme's scalar dlid() (regression for the inherited vectorized
    matrix dropping the hash)."""
    artifacts = get_artifacts(4, 2, "mlid-hash", SimConfig())
    scheme = artifacts.scheme
    ft = artifacts.ft
    n = ft.num_nodes
    for s in range(n):
        for d in range(n):
            if s != d:
                expected = scheme.dlid(ft.nodes[s], ft.nodes[d])
                assert artifacts.dlid_flat[s * n + d] == expected
