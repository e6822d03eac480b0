"""Correctness of the routing-artifact cache."""

import sys
import threading

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
    """A cached scheme/LFT build must equal an uncached one."""
    cached = get_artifacts(4, 2, "mlid")
    fresh = build_artifacts(4, 2, "mlid")
    assert cached.lfts.keys() == fresh.lfts.keys()
    for sw in cached.lfts:
        assert cached.lfts[sw] == fresh.lfts[sw]
    assert np.array_equal(cached.dlid_flat, fresh.dlid_flat)
    assert cached.scheme.name == fresh.scheme.name
    assert cached.scheme.lmc == fresh.scheme.lmc


def test_cache_hits_and_key_sensitivity():
    a = get_artifacts(4, 2, "mlid")
    b = get_artifacts(4, 2, "mlid")
    assert a is b
    info = artifact_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1
    # Any key component change misses: scheme, topology.
    assert get_artifacts(4, 2, "slid") is not a
    assert get_artifacts(8, 2, "mlid") is not a
    # The ignored config argument is no part of the key.
    assert get_artifacts(4, 2, "mlid", SimConfig().with_vls(2)) is a
    assert artifact_cache_info()["size"] == 3
    # Scheme names are case-normalized.
    assert get_artifacts(4, 2, "MLID") is a


def test_subnet_from_artifacts_matches_fresh_subnet():
    cfg = SimConfig()
    artifacts = get_artifacts(4, 2, "mlid")
    cached_net = build_subnet(4, 2, "mlid", cfg, seed=3, artifacts=artifacts)
    fresh_net = build_subnet(
        4, 2, "mlid", cfg, seed=3, artifacts=build_artifacts(4, 2, "mlid")
    )
    assert cached_net.num_nodes == fresh_net.num_nodes
    for sw, model in cached_net.switches.items():
        assert model.lft == fresh_net.switches[sw].lft
    for s in range(cached_net.num_nodes):
        for d in range(cached_net.num_nodes):
            if s != d:
                assert cached_net.dlid_for(s, d) == fresh_net.dlid_for(s, d)


def test_cached_measurement_bit_identical_to_fresh():
    """End to end: identical per-seed RNG streams and results.  The
    fresh side is wired from an uncached ``build_artifacts``;
    ``run_point`` always goes through the cache."""
    from repro.experiments.runner import run_point
    from repro.traffic.patterns import make_pattern

    net = build_subnet(
        4, 2, "slid", SimConfig(), seed=7, artifacts=build_artifacts(4, 2, "slid")
    )
    net.attach_pattern(make_pattern("uniform", net.num_nodes))
    fresh = net.run_measurement(0.2, warmup_ns=2_000.0, measure_ns=10_000.0)
    cached = run_point(
        4, 2, "slid", "uniform", 0.2,
        warmup_ns=2_000.0, measure_ns=10_000.0, seed=7,
    )
    assert artifact_cache_info()["misses"] == 1
    assert fresh == cached


def test_figure_cached_equals_fresh_one_build_per_scheme(monkeypatch):
    """A whole figure through the cache equals the same points, each
    wired from its own uncached ``build_artifacts``, and the cache
    builds once per scheme: every VL count's curve reads the same
    artifacts.

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
                        partial(
                            build_subnet, s.m, s.n, s.scheme, s.cfg, seed=s.seed,
                            artifacts=build_artifacts(s.m, s.n, s.scheme),
                        ),
                        s.pattern, s.offered, hotspot_fraction=s.hotspot_fraction,
                        warmup_ns=s.warmup_ns, measure_ns=s.measure_ns,
                    )
                    for s in specs
                ]
                fresh[(scheme, vls)] = aggregate_sweep(
                    scheme, cfg, config.quick_loads, config.quick_seeds, results
                )
        assert artifact_cache_info()["misses"] == 0  # uncached builds skip it
        del tapes[:]
        cached = run_figure(config, quick=True, base_cfg=base, jobs=1).curves
        curves = len(config.schemes) * len(config.vl_counts)
        assert artifact_cache_info()["misses"] == len(config.schemes)
        assert cached == fresh
        # One set of tapes per (load, seed), read by every curve's point.
        groups = len(config.quick_loads) * len(config.quick_seeds)
        assert len(tapes) == groups * curves
        assert len({id(traffic) for traffic in tapes}) == groups
        assert all(tapes.count(traffic) == curves for traffic in tapes)


def test_artifacts_validated_against_request():
    cfg = SimConfig()
    artifacts = get_artifacts(4, 2, "mlid")
    with pytest.raises(ValueError):
        build_subnet(8, 2, "mlid", cfg, artifacts=artifacts)
    with pytest.raises(ValueError):
        build_subnet(4, 2, "slid", cfg, artifacts=artifacts)


def test_dlid_matrix_is_write_protected():
    artifacts = get_artifacts(4, 2, "mlid")
    with pytest.raises(ValueError):
        artifacts.dlid_flat[0] = 99


def test_artifacts_carry_compiled_kernel():
    """The artifact's kernel equals one compiled from its programmed
    LFTs, and verifies the whole fabric."""
    from repro.core.kernel import RouteKernel, compile_kernel

    artifacts = get_artifacts(4, 2, "mlid")
    kernel = artifacts.kernel
    programmed = RouteKernel.from_lfts(artifacts.scheme, artifacts.lfts)
    assert np.array_equal(kernel.port, programmed.port)
    assert np.array_equal(kernel.route_switch, programmed.route_switch)
    assert np.array_equal(kernel.delivered, programmed.delivered)
    nodes = artifacts.ft.num_nodes
    assert kernel.verify() == artifacts.scheme.num_lids * (nodes - 1)
    # One memo: compile_kernel() returns the artifact's kernel, which
    # selects DLIDs through the artifact's own matrix.
    assert compile_kernel(artifacts.scheme) is kernel
    assert np.shares_memory(kernel.selected, artifacts.dlid_flat)
    assert np.array_equal(kernel.selected.reshape(-1), artifacts.dlid_flat)


def test_kernel_selected_matrix_consistent_for_extensions():
    """mlid-hash artifacts: the cached DLID matrix must agree with the
    scheme's scalar dlid() (regression for the inherited vectorized
    matrix dropping the hash)."""
    artifacts = get_artifacts(4, 2, "mlid-hash")
    scheme = artifacts.scheme
    ft = artifacts.ft
    n = ft.num_nodes
    for s in range(n):
        for d in range(n):
            if s != d:
                expected = scheme.dlid(ft.nodes[s], ft.nodes[d])
                assert artifacts.dlid_flat[s * n + d] == expected


def test_one_artifact_serves_every_config(monkeypatch):
    """Points at 1, 2 and 4 VLs and with multi-packet messages read one
    artifact object, and at each config a subnet wired from it, and
    ``run_point``, equal a subnet wired from an uncached build bit for
    bit."""
    from repro.experiments import runner
    from repro.traffic.patterns import make_pattern

    read = []
    real_build = runner.build_subnet

    def build_subnet_spy(*args, artifacts=None, **kwargs):
        read.append(artifacts)
        return real_build(*args, artifacts=artifacts, **kwargs)

    monkeypatch.setattr(runner, "build_subnet", build_subnet_spy)
    shared = get_artifacts(4, 2, "mlid")
    configs = [
        SimConfig(),
        SimConfig().with_vls(2),
        SimConfig().with_vls(4),
        SimConfig(message_packets=3),
    ]
    for cfg in configs:
        assert get_artifacts(4, 2, "mlid", cfg) is shared
        cached_net = build_subnet(4, 2, "mlid", cfg, seed=5, artifacts=shared)
        fresh_net = build_subnet(
            4, 2, "mlid", cfg, seed=5, artifacts=build_artifacts(4, 2, "mlid")
        )
        for sw, model in cached_net.switches.items():
            assert model.lft == fresh_net.switches[sw].lft
        nodes = range(cached_net.num_nodes)
        assert [cached_net.dlid_for(s, d) for s in nodes for d in nodes if s != d] == [
            fresh_net.dlid_for(s, d) for s in nodes for d in nodes if s != d
        ]
        results = []
        for net in (cached_net, fresh_net):
            net.attach_pattern(make_pattern("uniform", net.num_nodes))
            results.append(net.run_measurement(0.4, warmup_ns=2_000.0, measure_ns=8_000.0))
            net.close()
        point = runner.run_point(
            4, 2, "mlid", "uniform", 0.4, cfg=cfg,
            warmup_ns=2_000.0, measure_ns=8_000.0, seed=5,
        )
        assert results[0] == results[1] == point
    assert read and all(artifacts is shared for artifacts in read)
    assert artifact_cache_info()["misses"] == 1


def test_quick_figure_compiles_no_route_kernel(monkeypatch):
    """Packet points never read the route kernel, so a figure on its
    quick grid compiles none."""
    from repro.core.kernel import RouteKernel
    from repro.experiments.configs import ExperimentConfig
    from repro.experiments.sweep import run_figure

    compiled = []
    real_init = RouteKernel.__init__

    def init_spy(self, *args, **kwargs):
        compiled.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RouteKernel, "__init__", init_spy)
    tiny = ExperimentConfig(
        id="tiny", title="tiny", m=4, n=2, pattern="uniform",
        schemes=("slid", "mlid"), vl_counts=(1, 2), quick_loads=(0.2,),
        quick_seeds=(1,), quick_warmup_ns=2_000.0, quick_measure_ns=5_000.0,
    )
    result = run_figure(tiny, quick=True, jobs=1)
    assert all(result.curves.values())
    assert artifact_cache_info()["misses"] == 2
    assert compiled == []


def test_kernel_read_after_compile_kernel_is_its_memo():
    """If ``compile_kernel`` compiled the scheme's kernel first, the
    artifact returns that kernel, selecting DLIDs through the
    artifact's own matrix (the other order is
    :func:`test_artifacts_carry_compiled_kernel`)."""
    from repro.core.kernel import compile_kernel

    artifacts = get_artifacts(4, 2, "mlid")
    kernel = compile_kernel(artifacts.scheme)
    assert artifacts.kernel is kernel
    assert np.shares_memory(kernel.selected, artifacts.dlid_flat)


def test_build_subnet_reads_the_cache_for_a_name_only():
    """Without ``artifacts``, a scheme name is wired from the cache and
    a scheme instance from an uncached build of that very instance."""
    from repro.core.forwarding import MlidScheme
    from repro.topology.fattree import FatTree

    nets = [build_subnet(4, 2, "mlid"), build_subnet(4, 2, "MLID")]
    assert artifact_cache_info() == {"hits": 1, "misses": 1, "size": 1}
    assert nets[0].scheme is nets[1].scheme is get_artifacts(4, 2, "mlid").scheme
    scheme = MlidScheme(FatTree(4, 2))
    nets.append(build_subnet(4, 2, scheme))
    assert nets[-1].scheme is scheme
    assert artifact_cache_info()["misses"] == 1
    with pytest.raises(ValueError, match="different FT"):
        build_subnet(8, 2, scheme)
    for net in nets:
        net.close()


def test_concurrent_first_kernel_reads_get_one_object():
    """More readers than cores race for the first read; every one gets
    the one kernel, which is also ``compile_kernel``'s memo."""
    from repro.core.kernel import compile_kernel

    artifacts = get_artifacts(8, 2, "mlid")
    readers = 4
    start = threading.Barrier(readers)
    got = []

    def read():
        start.wait(timeout=30)
        got.append(artifacts.kernel)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == readers
    assert all(kernel is got[0] for kernel in got)
    assert compile_kernel(artifacts.scheme) is got[0]
