"""Flow-level evaluator tests: kernel bit-identity, fixed point, hybrid.

The load-bearing assertions here are the *oracle* checks: on fabrics
where the full :class:`~repro.core.kernel.RouteKernel` route tensor is
affordable, the streaming tracer's per-link loads must be bit-identical
to the kernel's (integer pair counts are exact in float64).  Everything
else — demand coefficients, the acceptance fixed point, knee-based
backend selection and the sweep-stack plumbing — is checked against
closed forms from :mod:`repro.experiments.analytical` and against the
packet engine itself.
"""

import math

import numpy as np
import pytest

from repro.core.forwarding import MlidScheme
from repro.core.kernel import compile_kernel
from repro.core.scheme import RoutingScheme, get_scheme
from repro.experiments import flowlevel
from repro.experiments.analytical import uniform_saturation_bound
from repro.experiments.configs import ExperimentConfig
from repro.experiments.flowlevel import (
    KNEE_THRESHOLD,
    all_to_one_link_loads,
    build_flow_model,
    clear_flow_models,
    evaluate_point,
    flow_link_loads,
    get_flow_model,
    knee_utilization,
    select_backends,
)
from repro.experiments.sweep import run_figure, run_sweep
from repro.ib.config import SimConfig
from repro.topology.fattree import FatTree

FAST = dict(warmup_ns=2_000.0, measure_ns=20_000.0)


def _kernel_weights(model, kern):
    """(num_leaves, num_lids) pair counts from the model's flow classes."""
    w = np.zeros((kern.num_leaves, kern.num_lids))
    key_mod = kern.num_lids + 1
    leaf = model.class_keys // key_mod
    dlid = model.class_keys % key_mod
    w[leaf, dlid - 1] = model.cnt_all
    return w


# -- bit-identity against the route kernel -----------------------------


@pytest.mark.parametrize(
    "m, n, scheme",
    [
        (4, 2, "slid"),
        (4, 2, "mlid"),
        (4, 2, "mlid-hash"),
        (4, 2, "mlid-stagger"),
        (8, 2, "mlid"),
        (4, 3, "mlid"),
    ],
)
def test_uniform_loads_bit_identical_to_kernel(m, n, scheme):
    # fold=False: this is the *unfolded oracle* vs the kernel; the
    # folded quotient is checked against the oracle in test_folding.py.
    model = build_flow_model(m, n, scheme, "uniform", fold=False)
    kern = compile_kernel(get_scheme(scheme, FatTree(m, n)))
    expected = kern.accumulate_link_loads(_kernel_weights(model, kern))
    got = flow_link_loads(model, model.cnt_all)
    assert np.array_equal(got, expected)  # exact, not approximate


@pytest.mark.parametrize("scheme", ["slid", "mlid"])
def test_all_to_one_bit_identical_to_kernel(scheme):
    model = build_flow_model(4, 2, scheme, "centric", fold=False)
    kern = compile_kernel(get_scheme(scheme, FatTree(4, 2)))
    hot = kern.ft.nodes[0]
    flow = all_to_one_link_loads(model)
    got = {
        (kern.ft.switches[i], k): flow[i, k]
        for i in range(kern.num_switches)
        for k in range(kern.m)
        if flow[i, k]
    }
    assert got == dict(kern.link_loads_all_to_one(hot))


def test_all_to_one_requires_centric_model():
    model = build_flow_model(4, 2, "mlid", "uniform")
    with pytest.raises(ValueError, match="centric"):
        all_to_one_link_loads(model)


def test_flow_link_loads_shape_validated():
    model = build_flow_model(4, 2, "mlid", "uniform", fold=False)
    with pytest.raises(ValueError, match="weights must be"):
        flow_link_loads(model, np.ones(3))


# -- demand coefficients -----------------------------------------------


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("pattern", ["uniform", "centric"])
def test_coef_sums_to_num_nodes(pattern, fold):
    """Total demand at theta=1 is one unit of offered load per node."""
    model = build_flow_model(4, 2, "mlid", pattern, fold=fold)
    assert model.folded == fold
    mult = model.class_mult if model.folded else 1.0
    assert model.coef.sum() == pytest.approx(model.num_nodes, rel=1e-12)
    assert (model.cnt_all * mult).sum() == model.num_nodes * (
        model.num_nodes - 1
    )
    assert model.total_classes == build_flow_model(
        4, 2, "mlid", pattern, fold=False
    ).num_classes


@pytest.mark.parametrize("fold", [False, True])
def test_centric_counts_cover_hot_flows(fold):
    model = build_flow_model(
        4, 2, "mlid", "centric", hotspot_fraction=0.5, fold=fold
    )
    total = model.num_nodes
    mult = model.class_mult if model.folded else 1.0
    # Every non-hot source has exactly one flow to the hot node, and the
    # hot source has N-1 flows of its own.
    assert (model.cnt_hotdst * mult).sum() == total - 1
    assert (model.cnt_hotsrc * mult).sum() == total - 1


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError, match="supports patterns"):
        build_flow_model(4, 2, "mlid", "permutation")


@pytest.mark.parametrize("pattern", ["uniform", "centric"])
@pytest.mark.parametrize("scheme", ["mlid", "slid"])
@pytest.mark.parametrize("m,n", [(32, 3), (64, 2)])
def test_folded_compile_never_builds_port_wiring(m, n, scheme, pattern, monkeypatch):
    """The paper-scale folded compile reads only the closed-form fabric
    arrays: building FT(32, 3)'s 50k port objects would triple its cost."""

    def wire(self):
        raise AssertionError(f"per-port wiring of FT({self.m}, {self.n}) built")

    monkeypatch.setattr(FatTree, "_wire", wire)
    model = build_flow_model(m, n, scheme, pattern)
    assert model.folded


# -- fixed point and latency -------------------------------------------


def test_below_knee_accepted_equals_offered():
    model = build_flow_model(8, 2, "mlid", "uniform")
    cfg = SimConfig()
    offered = 0.02
    assert knee_utilization(model, cfg, offered) < 1.0
    res = evaluate_point(model, cfg, offered)
    assert res["accepted"] == pytest.approx(offered, rel=1e-9)
    assert res["backend"] == "flow"
    assert res["latency_mean"] > 0
    assert res["latency_p99"] >= res["latency_mean"]
    assert res["latency_total_mean"] > res["latency_mean"]


def test_saturation_matches_analytical_bound():
    """Far past the knee the fixed point lands on the binding closed-form
    uniform bound (the routing-engine pool on the default config)."""
    model = build_flow_model(8, 2, "mlid", "uniform")
    cfg = SimConfig()
    bound = uniform_saturation_bound(cfg, 8, 2)
    for offered in (0.8, 2.0):
        res = evaluate_point(model, cfg, offered)
        assert res["accepted"] == pytest.approx(bound, rel=1e-3)


def test_accepted_monotone_in_offered():
    model = build_flow_model(4, 2, "mlid", "centric")
    cfg = SimConfig()
    acc = [
        evaluate_point(model, cfg, off)["accepted"]
        for off in (0.05, 0.2, 0.5, 1.0)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(acc, acc[1:]))


def test_zero_load_point():
    model = build_flow_model(4, 2, "mlid", "uniform")
    res = evaluate_point(model, SimConfig(), 0.0)
    assert res["accepted"] == 0.0
    assert math.isnan(res["latency_mean"])
    assert res["packets"] == 0


def test_negative_load_rejected():
    model = build_flow_model(4, 2, "mlid", "uniform")
    with pytest.raises(ValueError, match="non-negative"):
        evaluate_point(model, SimConfig(), -0.1)


def test_vl_count_raises_ejection_capacity():
    """More VLs -> higher ejection efficiency -> higher centric accept.

    ``routing_engines_per_switch=0`` models per-port engines (infinite
    pool) so the hot *ejection link* is the binding resource — the VL
    count then moves the accepted traffic through
    ``ejection_efficiency``.
    """
    model = build_flow_model(4, 2, "mlid", "centric")
    one = evaluate_point(
        model, SimConfig(num_vls=1, routing_engines_per_switch=0), 1.0
    )["accepted"]
    four = evaluate_point(
        model, SimConfig(num_vls=4, routing_engines_per_switch=0), 1.0
    )["accepted"]
    assert four > one


# -- knee and backend selection ----------------------------------------


def test_knee_utilization_linear_in_offered():
    model = build_flow_model(4, 2, "mlid", "uniform")
    cfg = SimConfig()
    one = knee_utilization(model, cfg, 0.1)
    assert knee_utilization(model, cfg, 0.3) == pytest.approx(3 * one)


def test_select_backends(monkeypatch):
    model = build_flow_model(4, 2, "mlid", "uniform")
    cfg = SimConfig()
    loads = [0.05, 5.0]
    kus = [knee_utilization(model, cfg, off) for off in loads]
    assert kus[0] < KNEE_THRESHOLD < kus[1]
    assert select_backends(model, cfg, loads, "hybrid") == ["flow", "packet"]
    assert select_backends(model, cfg, loads, "flow") == ["flow", "flow"]
    # The threshold moves the split.
    monkeypatch.setattr(flowlevel, "KNEE_THRESHOLD", math.inf)
    assert select_backends(model, cfg, loads, "hybrid") == ["flow", "flow"]
    monkeypatch.setattr(flowlevel, "KNEE_THRESHOLD", 0.0)
    assert select_backends(model, cfg, loads, "hybrid") == ["packet", "packet"]
    with pytest.raises(ValueError, match="unknown sweep mode"):
        select_backends(model, cfg, loads, "packet")


# -- model cache -------------------------------------------------------


def test_model_cache_and_clear():
    clear_flow_models()
    a = get_flow_model(4, 2, "mlid", "uniform")
    assert get_flow_model(4, 2, "mlid", "uniform") is a
    # Uniform ignores the hotspot fraction in the cache key…
    assert get_flow_model(4, 2, "mlid", "uniform", 0.9) is a
    # …centric does not.
    b = get_flow_model(4, 2, "mlid", "centric", 0.5)
    assert get_flow_model(4, 2, "mlid", "centric", 0.9) is not b
    clear_flow_models()
    assert get_flow_model(4, 2, "mlid", "uniform") is not a
    clear_flow_models()


# -- scheme plumbing ---------------------------------------------------


def test_strict_iba_fallback():
    """FT(32, 3) needs LMC 8 > IBA's 7: the flow evaluator retries with
    strict_iba=False instead of refusing the fabric."""
    with pytest.raises(ValueError, match="strict_iba"):
        get_scheme("mlid", FatTree(32, 3))
    sch = flowlevel._scheme_for(32, 3, "mlid")
    assert sch.lmc == 8


def test_guarded_dlid_rows_honours_scalar_override():
    """A scheme overriding scalar ``dlid`` under MLID's vectorized
    ``dlid_rows`` must fall back to the generic loop (PR-2 bug class)."""

    class FixedOffsetMlid(MlidScheme):
        def dlid(self, src, dst):  # always offset 0, unlike MLID
            return self.base_lid(dst)

    ft = FatTree(4, 2)
    sch = FixedOffsetMlid(ft)
    ids = np.arange(ft.num_nodes, dtype=np.int64)
    rows = flowlevel._guarded_dlid_rows(sch)(ids)
    expected = RoutingScheme.dlid_rows(sch, ids)
    assert np.array_equal(rows, expected)
    # Sanity: the override really differs from stock MLID.
    assert not np.array_equal(rows, MlidScheme(ft).dlid_rows(ids))


def test_guarded_port_batch_honours_scalar_override():
    class RotatedPortMlid(MlidScheme):
        def output_port(self, switch, lid):
            return (super().output_port(switch, lid) + 1) % self.ft.m

    ft = FatTree(4, 2)
    sch = RotatedPortMlid(ft)
    switch_ids = np.array([0, 1, 2, 3], dtype=np.int64)
    lids = np.array([1, 2, 3, 4], dtype=np.int64)
    got = flowlevel._guarded_port_batch(sch)(switch_ids, lids)
    expected = [
        sch.output_port(ft.switches[int(s)], int(lid))
        for s, lid in zip(switch_ids, lids)
    ]
    assert got.tolist() == expected


# -- sweep-stack integration -------------------------------------------


def test_run_sweep_flow_mode():
    points = run_sweep(
        4, 2, "mlid", "uniform", [0.0, 0.05], seeds=(1,), mode="flow"
    )
    assert [p.backend for p in points] == ["flow", "flow"]
    assert points[0].accepted == 0.0
    assert points[1].accepted == pytest.approx(0.05, rel=1e-9)


def test_run_sweep_hybrid_split_and_packet_bit_identity():
    """Hybrid tags each point with its engine, and its packet points are
    bit-identical to a packet-only sweep of the same loads."""
    clear_flow_models()
    model = get_flow_model(4, 2, "mlid", "uniform")
    cfg = SimConfig()
    low, high = 0.05, 5.0
    assert knee_utilization(model, cfg, low) < KNEE_THRESHOLD
    assert knee_utilization(model, cfg, high) >= KNEE_THRESHOLD
    hybrid = run_sweep(
        4, 2, "mlid", "uniform", [low, high], seeds=(1, 2), mode="hybrid", **FAST
    )
    assert [p.backend for p in hybrid] == ["flow", "packet"]
    packet = run_sweep(
        4, 2, "mlid", "uniform", [high], seeds=(1, 2), **FAST
    )
    assert hybrid[1] == packet[0]  # frozen dataclass: exact equality
    # The flow point averages trivially across seeds (deterministic).
    assert hybrid[0].replicas == 2
    assert hybrid[0].accepted == pytest.approx(low, rel=1e-9)


def test_run_sweep_flow_rejects_scheme_instances():
    sch = get_scheme("mlid", FatTree(4, 2))
    with pytest.raises(ValueError, match="scheme name"):
        run_sweep(4, 2, sch, "uniform", [0.1], seeds=(1,), mode="flow")


def test_run_figure_flow_mode():
    tiny = ExperimentConfig(
        id="tiny-flow",
        title="tiny flow-mode figure",
        m=4,
        n=2,
        pattern="uniform",
        vl_counts=(1, 2),
        quick_loads=(0.05, 0.1),
        quick_seeds=(1,),
    )
    res = run_figure(tiny, quick=True, mode="flow")
    assert set(res.curves) == {
        ("slid", 1), ("slid", 2), ("mlid", 1), ("mlid", 2)
    }
    for points in res.curves.values():
        assert [p.backend for p in points] == ["flow", "flow"]
        for p in points:
            assert p.accepted == pytest.approx(p.offered, rel=1e-9)
    # Both quick loads are below every curve's knee: saturation is the
    # higher load exactly.
    assert res.saturation("mlid", 1) == pytest.approx(0.1, rel=1e-9)
