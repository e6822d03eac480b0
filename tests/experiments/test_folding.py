"""Symmetry-folding differential tests: folded quotient vs unfolded oracle.

The folded flow model is supposed to be *exact*, not approximate: per-
link loads are integer-weighted counts whose orbit totals divide evenly
by the orbit size, so ``flow_link_loads`` must be **bit-identical**
(``np.array_equal``, no tolerance) between the folded and unfolded
compilations for any orbit-invariant weighting.  The fixed point then
runs over per-type aggregates, so evaluated curves agree to floating-
point noise (we assert 1e-9, observed ~1e-14) rather than bit-for-bit.

Hypothesis drives the weightings and load points; the model builds are
memoized module-wide so the property suite stays fast.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import compile_kernel
from repro.core.scheme import get_scheme
from repro.experiments import folding
from repro.experiments.flowlevel import (
    all_to_one_link_loads,
    build_flow_model,
    evaluate_curve,
    evaluate_point,
    flow_link_loads,
    knee_utilization,
)
from repro.ib.config import SimConfig
from repro.topology.fattree import FatTree

#: Every (topology, scheme, pattern) combo the oracle can afford.
COMBOS = [
    (m, n, scheme, pattern)
    for (m, n) in [(4, 2), (8, 2), (8, 3)]
    for scheme in ["mlid", "slid"]
    for pattern in ["uniform", "centric"]
]


@lru_cache(maxsize=None)
def _model(m, n, scheme, pattern, fold):
    return build_flow_model(m, n, scheme, pattern, fold=fold)


@lru_cache(maxsize=None)
def _kernel(m, n, scheme):
    return compile_kernel(get_scheme(scheme, FatTree(m, n)))


def _class_weights(model, a, b, c):
    """An orbit-invariant integer weighting: ``cnt_all`` and ``hops``
    are constant on every automorphism orbit, so the same formula
    evaluated on the folded and unfolded models weights each physical
    flow identically."""
    return a * model.cnt_all + b * model.hops + c


# -- structural invariants ---------------------------------------------


@pytest.mark.parametrize("m, n, scheme, pattern", COMBOS)
def test_fold_conserves_flow_population(m, n, scheme, pattern):
    folded = _model(m, n, scheme, pattern, True)
    unfolded = _model(m, n, scheme, pattern, False)
    assert folded.folded and not unfolded.folded
    assert folded.num_classes < unfolded.num_classes
    assert folded.total_classes == unfolded.num_classes
    # Orbit-weighted pair counts cover the full flow multiset.
    assert (folded.cnt_all * folded.class_mult).sum() == unfolded.cnt_all.sum()
    if pattern == "centric":
        assert (
            folded.cnt_hotdst * folded.class_mult
        ).sum() == unfolded.cnt_hotdst.sum()
        assert (
            folded.cnt_hotsrc * folded.class_mult
        ).sum() == unfolded.cnt_hotsrc.sum()
    # Total demand is identical, so the fixed point sees the same fabric.
    assert folded.coef.sum() == pytest.approx(unfolded.coef.sum(), rel=1e-12)


def test_unfoldable_schemes_degrade_to_unfolded():
    # mlid-hash routes depend on a hash of the full source label, which
    # the positionwise automorphism group does not preserve.
    sch = get_scheme("mlid-hash", FatTree(4, 2))
    assert not folding.foldable(sch, "uniform")
    model = build_flow_model(4, 2, "mlid-hash", "uniform", fold=True)
    assert not model.folded
    assert model.link_mult is None


def test_fold_false_keeps_the_oracle():
    model = _model(4, 2, "mlid", "uniform", False)
    assert not model.folded
    assert model.link_mult is None and model.class_mult is None


# -- bit-identity of link loads ----------------------------------------


@pytest.mark.parametrize("m, n, scheme, pattern", COMBOS)
def test_pair_count_link_loads_bit_identical(m, n, scheme, pattern):
    folded = _model(m, n, scheme, pattern, True)
    unfolded = _model(m, n, scheme, pattern, False)
    assert np.array_equal(
        flow_link_loads(folded, folded.cnt_all),
        flow_link_loads(unfolded, unfolded.cnt_all),
    )


@pytest.mark.parametrize("m, n", [(4, 2), (8, 2), (8, 3)])
@pytest.mark.parametrize("scheme", ["mlid", "slid"])
def test_all_to_one_link_loads_bit_identical(m, n, scheme):
    folded = _model(m, n, scheme, "centric", True)
    unfolded = _model(m, n, scheme, "centric", False)
    assert np.array_equal(
        all_to_one_link_loads(folded), all_to_one_link_loads(unfolded)
    )


@settings(deadline=None, max_examples=60)
@given(
    combo=st.sampled_from(COMBOS),
    a=st.integers(min_value=0, max_value=5),
    b=st.integers(min_value=0, max_value=3),
    c=st.integers(min_value=0, max_value=4),
)
def test_link_loads_bit_identical_property(combo, a, b, c):
    m, n, scheme, pattern = combo
    folded = _model(m, n, scheme, pattern, True)
    unfolded = _model(m, n, scheme, pattern, False)
    assert np.array_equal(
        flow_link_loads(folded, _class_weights(folded, a, b, c)),
        flow_link_loads(unfolded, _class_weights(unfolded, a, b, c)),
    )


# -- the route-kernel oracle, fed sparse class weights -----------------


def _decode_keys(model):
    key_mod = model.num_nodes * model.lids_per_node + 1
    return model.class_keys // key_mod, model.class_keys % key_mod


def _kernel_class_loads(kern, model, w):
    """Per-channel loads of ``model``'s classes, weighted by ``w``, read
    off the kernel's route tensor: each class's weight lands on its
    (leaf, DLID) cell of the dense matrix ``accumulate_link_loads``
    takes.  Integer weights keep every sum exact."""
    leaf, dlid = _decode_keys(model)
    dense = np.zeros((kern.num_leaves, kern.num_lids))
    np.add.at(dense, (leaf, dlid - 1), w)
    return kern.accumulate_link_loads(dense)


@pytest.mark.parametrize("scheme", ["mlid", "slid"])
def test_sparse_kernel_oracle_matches_unfolded(scheme):
    model = _model(8, 2, scheme, "uniform", False)
    kern = _kernel(8, 2, scheme)
    w = _class_weights(model, 2, 1, 3).astype(float)
    assert np.array_equal(
        _kernel_class_loads(kern, model, w),
        flow_link_loads(model, w),
    )


@pytest.mark.parametrize("scheme", ["mlid", "slid"])
def test_sparse_kernel_representatives_match_folded_totals(scheme):
    """Representative routes, weighted by orbit size, reproduce the
    folded model's per-type load totals straight from the route tensor."""
    model = _model(8, 2, scheme, "centric", True)
    kern = _kernel(8, 2, scheme)
    w = _class_weights(model, 1, 0, 2).astype(float)
    rep = _kernel_class_loads(kern, model, w * model.class_mult)
    num_types = model.link_mult.size
    from_kernel = np.bincount(
        model.link_type_of_code, weights=rep.ravel(), minlength=num_types
    )
    from_fold = np.bincount(
        model.link_type_of_code,
        weights=flow_link_loads(model, w).ravel(),
        minlength=num_types,
    )
    assert np.array_equal(from_kernel, from_fold)


# -- evaluated curves ---------------------------------------------------


def _cfg():
    return SimConfig(routing_engines_per_switch=0)


@settings(deadline=None, max_examples=40)
@given(
    combo=st.sampled_from(COMBOS),
    # Denormal loads underflow the per-class weights at different
    # magnitudes on the two representations (folded coefs carry the
    # orbit multiplicity), so the property holds on physical loads;
    # evaluate_point degrades to accepted=0 below that (guarded above).
    offered=st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-4, max_value=1.3, allow_nan=False),
    ),
)
def test_evaluate_point_matches_unfolded_property(combo, offered):
    m, n, scheme, pattern = combo
    cfg = _cfg()
    got = evaluate_point(_model(m, n, scheme, pattern, True), cfg, offered)
    want = evaluate_point(_model(m, n, scheme, pattern, False), cfg, offered)
    assert got["accepted"] == pytest.approx(want["accepted"], rel=1e-9, abs=1e-12)
    assert got["latency_mean"] == pytest.approx(
        want["latency_mean"], rel=1e-9, abs=1e-12, nan_ok=True
    )
    assert got["latency_p99"] == pytest.approx(
        want["latency_p99"], rel=1e-9, abs=1e-12, nan_ok=True
    )


@pytest.mark.parametrize("m, n, scheme, pattern", COMBOS)
def test_knee_utilization_matches_unfolded(m, n, scheme, pattern):
    cfg = _cfg()
    folded = knee_utilization(_model(m, n, scheme, pattern, True), cfg, 0.7)
    unfolded = knee_utilization(_model(m, n, scheme, pattern, False), cfg, 0.7)
    assert folded == pytest.approx(unfolded, rel=1e-12)


# -- warm-started curves ------------------------------------------------


def _strip_iters(result):
    return {k: v for k, v in result.items() if k != "iterations"}


def test_warm_start_same_fixed_points_fewer_iterations():
    # FT(8, 2) SLID/centric saturates hard: cold starts burn hundreds
    # of iterations past the knee, warm starts re-converge in a few.
    # Below the knee the fixed point is unique (theta = 1 exactly), so
    # the warm curve and the per-load cold solves must be *identical*;
    # past it the damped iteration admits a band of stable points
    # ~tolerance wide, so we bound the divergence instead of asserting
    # bit-equality.
    model = _model(8, 2, "slid", "centric", True)
    cfg = SimConfig()
    loads = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0]
    warm = evaluate_curve(model, cfg, loads)
    cold = [evaluate_point(model, cfg, load) for load in loads]
    for offered, w, c in zip(loads, warm, cold):
        if knee_utilization(model, cfg, offered) < 1.0:
            assert _strip_iters(w) == _strip_iters(c)
        else:
            assert w["accepted"] == pytest.approx(c["accepted"], rel=0.03)
    assert sum(w["iterations"] for w in warm) < sum(
        c["iterations"] for c in cold
    )


def test_warm_start_handles_unsorted_loads():
    model = _model(4, 2, "mlid", "uniform", True)
    cfg = _cfg()
    loads = [0.9, 0.2, 0.6]
    warm = evaluate_curve(model, cfg, loads)
    cold = [evaluate_point(model, cfg, load) for load in loads]
    assert [r["offered"] for r in warm] == loads
    for w, c in zip(warm, cold):
        assert w["accepted"] == pytest.approx(c["accepted"], rel=1e-9)


# -- saturation stays physical -----------------------------------------


@pytest.mark.parametrize("m, n, scheme, pattern", COMBOS)
def test_folded_curve_is_sane(m, n, scheme, pattern):
    model = _model(m, n, scheme, pattern, True)
    cfg = _cfg()
    for offered in (0.0, 0.5, 1.2):
        res = evaluate_point(model, cfg, offered)
        assert 0.0 <= res["accepted"] <= offered + 1e-12
        if offered:
            assert math.isfinite(res["latency_mean"])
