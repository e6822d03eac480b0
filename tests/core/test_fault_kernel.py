"""Differential tests: FaultRepairKernel vs the scalar repair oracle.

The kernel's contract is *bit-identity* with
:class:`repro.core.fault.FaultTolerantTables` — same tables, same
repaired-entry count, same DisconnectedError on the same first failing
destination.  These tests enforce it over randomized fault sets
(hypothesis), over incremental repair sequences, and on the empty set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fault import DisconnectedError, FaultSet, FaultTolerantTables
from repro.core.fault_kernel import FaultRepairKernel
from repro.core.scheme import get_scheme
from repro.topology.fattree import FatTree

GRIDS = [(4, 3), (8, 2), (8, 3)]
SCHEMES = ["mlid", "slid"]

# Compiled contexts are cached at module scope so hypothesis examples
# amortize the one-time adjacency/base-table compile.
_CTX = {}


def ctx(m, n, name):
    key = (m, n, name)
    if key not in _CTX:
        ft = FatTree(m, n)
        scheme = get_scheme(name, ft)
        _CTX[key] = (ft, scheme, FaultRepairKernel(scheme))
    return _CTX[key]


def scalar_tables(scheme, faults):
    """Oracle tables as an (S, L) array, or the DisconnectedError."""
    ftt = FaultTolerantTables(scheme, faults)
    arr = np.array([ftt.tables[sw] for sw in scheme.ft.switches])
    return arr, ftt.repaired_entries


def assert_matches_scalar(kernel, scheme, faults, **kwargs):
    try:
        expected, expected_repairs = scalar_tables(scheme, faults)
    except DisconnectedError as exc:
        with pytest.raises(DisconnectedError) as info:
            kernel.repair(faults, **kwargs)
        assert str(info.value) == str(exc)
        return None
    result = kernel.repair(faults, **kwargs)
    np.testing.assert_array_equal(result.array, expected)
    assert result.repaired_entries == expected_repairs
    return result


class TestEmptyFaultSet:
    @pytest.mark.parametrize("m,n", GRIDS)
    @pytest.mark.parametrize("name", SCHEMES)
    def test_reproduces_fault_free_tables(self, m, n, name):
        ft, scheme, kernel = ctx(m, n, name)
        kernel.reset()
        result = kernel.repair(FaultSet())
        assert result.repaired_entries == 0
        tables = scheme.build_tables()
        for sw, row in zip(ft.switches, result.array):
            assert row.tolist() == list(tables[sw])


class TestIdempotence:
    def test_same_faults_hit_the_cache(self):
        ft, scheme, kernel = ctx(4, 3, "mlid")
        kernel.reset()
        fs = FaultSet.random(ft, 2, seed=11)
        first = kernel.repair(fs)
        second = kernel.repair(fs)
        assert kernel.last_mode == "cached"
        assert kernel.destinations_recomputed == 0
        np.testing.assert_array_equal(first.array, second.array)
        assert first.repaired_entries == second.repaired_entries

    def test_snapshots_survive_later_repairs(self):
        ft, scheme, kernel = ctx(4, 3, "mlid")
        kernel.reset()
        fs = FaultSet.random(ft, 1, seed=3)
        first = kernel.repair(fs)
        before = first.array.copy()
        kernel.repair(FaultSet.random(ft, 3, seed=4))
        np.testing.assert_array_equal(first.array, before)


class TestFullRepairDifferential:
    @pytest.mark.parametrize("m,n", GRIDS)
    @pytest.mark.parametrize("name", SCHEMES)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 5))
    def test_bit_identical_to_scalar(self, m, n, name, seed, count):
        ft, scheme, kernel = ctx(m, n, name)
        kernel.reset()
        fs = FaultSet.random(ft, count, seed=seed)
        assert_matches_scalar(kernel, scheme, fs, incremental=False)


class TestIncrementalDifferential:
    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=6),
        counts=st.lists(st.integers(0, 4), min_size=2, max_size=6),
    )
    def test_sequences_bit_identical_to_scalar(self, seeds, counts):
        ft, scheme, kernel = ctx(4, 3, "mlid")
        kernel.reset()
        for seed, count in zip(seeds, counts):
            fs = (
                FaultSet.random(ft, count, seed=seed) if count else FaultSet()
            )
            assert_matches_scalar(kernel, scheme, fs)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_single_link_flap_matches_scalar(self, seed):
        # The runtime's canonical sequence: fail, then recover.
        ft, scheme, kernel = ctx(8, 2, "mlid")
        kernel.reset()
        fs = FaultSet.random(ft, 1, seed=seed)
        assert_matches_scalar(kernel, scheme, fs)
        assert_matches_scalar(kernel, scheme, FaultSet())
        assert_matches_scalar(kernel, scheme, fs)


def _sm_scenario(ft, scenario):
    """The fault sets an SM re-sweep sequence walks through, in order:
    one link, four links at once, or a six-step flap of two links."""
    if scenario == "single-link":
        return [FaultSet.random(ft, 1, seed=2)]
    if scenario == "multi-link":
        return [FaultSet.random(ft, 4, seed=7)]
    a = FaultSet.random(ft, 1, seed=2).links
    b = FaultSet.random(ft, 1, seed=3).links
    assert a != b
    fa, fb, fab = FaultSet(links=a), FaultSet(links=b), FaultSet(links=a | b)
    return [fa, fab, fb, fab, fa, fab]


@pytest.mark.parametrize("scenario", ["single-link", "multi-link", "flapping"])
def test_sm_scenarios_ft8x3_scalar_batched_incremental_agree(scenario):
    """FT(8,3) MLID: at every step of the scenario, the batched repair
    and the incremental repair (warmed on the fault-free fabric) equal
    the scalar oracle."""
    ft, scheme, kernel = ctx(8, 3, "mlid")
    sets = _sm_scenario(ft, scenario)
    oracle = {}
    for fs in sets:
        if fs not in oracle:
            oracle[fs] = scalar_tables(scheme, fs)
    kernel.reset()
    for fs in sets:
        result = kernel.repair(fs, incremental=False)
        np.testing.assert_array_equal(result.array, oracle[fs][0])
        assert result.repaired_entries == oracle[fs][1]
    kernel.reset()
    kernel.repair(FaultSet())
    for fs in sets:
        result = kernel.repair(fs)
        np.testing.assert_array_equal(result.array, oracle[fs][0])
        assert result.repaired_entries == oracle[fs][1]


class TestDisconnectionParity:
    def test_error_message_matches_scalar(self):
        ft, scheme, kernel = ctx(8, 2, "mlid")
        kernel.reset()
        # Cut every up link of the first leaf: its nodes are unreachable.
        leaf = ft.switches_at_level(1)[0]
        fs = FaultSet.from_pairs(
            ft, [(leaf, port) for port in ft.up_ports(leaf)]
        )
        with pytest.raises(DisconnectedError) as scalar_err:
            FaultTolerantTables(scheme, fs)
        with pytest.raises(DisconnectedError) as kernel_err:
            kernel.repair(fs)
        assert str(kernel_err.value) == str(scalar_err.value)

    def test_error_resets_the_incremental_cache(self):
        ft, scheme, kernel = ctx(8, 2, "mlid")
        kernel.reset()
        kernel.repair(FaultSet.random(ft, 1, seed=1))
        leaf = ft.switches_at_level(1)[0]
        fs = FaultSet.from_pairs(
            ft, [(leaf, port) for port in ft.up_ports(leaf)]
        )
        with pytest.raises(DisconnectedError):
            kernel.repair(fs)
        result = kernel.repair(FaultSet.random(ft, 1, seed=2))
        assert kernel.last_mode == "full"
        expected, _ = scalar_tables(scheme, FaultSet.random(ft, 1, seed=2))
        np.testing.assert_array_equal(result.array, expected)


class TestCompileCache:
    def test_as_scheme_round_trips_through_simulator_surface(self):
        ft, scheme, kernel = ctx(4, 3, "mlid")
        kernel.reset()
        fs = FaultSet.random(ft, 1, seed=5)
        repaired = kernel.repair(fs).as_scheme()
        ftt = FaultTolerantTables(scheme, fs)
        for sw in ft.switches:
            for lid in (1, scheme.num_lids // 2, scheme.num_lids):
                assert repaired.output_port(sw, lid) == ftt.tables[sw][lid - 1]
