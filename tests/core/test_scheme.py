"""Tests for the scheme registry and shared RoutingScheme surface."""

import numpy as np
import pytest

from repro.core.fault import FaultSet, FaultTolerantTables
from repro.core.fault_kernel import FaultRepairKernel
from repro.core.forwarding import MlidScheme
from repro.core.kernel import RouteKernel, fabric_arrays
from repro.core.scheme import (
    RoutingScheme,
    available_schemes,
    get_scheme,
    register_scheme,
)
from repro.core.slid import SlidScheme
from repro.experiments.flowlevel import build_flow_model
from repro.ib.artifacts import build_artifacts
from repro.ib.sm import SubnetManager
from repro.ib.subnet import build_subnet
from repro.topology.fattree import FatTree


def test_builtin_schemes_registered():
    assert set(available_schemes()) >= {"mlid", "slid"}


def test_get_scheme_case_insensitive(ft42):
    assert isinstance(get_scheme("MLID", ft42), MlidScheme)
    assert isinstance(get_scheme("Slid", ft42), SlidScheme)


def test_get_unknown_scheme(ft42):
    with pytest.raises(KeyError, match="unknown scheme"):
        get_scheme("ecmp", ft42)


def test_double_registration_rejected():
    with pytest.raises(ValueError):
        register_scheme("mlid", MlidScheme)


def test_custom_scheme_registration(ft42):
    class Custom(SlidScheme):
        name = "custom-test"

    try:
        register_scheme("custom-test", Custom)
        assert isinstance(get_scheme("custom-test", ft42), Custom)
    finally:
        from repro.core import scheme as scheme_mod

        scheme_mod._REGISTRY.pop("custom-test", None)


def test_build_tables_shape(ft42):
    for name in ("mlid", "slid"):
        scheme = get_scheme(name, ft42)
        tables = scheme.build_tables()
        assert len(tables) == ft42.num_switches
        for entries in tables.values():
            assert len(entries) == scheme.num_lids


def test_abstract_scheme_cannot_instantiate(ft42):
    with pytest.raises(TypeError):
        RoutingScheme(ft42)  # abstract methods missing


def test_schemes_agree_on_pid_ordering(ft42):
    """Both schemes assign base LIDs in PID order."""
    mlid = get_scheme("mlid", ft42)
    slid = get_scheme("slid", ft42)
    mlid_order = sorted(ft42.nodes, key=mlid.base_lid)
    slid_order = sorted(ft42.nodes, key=slid.base_lid)
    assert mlid_order == slid_order == ft42.nodes


class TestDlidMatrix:
    """Vectorized DLID matrices must equal the pairwise closed form."""

    @pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (8, 2), (8, 3)])
    @pytest.mark.parametrize("name", ["mlid", "slid"])
    def test_matrix_matches_pairwise(self, m, n, name):
        from repro.topology.fattree import FatTree

        ft = FatTree(m, n)
        scheme = get_scheme(name, ft)
        matrix = scheme.dlid_matrix()
        assert matrix.shape == (ft.num_nodes, ft.num_nodes)
        for s, src in enumerate(ft.nodes):
            for d, dst in enumerate(ft.nodes):
                if s == d:
                    assert matrix[s, d] == 0
                else:
                    assert matrix[s, d] == scheme.dlid(src, dst)

    def test_generic_fallback_used_by_extensions(self, ft42):
        from repro.core.extensions import HashedMlidScheme

        scheme = HashedMlidScheme(ft42)
        matrix = scheme.dlid_matrix()
        assert matrix[0, 5] == scheme.dlid(ft42.nodes[0], ft42.nodes[5])


@pytest.mark.parametrize("m,n", [(4, 2), (8, 2), (4, 3)])
@pytest.mark.parametrize("name", available_schemes())
def test_derived_forms_equal_scalar_forms(name, m, n):
    """Tables, DLID matrix and batch forwarding of every registered
    scheme equal its scalar ``output_port`` and ``dlid``."""
    ft = FatTree(m, n)
    scheme = get_scheme(name, ft)
    lids = range(1, scheme.num_lids + 1)
    tables = scheme.build_tables()
    assert list(tables) == ft.switches
    for sw, entries in tables.items():
        assert entries == [scheme.output_port(sw, lid) for lid in lids]
    assert scheme.dlid_matrix().tolist() == [
        [0 if s == d else scheme.dlid(src, dst) for d, dst in enumerate(ft.nodes)]
        for s, src in enumerate(ft.nodes)
    ]
    rng = np.random.default_rng(1)
    switch_ids = rng.integers(0, ft.num_switches, 500)
    pair_lids = rng.integers(1, scheme.num_lids + 1, 500)
    assert scheme.output_port_batch(switch_ids, pair_lids).tolist() == [
        scheme.output_port(ft.switches[s], lid)
        for s, lid in zip(switch_ids.tolist(), pair_lids.tolist())
    ]


# -- one override, every consumer ---------------------------------------

#: On FT(4, 2): the leaf hosting nodes (0, 0) and (0, 1), and the second
#: LID of node (1, 0), which that leaf forwards up out of port 3.
_SWITCH, _LID, _PORT = ((0,), 1), 6, 2
#: MLID sends (0, 0) -> (1, 0) on its destination's first LID, 5.
_SRC, _DST = (0, 0), (1, 0)


class _OneEntryOverride(MlidScheme):
    """MLID with one forwarding entry and one path selection changed,
    overriding only the scalar rules beneath MLID's closed forms."""

    name = "mlid-one-entry"

    def output_port(self, switch, lid):
        if (switch, lid) == (_SWITCH, _LID):
            return _PORT
        return super().output_port(switch, lid)

    def dlid(self, src, dst):
        if (src, dst) == (_SRC, _DST):
            return _LID
        return super().dlid(src, dst)


class TestOverrideReachesEveryConsumer:
    """Each consumer reads the scheme through its public derived forms,
    so both overrides show everywhere the scheme is used."""

    @pytest.fixture
    def scheme(self):
        return _OneEntryOverride(FatTree(4, 2))

    @pytest.fixture
    def registered(self):
        register_scheme(_OneEntryOverride.name, _OneEntryOverride)
        try:
            yield _OneEntryOverride.name
        finally:
            from repro.core import scheme as scheme_mod

            scheme_mod._REGISTRY.pop(_OneEntryOverride.name, None)

    def test_overrides_differ_from_mlid(self, scheme):
        mlid = MlidScheme(scheme.ft)
        assert mlid.output_port(_SWITCH, _LID) != _PORT
        assert mlid.dlid(_SRC, _DST) != _LID

    def test_subnet_manager_lfts(self, scheme):
        lfts = SubnetManager(scheme).configure()
        assert lfts[_SWITCH].lookup(_LID) == _PORT + 1

    def test_fault_tolerant_tables(self, scheme):
        tables = FaultTolerantTables(scheme, FaultSet()).tables
        assert tables[_SWITCH][_LID - 1] == _PORT

    def test_fault_repair_kernel_base(self, scheme):
        kernel = FaultRepairKernel(scheme)
        assert kernel.base[scheme.ft.switch_id(_SWITCH), _LID - 1] == _PORT

    def test_fresh_subnet_dlid_for(self, scheme):
        ft = scheme.ft
        net = build_subnet(4, 2, scheme)
        try:
            assert net.dlid_for(ft.node_id(_SRC), ft.node_id(_DST)) == _LID
        finally:
            net.close()

    def test_build_artifacts(self, registered):
        art = build_artifacts(4, 2, registered)
        ft = art.ft
        assert art.lfts[_SWITCH].lookup(_LID) == _PORT + 1
        s, d = ft.node_id(_SRC), ft.node_id(_DST)
        assert art.dlid_flat[s * ft.num_nodes + d] == _LID
        assert art.kernel.port[ft.switch_id(_SWITCH), _LID - 1] == _PORT

    def test_route_kernel(self, scheme):
        ft = scheme.ft
        kernel = RouteKernel.from_scheme(scheme)
        assert kernel.port[ft.switch_id(_SWITCH), _LID - 1] == _PORT
        assert kernel.selected[ft.node_id(_SRC), ft.node_id(_DST)] == _LID

    def test_unfolded_flow_model(self, registered):
        model = build_flow_model(4, 2, registered, fold=False)
        ft = FatTree(4, 2)
        key_mod = model.num_nodes * model.lids_per_node + 1
        leaf = int(fabric_arrays(ft).attach_leaf[ft.node_id(_SRC)])
        keys = model.class_keys.tolist()
        # Both sources on the leaf now select the overridden LID...
        assert leaf * key_mod + _LID - 1 not in keys
        i = keys.index(leaf * key_mod + _LID)
        assert model.cnt_all[i] == 2
        # ...and its route leaves the leaf on the overridden port.
        first = model.flat_codes[model.offsets[i]]
        assert first == ft.switch_id(_SWITCH) * ft.m + _PORT
