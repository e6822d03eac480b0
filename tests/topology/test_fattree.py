"""Tests for the FT(m, n) construction."""

import pytest

from repro.topology import groups
from repro.topology.fattree import Endpoint, FatTree, PortRef

MN = [(4, 1), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2)]


@pytest.mark.parametrize("m,n", MN)
def test_counts(m, n):
    ft = FatTree(m, n)
    assert ft.num_nodes == groups.num_nodes(m, n)
    assert ft.num_switches == groups.num_switches(m, n)
    assert ft.height == n + 1


def test_bad_arity_rejected():
    with pytest.raises(ValueError):
        FatTree(6, 2)
    with pytest.raises(ValueError):
        FatTree(4, 0)


class TestWiring:
    def test_paper_edge_example(self, ft43):
        """The paper: SW<00,0> port <1> connects SW<01,1> port <2>.

        Edge rule: k = w'_l, k' = w_l + m/2; for parent SW<00,0> and
        child SW<01,1>, l = 0, so k = w'_0 = 0? — we verify the general
        rule on a concrete pair instead: parent SW<10,1>, child
        SW<10,2> differ at position 1.
        """
        # parent SW<10,1>, child SW<10,2>: w'_1 = 0 -> k=0, k' = w_1 + 2 = 2
        ep = ft43.peer(((1, 0), 1), 0)
        assert ep.switch == ((1, 0), 2) and ep.port == 2
        back = ft43.peer(((1, 0), 2), 2)
        assert back.switch == ((1, 0), 1) and back.port == 0

    def test_paper_leaf_example(self, ft43):
        """Port SW<11,2>[1] connects P(111) (k = p_{n-1})."""
        ep = ft43.peer(((1, 1), 2), 1)
        assert ep.is_node and ep.node == (1, 1, 1)

    def test_node_attachment(self, ft43):
        ref = ft43.node_attachment((1, 0, 1))
        assert ref == PortRef(((1, 0), 2), 1)

    def test_unknown_node_attachment(self, ft43):
        with pytest.raises(KeyError):
            ft43.node_attachment((9, 9, 9))

    def test_peer_validations(self, ft43):
        with pytest.raises(KeyError):
            ft43.peer(((9, 9), 0), 0)
        with pytest.raises(ValueError):
            ft43.peer(((0, 0), 0), 4)

    @pytest.mark.parametrize("m,n", MN)
    def test_every_port_wired(self, m, n):
        ft = FatTree(m, n)
        for s in ft.switches:
            for ep in ft.ports(s):
                assert ep.is_node or ep.is_switch

    @pytest.mark.parametrize("m,n", MN)
    def test_wiring_symmetric(self, m, n):
        ft = FatTree(m, n)
        for s in ft.switches:
            for k, ep in enumerate(ft.ports(s)):
                if ep.is_switch:
                    back = ft.peer(ep.switch, ep.port)
                    assert back.switch == s and back.port == k

    def test_root_has_no_up_ports(self, ft43):
        root = ((0, 0), 0)
        assert list(ft43.up_ports(root)) == []
        assert list(ft43.down_ports(root)) == [0, 1, 2, 3]

    def test_nonroot_port_split(self, ft43):
        sw = ((2, 1), 1)
        assert list(ft43.down_ports(sw)) == [0, 1]
        assert list(ft43.up_ports(sw)) == [2, 3]

    def test_each_nonroot_switch_has_half_parents(self, ft82):
        for s in ft82.switches:
            _, lvl = s
            if lvl == 0:
                continue
            parents = {ft82.peer(s, k).switch for k in ft82.up_ports(s)}
            assert len(parents) == ft82.half
            assert all(p[1] == lvl - 1 for p in parents)

    def test_leaf_switches_host_half_nodes(self, ft82):
        for s in ft82.switches_at_level(ft82.n - 1):
            hosted = [ep.node for ep in ft82.ports(s) if ep.is_node]
            assert len(hosted) == ft82.half


class TestIds:
    def test_node_id_equals_pid(self, ft43):
        for p in ft43.nodes:
            assert ft43.node_id(p) == ft43.pid(p)

    def test_node_from_pid_roundtrip(self, ft43):
        for pid in range(ft43.num_nodes):
            assert ft43.node_id(ft43.node_from_pid(pid)) == pid

    def test_switch_ids_dense(self, ft43):
        ids = sorted(ft43.switch_id(s) for s in ft43.switches)
        assert ids == list(range(ft43.num_switches))


class TestEndpoint:
    def test_node_endpoint_flags(self):
        ep = Endpoint(node=(0, 0))
        assert ep.is_node and not ep.is_switch

    def test_switch_endpoint_flags(self):
        ep = Endpoint(switch=((0,), 1), port=3)
        assert ep.is_switch and not ep.is_node

    def test_unwired_endpoint(self):
        ep = Endpoint()
        assert not ep.is_node and not ep.is_switch


def test_degenerate_single_switch_tree():
    """FT(m, 1): one switch, m nodes, all case-1 routing."""
    ft = FatTree(4, 1)
    assert ft.num_nodes == 4
    assert ft.num_switches == 1
    only = ft.switches[0]
    assert only == ((), 0)
    hosted = [ep.node for ep in ft.ports(only) if ep.is_node]
    assert sorted(hosted) == [(0,), (1,), (2,), (3,)]


class TestLazyWiring:
    """The per-port wiring is built on the first port query, not before."""

    @pytest.mark.parametrize(
        "query",
        [
            lambda ft: ft.peer(ft.switches[0], 0),
            lambda ft: ft.ports(ft.switches[-1]),
            lambda ft: ft.node_attachment(ft.nodes[0]),
        ],
        ids=["peer", "ports", "node_attachment"],
    )
    def test_first_query_builds_all_of_it(self, query):
        ft = FatTree(4, 3)
        assert "_wiring" not in vars(ft) and "_node_port" not in vars(ft)
        query(ft)
        assert len(ft._wiring) == ft.num_switches
        assert len(ft._node_port) == ft.num_nodes
        for p in ft.nodes:
            ref = ft.node_attachment(p)
            assert ft.peer(ref.switch, ref.port) == Endpoint(node=p)

    def test_built_once(self, monkeypatch):
        ft = FatTree(4, 2)
        calls = []
        wire = FatTree._wire
        monkeypatch.setattr(FatTree, "_wire", lambda self: calls.append(wire(self)))
        ft.node_attachment(ft.nodes[0])
        ft.ports(ft.switches[0])
        ft.peer(ft.switches[0], 1)
        assert len(calls) == 1

    def test_wired_twice_still_detected(self):
        ft = FatTree(4, 2)
        ft.switches.append(ft.switches[0])  # a root listed twice
        with pytest.raises(RuntimeError, match="wired twice"):
            ft.peer(ft.switches[0], 0)
