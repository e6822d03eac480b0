"""Tests for the structural validator (including tamper detection)."""

import pytest

from repro.topology.fattree import Endpoint, FatTree
from repro.topology.graph import to_networkx
from repro.topology.validate import TopologyError, link_walk, validate_fattree

MN = [(4, 1), (4, 2), (4, 3), (8, 2), (8, 3), (16, 2)]


@pytest.mark.parametrize("m,n", MN)
def test_constructed_trees_validate(m, n):
    validate_fattree(FatTree(m, n))


@pytest.mark.parametrize("m,n", MN)
def test_link_walk_counts_the_graph_edges(m, n):
    """The validator's own walk against the networkx export."""
    ft = FatTree(m, n)
    assert link_walk(ft) == (to_networkx(ft).number_of_edges(), True)


def test_link_walk_detects_disconnection():
    ft = FatTree(4, 2)
    leaf = ((0,), 1)
    for k in ft.up_ports(leaf):  # tamper: cut the leaf off, both ways
        ep = ft.peer(leaf, k)
        ft._wiring[ep.switch][ep.port] = Endpoint()
        ft._wiring[leaf][k] = Endpoint()
    assert link_walk(ft)[1] is False


def test_detects_unwired_port():
    ft = FatTree(4, 2)
    sw = ft.switches[0]
    ft._wiring[sw][0] = Endpoint()  # tamper: disconnect a port
    with pytest.raises(TopologyError, match="unwired"):
        validate_fattree(ft)


def test_detects_asymmetric_wiring():
    ft = FatTree(4, 2)
    # Point a root's port at the wrong peer port.
    root = ((0,), 0)
    ep = ft.peer(root, 0)
    ft._wiring[root][0] = Endpoint(switch=ep.switch, port=(ep.port + 1) % 4)
    with pytest.raises(TopologyError):
        validate_fattree(ft)


def test_detects_wrong_node_attachment():
    ft = FatTree(4, 2)
    leaf = ((0,), 1)
    ft._wiring[leaf][0] = Endpoint(node=(1, 1))  # wrong node here
    with pytest.raises(TopologyError):
        validate_fattree(ft)


def test_detects_node_on_upper_level():
    ft = FatTree(4, 3)
    mid = ((0, 0), 1)
    ft._wiring[mid][0] = Endpoint(node=(0, 0, 0))
    with pytest.raises(TopologyError, match="level n-1"):
        validate_fattree(ft)


def test_detects_level_skipping_link():
    ft = FatTree(4, 3)
    root = ((0, 0), 0)
    leaf = ((0, 0), 2)
    ft._wiring[root][0] = Endpoint(switch=leaf, port=2)
    with pytest.raises(TopologyError):
        validate_fattree(ft)


def test_detects_wrong_child_digit():
    ft = FatTree(4, 2)
    root = ((0,), 0)
    # Child reachable via port 0 must have w0 == 0; rewire to w0 == 1.
    wrong_child = ((1,), 1)
    ft._wiring[root][0] = Endpoint(switch=wrong_child, port=2)
    with pytest.raises(TopologyError):
        validate_fattree(ft)


def test_32port_scale_validates():
    """The largest evaluated topology (512 nodes) is structurally sound."""
    validate_fattree(FatTree(32, 2))
