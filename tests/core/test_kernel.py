"""Kernel-vs-scalar equivalence: the vectorized route kernel must be
indistinguishable from the scalar tracer on every output — per-path
switch sequences, ports and turns, verification verdicts and counts,
LCA-usage histograms, all-to-one link loads, and CDG edge sets.

The scalar side is :func:`~repro.core.verification.trace_path`: the
verifier :func:`~repro.core.verification.scalar_verify_scheme` and the
``scalar_*`` helpers below are built on it."""

from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import verification as v
from repro.core.extensions import DestStaggeredMlidScheme, HashedMlidScheme
from repro.core.forwarding import MlidScheme
from repro.core.kernel import RouteKernel, compile_kernel
from repro.core.scheme import RoutingScheme
from repro.core.slid import SlidScheme
from repro.core.updown import UpDownScheme
from repro.topology.fattree import FatTree

MN = [(4, 2), (8, 2), (4, 3)]
SCHEMES = [MlidScheme, SlidScheme]


def _schemes(m, n):
    ft = FatTree(m, n)
    return [cls(ft) for cls in SCHEMES]


def _all_to_one(scheme, dst):
    """The selected route of every other node to ``dst``."""
    return [
        v.trace_path(scheme, src, dst) for src in scheme.ft.nodes if src != dst
    ]


def scalar_lca_usage(scheme, dst):
    return Counter(trace.turn for trace in _all_to_one(scheme, dst))


def scalar_link_loads_all_to_one(scheme, dst):
    loads = Counter()
    for trace in _all_to_one(scheme, dst):
        loads.update(trace.links)
    return loads


def scalar_channel_dependency_graph(scheme):
    """Every route of every LID, each consecutive channel pair an edge."""
    ft = scheme.ft
    g = nx.DiGraph()
    for src in ft.nodes:
        for dst in ft.nodes:
            if src == dst:
                continue
            for lid in scheme.lid_set(dst):
                links = v.trace_path(scheme, src, dst, dlid=lid).links
                g.add_edges_from(zip(links, links[1:]))
    return g


@pytest.mark.parametrize("m,n", MN)
@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
def test_per_path_equivalence(m, n, cls):
    """Every (src, dst, DLID) route: identical switches, ports, turn."""
    ft = FatTree(m, n)
    scheme = cls(ft)
    kernel = compile_kernel(scheme)
    for src in ft.nodes:
        for dst in ft.nodes:
            if src == dst:
                continue
            for lid in scheme.lid_set(dst):
                scalar = v.trace_path(scheme, src, dst, dlid=lid)
                fast = kernel.path(src, dst, lid)
                assert fast == scalar
                assert fast.turn == scalar.turn
                assert fast.links == scalar.links


@pytest.mark.parametrize("m,n", MN)
@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
def test_selected_path_default_dlid(m, n, cls):
    scheme = cls(FatTree(m, n))
    kernel = compile_kernel(scheme)
    src, dst = scheme.ft.nodes[0], scheme.ft.nodes[-1]
    assert kernel.path(src, dst) == v.trace_path(scheme, src, dst)


@pytest.mark.parametrize("m,n", MN)
def test_verify_counts_match_scalar(m, n):
    for scheme in _schemes(m, n):
        for offsets in (True, False):
            fast = v.verify_scheme(scheme, check_offsets=offsets)
            slow = v.scalar_verify_scheme(scheme, check_offsets=offsets)
            assert fast == slow


@pytest.mark.parametrize("m,n", MN)
def test_verify_pairs_subset(m, n):
    for scheme in _schemes(m, n):
        nodes = scheme.ft.nodes
        pairs = [(nodes[0], nodes[-1]), (nodes[1], nodes[2])]
        fast = v.verify_scheme(scheme, pairs=pairs)
        slow = v.scalar_verify_scheme(scheme, pairs=pairs)
        assert fast == slow == 2 * scheme.lids_per_node


@pytest.mark.parametrize("m,n", MN)
def test_lca_usage_equivalence(m, n):
    for scheme in _schemes(m, n):
        for dst in (scheme.ft.nodes[0], scheme.ft.nodes[-1]):
            assert v.lca_usage(scheme, dst) == scalar_lca_usage(scheme, dst)


@pytest.mark.parametrize("m,n", MN)
def test_link_loads_equivalence(m, n):
    for scheme in _schemes(m, n):
        for dst in (scheme.ft.nodes[0], scheme.ft.nodes[-1]):
            assert v.link_loads_all_to_one(
                scheme, dst
            ) == scalar_link_loads_all_to_one(scheme, dst)


@pytest.mark.parametrize("m,n", MN)
def test_cdg_edge_set_equivalence(m, n):
    for scheme in _schemes(m, n):
        fast = v.channel_dependency_graph(scheme)
        slow = scalar_channel_dependency_graph(scheme)
        assert set(fast.edges) == set(slow.edges)
        assert set(fast.nodes) == set(slow.nodes)


def test_cdg_equivalence_updown_scheme():
    """Non-minimal up*/down* detours exercise the long-route tail."""
    scheme = UpDownScheme(FatTree(4, 2))
    fast = v.channel_dependency_graph(scheme)
    slow = scalar_channel_dependency_graph(scheme)
    assert set(fast.edges) == set(slow.edges)


def test_degenerate_single_switch_tree():
    """FT(4, 1): one leaf switch, every route is one hop."""
    scheme = MlidScheme(FatTree(4, 1))
    kernel = compile_kernel(scheme)
    assert kernel.verify() == v.scalar_verify_scheme(scheme)
    src, dst = scheme.ft.nodes[0], scheme.ft.nodes[1]
    assert kernel.path(src, dst) == v.trace_path(scheme, src, dst)


def test_extension_selection_policies_verify_and_agree():
    """mlid-hash / mlid-stagger: the dense DLID matrix now matches the
    scalar ``dlid`` (regression: the inherited vectorized matrix used
    to silently drop the hash/stagger term)."""
    ft = FatTree(4, 2)
    for cls in (HashedMlidScheme, DestStaggeredMlidScheme):
        scheme = cls(ft)
        matrix = scheme.dlid_matrix()
        for s, src in enumerate(ft.nodes):
            for d, dst in enumerate(ft.nodes):
                if s != d:
                    assert matrix[s, d] == scheme.dlid(src, dst)
        assert compile_kernel(scheme).verify(
            check_offsets=False
        ) == v.scalar_verify_scheme(scheme, check_offsets=False)


class _Misdelivering(MlidScheme):
    """Leaf entry corrupted: one DLID exits the wrong node port."""

    def output_port(self, switch, lid):
        k = super().output_port(switch, lid)
        if switch == ((0,), 1) and lid == 1:
            return (k + 1) % self.ft.half
        return k


class _Looping(MlidScheme):
    """One DLID always ascends at level 1: never delivered."""

    def output_port(self, switch, lid):
        k = super().output_port(switch, lid)
        if switch[1] == 1 and lid == 3:
            return self.ft.m - 1
        return k


class _BadPort(MlidScheme):
    """Forwarding entry outside the physical port range."""

    def output_port(self, switch, lid):
        k = super().output_port(switch, lid)
        if switch[1] == 0 and lid == 7:
            return 99
        return k


@pytest.mark.parametrize("cls", [_Misdelivering, _Looping, _BadPort])
def test_kernel_raises_scalar_identical_errors(cls):
    """output_port overridden under the vectorized build_tables: the
    kernel must still see the corruption (MRO guard) and must raise the
    exact message the scalar oracle raises."""
    ft = FatTree(4, 2)
    with pytest.raises(v.RoutingError) as kernel_err:
        v.verify_scheme(cls(ft))
    with pytest.raises(v.RoutingError) as scalar_err:
        v.scalar_verify_scheme(cls(ft))
    assert str(kernel_err.value) == str(scalar_err.value)


def test_aggregate_queries_raise_on_broken_routes():
    ft = FatTree(4, 2)
    scheme = _Looping(ft)
    kernel = compile_kernel(scheme)
    with pytest.raises(v.RoutingError):
        kernel.cdg_edges()
    dst = scheme.owner(3)
    with pytest.raises(v.RoutingError):
        kernel.lca_usage(dst)
    with pytest.raises(v.RoutingError):
        kernel.link_loads_all_to_one(dst)


@pytest.mark.parametrize("m,n", MN)
@pytest.mark.parametrize("cls", SCHEMES, ids=lambda c: c.name)
def test_accumulate_link_loads_matches_all_to_one(m, n, cls):
    """One-hot weights on the selected routes to one destination are
    bit-identical to link_loads_all_to_one (integer accumulation is
    exact in float64)."""
    ft = FatTree(m, n)
    scheme = cls(ft)
    kernel = compile_kernel(scheme)
    dst = ft.nodes[0]
    d = ft.node_id(dst)
    weights = np.zeros((kernel.num_leaves, kernel.num_lids))
    for s in range(kernel.num_nodes):
        if s == d:
            continue
        lid = int(kernel.selected[s, d])
        weights[kernel.attach_leaf[s], lid - 1] += 1.0
    loads = kernel.accumulate_link_loads(weights)
    expected = kernel.link_loads_all_to_one(dst)
    got = {
        (ft.switches[i], k): loads[i, k]
        for i in range(kernel.num_switches)
        for k in range(kernel.m)
        if loads[i, k]
    }
    assert got == dict(expected)


def test_accumulate_link_loads_counts_every_hop():
    """Unit weight on every route: each route contributes exactly
    route_len channel loads (inter-switch hops + the ejection hop)."""
    kernel = compile_kernel(MlidScheme(FatTree(4, 2)))
    ones = np.ones((kernel.num_leaves, kernel.num_lids))
    loads = kernel.accumulate_link_loads(ones)
    assert loads.shape == (kernel.num_switches, kernel.m)
    assert loads.sum() == kernel.route_len.sum()


def test_accumulate_link_loads_shape_validated():
    kernel = compile_kernel(MlidScheme(FatTree(4, 2)))
    with pytest.raises(ValueError, match="weights must be"):
        kernel.accumulate_link_loads(np.ones((3, 3)))


def test_from_lfts_matches_from_scheme():
    """Compiling from programmed LFTs (1-based physical ports) equals
    compiling from the scheme's 0-based tables."""
    from repro.ib.sm import SubnetManager

    scheme = MlidScheme(FatTree(4, 2))
    lfts = SubnetManager(scheme).configure()
    a = RouteKernel.from_scheme(scheme)
    b = RouteKernel.from_lfts(scheme, lfts)
    assert np.array_equal(a.port, b.port)
    assert np.array_equal(a.route_switch, b.route_switch)
    assert np.array_equal(a.delivered, b.delivered)


def test_compile_kernel_memoizes_per_scheme_instance():
    scheme = MlidScheme(FatTree(4, 2))
    assert compile_kernel(scheme) is compile_kernel(scheme)
    other = MlidScheme(FatTree(4, 2))
    assert compile_kernel(other) is not compile_kernel(scheme)


def test_port_matrix_shape_validated():
    scheme = MlidScheme(FatTree(4, 2))
    with pytest.raises(ValueError, match="port matrix"):
        RouteKernel(scheme, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="port matrix"):
        compile_kernel(scheme).retraced(np.zeros((2, 2), dtype=np.int64))


def test_generic_scheme_without_vectorized_tables():
    """A scheme relying on the generic per-entry build_tables loop
    compiles and verifies through the kernel too."""

    class PlainMlid(RoutingScheme):
        name = "plain"
        _inner = None

        def __init__(self, ft):
            super().__init__(ft)
            self._inner = MlidScheme(ft)

        @property
        def lmc(self):
            return self._inner.lmc

        def base_lid(self, node):
            return self._inner.base_lid(node)

        def dlid(self, src, dst):
            return self._inner.dlid(src, dst)

        def output_port(self, switch, lid):
            return self._inner.output_port(switch, lid)

    scheme = PlainMlid(FatTree(4, 2))
    assert compile_kernel(scheme).verify() == v.scalar_verify_scheme(scheme)


# ----------------------------------------------------------------------
# Column retrace: RouteKernel.retraced equals a fresh compile
# ----------------------------------------------------------------------
ROUTE_ARRAYS = (
    "port",
    "route_switch",
    "route_port",
    "route_len",
    "delivered",
    "bad_port",
)


def assert_same_routes(got: RouteKernel, want: RouteKernel) -> None:
    """Every route array equal in value and dtype."""
    for name in ROUTE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


_BASE_KERNELS = {}


def _base_kernel(m, n, cls) -> RouteKernel:
    key = (m, n, cls)
    if key not in _BASE_KERNELS:
        _BASE_KERNELS[key] = RouteKernel.from_scheme(cls(FatTree(m, n)))
    return _BASE_KERNELS[key]


def _perturbed(kernel, data, label) -> np.ndarray:
    """The kernel's port matrix with a drawn set of DLID columns
    rewritten to any port in [-1, m]: out-of-range entries, misroutes
    and loops.  The set may be empty or every column."""
    lids = kernel.num_lids
    cols = data.draw(
        st.one_of(
            st.just([]),
            st.just(list(range(lids))),
            st.lists(st.integers(0, lids - 1), unique=True, max_size=lids),
        ),
        label=f"{label} columns",
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label=f"{label} seed")
    port = kernel.port.copy()
    rng = np.random.default_rng(seed)
    port[:, cols] = rng.integers(-1, kernel.m + 1, (kernel.num_switches, len(cols)))
    if cols and data.draw(st.booleans(), label=f"{label} ping-pong"):
        # The first leaf sends the column up; its parent sends it back.
        leaf = int(kernel.leaf_switch[0])
        up = kernel.m - 1
        parent = int(kernel.peer_switch[leaf, up])
        port[leaf, cols[0]] = up
        port[parent, cols[0]] = int(
            np.flatnonzero(kernel.peer_switch[parent] == leaf)[0]
        )
    return port


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from([(4, 2), (8, 2), (4, 3)]),
    cls=st.sampled_from(SCHEMES),
)
def test_retraced_equals_fresh_compile(data, shape, cls):
    """Retrace a drawn column subset, then retrace again from the
    perturbed kernel: each result equals ``RouteKernel`` of its port
    matrix, and neither source kernel is written."""
    base = _base_kernel(*shape, cls)
    base.estimated_link_loads()  # fill route-derived caches
    base._route_checks()
    before = {name: getattr(base, name).copy() for name in ROUTE_ARRAYS}

    first_port = _perturbed(base, data, "first")
    first = base.retraced(first_port)
    assert_same_routes(first, RouteKernel(base.scheme, first_port))
    assert first._checks is None
    assert first._sel_weights is None
    assert first._sel_loads is None

    first_arrays = {name: getattr(first, name).copy() for name in ROUTE_ARRAYS}
    second_port = _perturbed(base, data, "second")
    second = first.retraced(second_port)
    assert_same_routes(second, RouteKernel(base.scheme, second_port))

    for name in ROUTE_ARRAYS:
        assert np.array_equal(getattr(base, name), before[name]), name
        assert np.array_equal(getattr(first, name), first_arrays[name]), name


def test_retraced_has_loop_and_bad_port_routes():
    """The perturbations above do reach both failure modes: a ping-pong
    column is undelivered without a bad port, an entry of 99 is a bad
    port."""
    base = _base_kernel(4, 2, MlidScheme)
    port = base.port.copy()
    leaf = int(base.leaf_switch[0])
    parent = int(base.peer_switch[leaf, base.m - 1])
    port[leaf, 0] = base.m - 1
    port[parent, 0] = int(np.flatnonzero(base.peer_switch[parent] == leaf)[0])
    port[leaf, 1] = 99
    kernel = base.retraced(port)
    assert_same_routes(kernel, RouteKernel(base.scheme, port))
    assert kernel.delivered[0, 0] == -1 and not kernel.bad_port[0, 0]
    assert kernel.bad_port[0, 1] and kernel.delivered[0, 1] == -1


def test_retraced_queries_equal_fresh_compile():
    """A kernel retraced onto fault-repaired tables answers the
    service's load and flow queries exactly as a fresh compile does."""
    from repro.core.fault import FaultSet, FaultTolerantTables

    scheme = MlidScheme(FatTree(8, 2))
    ft = scheme.ft
    base = RouteKernel.from_scheme(scheme)
    root = ft.switches_at_level(0)[0]
    tables = FaultTolerantTables(
        scheme, FaultSet.from_pairs(ft, [(root, 0), (root, 1)])
    ).tables
    port = np.array([tables[sw] for sw in ft.switches], dtype=np.int64)
    retraced = base.retraced(port)
    fresh = RouteKernel(scheme, port)
    assert_same_routes(retraced, fresh)
    assert np.array_equal(
        retraced.estimated_link_loads(), fresh.estimated_link_loads()
    )
    for sw in range(ft.num_switches):
        for k in range(ft.m):
            got = retraced.flows_crossing(sw, k)
            want = fresh.flows_crossing(sw, k)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
