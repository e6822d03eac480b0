"""Tests for the SLID baseline scheme."""

import pytest

from repro.core.slid import SlidScheme
from repro.core.verification import trace_path
from repro.topology.fattree import FatTree
from repro.topology.labels import node_labels


@pytest.fixture(scope="module")
def slid82():
    return SlidScheme(FatTree(8, 2))


class TestLidPlan:
    def test_one_lid_per_node(self, slid82):
        assert slid82.lmc == 0
        assert slid82.lids_per_node == 1
        assert slid82.num_lids == 32

    def test_lid_is_pid_plus_one(self, slid82):
        for p in slid82.ft.nodes:
            assert slid82.base_lid(p) == slid82.ft.pid(p) + 1

    def test_lid_set_singleton(self, slid82):
        assert list(slid82.lid_set((3, 1))) == [slid82.base_lid((3, 1))]

    def test_dlid_equals_destination_lid(self, slid82):
        assert slid82.dlid((0, 0), (3, 1)) == slid82.base_lid((3, 1))

    def test_self_traffic_rejected(self, slid82):
        with pytest.raises(ValueError):
            slid82.dlid((1, 1), (1, 1))

    def test_invalid_source_rejected(self, slid82):
        with pytest.raises(ValueError):
            slid82.dlid((9, 9), (0, 0))


class TestForwarding:
    def test_descend_uses_dest_digit(self, slid82):
        lid = slid82.base_lid((3, 2))
        for root in slid82.ft.switches_at_level(0):
            assert slid82.output_port(root, lid) == 3
        assert slid82.output_port(((3,), 1), lid) == 2

    def test_ascend_uses_dest_digit_plus_half(self, slid82):
        lid = slid82.base_lid((3, 2))
        # Any leaf not hosting the dest ascends via port p_1 + m/2 = 6.
        assert slid82.output_port(((0,), 1), lid) == 6

    def test_paper_figure7_destination_spread(self):
        """Figure 7: dests E, F, G, H (the four nodes of another leaf)
        leave switch x through the four different roots."""
        ft = FatTree(8, 2)
        scheme = SlidScheme(ft)
        src_leaf = ((0,), 1)
        dests = [(4, k) for k in range(4)]  # one remote leaf's nodes
        ports = [
            scheme.output_port(src_leaf, scheme.base_lid(d)) for d in dests
        ]
        assert sorted(ports) == [4, 5, 6, 7]

    def test_all_traffic_to_one_dest_shares_one_root(self):
        """SLID's weakness: every source reaches a destination through
        the same root switch."""
        ft = FatTree(8, 2)
        scheme = SlidScheme(ft)
        dst = (0, 0)
        roots = set()
        for src in ft.nodes:
            if src == dst or src[0] == dst[0]:
                continue
            roots.add(trace_path(scheme, src, dst).turn)
        assert len(roots) == 1

    def test_tables_match_output_port(self):
        ft = FatTree(4, 2)
        scheme = SlidScheme(ft)
        tables = scheme.build_tables()
        for sw, entries in tables.items():
            for lid0, k in enumerate(entries):
                assert k == scheme.output_port(sw, lid0 + 1)

    @pytest.mark.parametrize("m,n", [(4, 2), (8, 2), (4, 3), (8, 3)])
    def test_tables_follow_prose_rule(self, m, n):
        """Every table entry is the Section 5 rule, computed from the
        labels alone: descend on ``p_l`` when the switch's level-``l``
        prefix is the destination's, otherwise ascend on
        ``p_l + m/2``."""
        ft = FatTree(m, n)
        tables = SlidScheme(ft).build_tables()
        dests = list(node_labels(m, n))  # LID = PID + 1, in PID order
        for (w, level), entries in tables.items():
            expected = [
                p[level] if tuple(w[:level]) == tuple(p[:level])
                else p[level] + m // 2
                for p in dests
            ]
            assert entries == expected

    @pytest.mark.parametrize("m,n", [(4, 2), (4, 3), (8, 2)])
    def test_lid_space_dense(self, m, n):
        scheme = SlidScheme(FatTree(m, n))
        lids = sorted(scheme.base_lid(p) for p in node_labels(m, n))
        assert lids == list(range(1, scheme.num_lids + 1))
