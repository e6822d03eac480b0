"""Tests for the MLID forwarding-table assignment (Equations 1 and 2)."""

import pytest

from repro.core.forwarding import MlidScheme
from repro.core.verification import trace_path
from repro.topology.fattree import FatTree


@pytest.fixture(scope="module")
def scheme43():
    return MlidScheme(FatTree(4, 3))


class TestEquation1:
    """Case 1: destination reachable downward -> k = p_l."""

    def test_root_always_descends(self, scheme43):
        # Roots reach everything; output = dest's top digit.
        for lid in [1, 17, 33, 49]:
            dest = scheme43.owner(lid)
            for root in scheme43.ft.switches_at_level(0):
                assert scheme43.output_port(root, lid) == dest[0]

    def test_leaf_descends_to_attached_node(self, scheme43):
        # DLIDs of P(101) at its own leaf SW<10,2> exit on port p_2 = 1.
        for lid in scheme43.lid_set((1, 0, 1)):
            assert scheme43.output_port(((1, 0), 2), lid) == 1

    def test_mid_level_descends_when_prefix_matches(self, scheme43):
        # SW<10,1> and dest P(100): prefix '1' matches -> port p_1 = 0.
        for lid in scheme43.lid_set((1, 0, 0)):
            assert scheme43.output_port(((1, 0), 1), lid) == 0


class TestEquation2:
    """Case 2: ascend on the offset digit for the level."""

    def test_paper_path_q_ports(self, scheme43):
        """DLID 49 (P(000) -> P(300), path Q): up port 2 at both
        ascending switches, then descend 3, 0, 0."""
        assert scheme43.output_port(((0, 0), 2), 49) == 2
        assert scheme43.output_port(((0, 0), 1), 49) == 2
        assert scheme43.output_port(((0, 0), 0), 49) == 3
        assert scheme43.output_port(((3, 0), 1), 49) == 0
        assert scheme43.output_port(((3, 0), 2), 49) == 0

    def test_offset_low_digit_used_at_leaf(self, scheme43):
        # DLIDs 49..52 differ in offset; at the leaf row the low offset
        # digit selects the up port.
        leaf = ((0, 0), 2)
        ports = [scheme43.output_port(leaf, lid) for lid in (49, 50, 51, 52)]
        assert ports == [2, 3, 2, 3]

    def test_offset_high_digit_used_below_root(self, scheme43):
        mid = ((0, 0), 1)
        ports = [scheme43.output_port(mid, lid) for lid in (49, 50, 51, 52)]
        assert ports == [2, 2, 3, 3]

    def test_up_ports_in_upper_half(self, scheme43):
        ft = scheme43.ft
        for sw in ft.switches:
            _, lvl = sw
            if lvl == 0:
                continue
            for lid in scheme43.addressing.all_lids():
                k = scheme43.output_port(sw, lid)
                dest = scheme43.owner(lid)
                if sw[0][:lvl] != dest[:lvl]:
                    assert k >= ft.half  # ascending
                else:
                    assert k < ft.half  # descending

    def test_full_ascent_reaches_root_named_by_offset(self):
        """Root reached by a full ascent is SW<offset, 0> in base m/2."""
        ft = FatTree(4, 3)
        scheme = MlidScheme(ft)
        src, dst = (0, 0, 0), (3, 1, 1)
        for offset in range(4):
            lid = scheme.base_lid(dst) + offset
            trace = trace_path(scheme, src, dst, dlid=lid)
            root = trace.turn
            assert root[1] == 0
            w = root[0]
            assert w[0] * 2 + w[1] == offset

    def test_invalid_lid_raises(self, scheme43):
        with pytest.raises(ValueError):
            scheme43.output_port(((0, 0), 0), 0)
        with pytest.raises(ValueError):
            scheme43.output_port(((0, 0), 0), 65)


class TestBuildTables:
    def test_tables_cover_every_switch_and_lid(self):
        ft = FatTree(4, 2)
        tables = MlidScheme(ft).build_tables()
        assert set(tables) == set(ft.switches)
        for entries in tables.values():
            assert len(entries) == MlidScheme(ft).num_lids
            assert all(0 <= k < ft.m for k in entries)

    def test_tables_match_output_port(self):
        ft = FatTree(4, 2)
        scheme = MlidScheme(ft)
        tables = scheme.build_tables()
        for sw, entries in tables.items():
            for lid0, k in enumerate(entries):
                assert k == scheme.output_port(sw, lid0 + 1)

    def test_strict_iba_flag_propagates(self):
        ft = FatTree(16, 4)
        with pytest.raises(ValueError):
            MlidScheme(ft)
        scheme = MlidScheme(ft, strict_iba=False)
        assert scheme.lmc == 9


class TestSchemeSurface:
    def test_lid_plan_properties(self, scheme43):
        assert scheme43.lmc == 2
        assert scheme43.lids_per_node == 4
        assert scheme43.num_lids == 64
        assert scheme43.name == "mlid"

    def test_owner_and_owner_pid(self, scheme43):
        assert scheme43.owner_pid(49) == 12
        assert scheme43.owner(49) == (3, 0, 0)

    def test_owner_pid_bounds(self, scheme43):
        with pytest.raises(ValueError):
            scheme43.owner_pid(0)
        with pytest.raises(ValueError):
            scheme43.owner_pid(65)
