"""Tests for IBA-style weighted VL arbitration."""

import pytest

from repro.ib.config import SimConfig
from repro.ib.link import Transmitter
from repro.ib.packet import Packet
from repro.ib.vl_arbitration import (
    MAX_WEIGHT,
    VlArbEntry,
    VlArbitrationTable,
    WeightedVlArbiter,
)
from repro.sim.engine import Engine


def always_ready(_vl):
    return True


def ready_set(*vls):
    allowed = set(vls)
    return lambda vl: vl in allowed


class TestTables:
    def test_entry_validation(self):
        VlArbEntry(0, MAX_WEIGHT)
        with pytest.raises(ValueError):
            VlArbEntry(-1, 1)
        with pytest.raises(ValueError):
            VlArbEntry(0, MAX_WEIGHT + 1)

    def test_table_needs_entries(self):
        with pytest.raises(ValueError):
            VlArbitrationTable(low=())

    def test_from_weights_skips_zero(self):
        table = VlArbitrationTable.from_weights([4, 0, 2])
        assert [(e.vl, e.weight) for e in table.low] == [(0, 4), (2, 2)]


class TestLowPriorityArbitration:
    def test_weight_proportional_service(self):
        """Weights 3:1 over 64-byte packets give a 3:1 service ratio."""
        arb = WeightedVlArbiter(VlArbitrationTable.from_weights([3, 1]))
        served = []
        for _ in range(16):
            vl = arb.pick(always_ready)
            served.append(vl)
            arb.charge(vl, 64)
        assert served.count(0) == 12
        assert served.count(1) == 4

    def test_packet_larger_than_unit_charges_multiple(self):
        """A 256-byte packet consumes 4 weight units."""
        arb = WeightedVlArbiter(VlArbitrationTable.from_weights([4, 4]))
        order = []
        for _ in range(4):
            vl = arb.pick(always_ready)
            order.append(vl)
            arb.charge(vl, 256)
        assert order == [0, 1, 0, 1]  # each packet exhausts an entry

    def test_idle_vl_skipped_without_stalling(self):
        arb = WeightedVlArbiter(VlArbitrationTable.from_weights([4, 4]))
        assert arb.pick(ready_set(1)) == 1
        arb.charge(1, 64)
        assert arb.pick(ready_set(1)) == 1

    def test_no_ready_vl_returns_minus_one(self):
        arb = WeightedVlArbiter(VlArbitrationTable.from_weights([4]))
        assert arb.pick(ready_set()) == -1

    def test_service_resumes_after_idle(self):
        arb = WeightedVlArbiter(VlArbitrationTable.from_weights([2, 2]))
        assert arb.pick(ready_set()) == -1
        assert arb.pick(always_ready) in (0, 1)


class TestTransmitterIntegration:
    def run_tx(self, weights, packets):
        cfg = SimConfig(
            num_vls=2,
            vl_arbitration="weighted",
            vl_weights=weights,
            buffer_packets_per_vl=8,
        )
        eng = Engine()
        tx = Transmitter(eng, cfg, "t")
        got = []

        class Rx:
            def receive(self, p):
                got.append(p.vl)

        tx.connect(Rx())
        for vl in packets:
            tx.accept(Packet(1, 2, 0, 1, 64, vl, 0.0))
        eng.run()
        return got

    def test_weighted_transmitter_ratio(self):
        # 8 credits per VL; weights (3,1): service order honors 3:1.
        got = self.run_tx((3, 1), [0] * 6 + [1] * 2)
        assert got[:4] == [0, 0, 0, 1]

    def test_roundrobin_default_unchanged(self):
        cfg = SimConfig(num_vls=2)
        eng = Engine()
        tx = Transmitter(eng, cfg, "t")
        assert tx.arbiter is None


class TestConfigValidation:
    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            SimConfig(num_vls=2, vl_arbitration="weighted", vl_weights=(1,))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(num_vls=2, vl_arbitration="weighted", vl_weights=(0, 0))

    def test_unknown_arbitration(self):
        with pytest.raises(ValueError):
            SimConfig(vl_arbitration="lottery")
