"""Tests for the failover experiment scenario."""

import pytest

from repro.experiments.failover import default_link, run_failover
from repro.ib.config import SimConfig


class TestRunFailover:
    def test_control_plane_only(self):
        """No traffic: both identity invariants hold, nothing lost."""
        row = run_failover(
            4,
            2,
            cfg=SimConfig(detection_latency_ns=0.0, sm_program_time_ns=0.0),
        )
        assert row["repair_matches_offline"] is True
        assert row["recovery_matches_initial"] is True
        assert row["packets_lost"] == 0
        assert row["time_to_detect"] == 0.0
        assert row["time_to_repair"] == 0.0
        assert [r.kind for r in row["records"]] == ["down", "up"]

    def test_under_load_accounts_for_every_packet(self):
        row = run_failover(4, 2, load=0.3)
        assert row["generated"] > 0
        assert (
            row["generated"]
            == row["delivered"] + row["packets_lost"] + row["backlog"]
        )
        assert row["repair_matches_offline"] is True
        assert row["recovery_matches_initial"] is True

    @pytest.mark.parametrize(
        "load,seed,pattern",
        [
            (0.6, 1, "uniform"),
            (0.6, 2, "uniform"),
            (0.6, 4, "uniform"),
            (0.3, 5, "uniform"),
            (0.3, 6, "uniform"),
            (0.3, 1, "permutation"),
            (0.3, 1, "bitcomplement"),
            (0.3, 1, "alltoall"),
        ],
    )
    def test_reflected_packets_lost_not_fatal(self, load, seed, pattern):
        """Mid-repair, a packet that a switch not yet reprogrammed sends
        to one whose new entry points back out of its input port is
        dropped and counted as lost.  Each of these runs reflects
        packets that way."""
        row = run_failover(4, 2, load=load, seed=seed, pattern=pattern)
        assert row["packets_lost"] > 0
        assert (
            row["generated"]
            == row["delivered"] + row["packets_lost"] + row["backlog"]
        )
        assert row["repair_matches_offline"] is True
        assert row["recovery_matches_initial"] is True

    def test_detection_knobs_respected(self):
        row = run_failover(
            4,
            2,
            cfg=SimConfig(detection_latency_ns=750.0, sm_program_time_ns=0.0),
        )
        assert row["time_to_detect"] == 750.0

    def test_explicit_link(self, ft42):
        root = ft42.switches_at_level(0)[1]
        row = run_failover(4, 2, link=(root, 1))
        assert row["flows_rerouted"] > 0

    def test_bad_times_rejected(self):
        with pytest.raises(ValueError, match="t_recover"):
            run_failover(4, 2, t_fail=100.0, t_recover=100.0)
        with pytest.raises(ValueError, match="run_until"):
            run_failover(4, 2, t_fail=100.0, t_recover=500.0, run_until=400.0)

    def test_negative_load_rejected(self):
        # A negative load is an input error, not "no traffic".
        with pytest.raises(ValueError, match="load=-0.5"):
            run_failover(4, 2, load=-0.5)

    def test_default_link_is_first_root_down_port(self, ft42):
        sw, port = default_link(ft42)
        assert sw == ft42.switches_at_level(0)[0]
        assert port == 0

