"""Subnet assembly: routing artifacts + simulator components.

:func:`build_subnet` instantiates one simulatable IBFT(m, n) subnet
from a :class:`~repro.ib.artifacts.RoutingArtifacts` (the fabric, the
scheme, the LFTs the :class:`~repro.ib.sm.SubnetManager` programmed
and the DLID matrix): a :class:`~repro.sim.wheel.WheelEngine`, a
:class:`~repro.ib.switch.SwitchModel` per fat-tree switch, an
:class:`~repro.ib.endnode.Endnode` per processing node, and a
:class:`~repro.ib.link.Transmitter` pair per physical link.  The
:class:`Subnet` facade then drives traffic and collects the paper's
two measurements.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.scheme import RoutingScheme
from repro.ib.artifacts import RoutingArtifacts, build_artifacts, get_artifacts
from repro.ib.config import SimConfig
from repro.ib.endnode import Endnode, TrafficTapes
from repro.ib.switch import SwitchModel
from repro.sim.engine import Engine
from repro.sim.stats import LatencyStats, ThroughputMeter, WarmupFilter
from repro.sim.wheel import WheelEngine
from repro.topology.labels import SwitchLabel, format_switch

__all__ = ["Subnet", "build_subnet"]


class Subnet:
    """One fully-wired, simulatable InfiniBand subnet."""

    def __init__(
        self,
        artifacts: RoutingArtifacts,
        cfg: SimConfig,
        engine: Engine,
        switches: Dict[SwitchLabel, SwitchModel],
        endnodes: List[Endnode],
    ):
        self.ft = artifacts.ft
        self.scheme = artifacts.scheme
        self.cfg = cfg
        self.engine = engine
        self.switches = switches
        self.endnodes = endnodes
        self.latency: Optional[LatencyStats] = None
        self.throughput: Optional[ThroughputMeter] = None
        # The artifact's dense DLID matrix and its per-source rows,
        # shared by every subnet of the fabric.
        self._dlid = artifacts.dlid_flat
        self._closed = False
        rows = artifacts.dlid_rows
        for node in endnodes:
            node.dlid_for = self.dlid_for
            node.dlid_row = rows[node.pid]

    # ------------------------------------------------------------------
    def dlid_for(self, src_pid: int, dst_pid: int) -> int:
        """Path-selected DLID for a (source, destination) PID pair."""
        num = self.ft.num_nodes
        if not (0 <= src_pid < num and 0 <= dst_pid < num):
            raise ValueError(
                f"PIDs must be in [0, {num}), got ({src_pid}, {dst_pid})"
            )
        if src_pid == dst_pid:
            raise ValueError(f"src == dst == {src_pid}")
        return int(self._dlid[src_pid * num + dst_pid])

    def dlid_matrix(self) -> np.ndarray:
        """Every :meth:`dlid_for` answer as a (src, dst) PID matrix view
        (the diagonal is unused)."""
        num = self.ft.num_nodes
        return self._dlid.reshape(num, num)

    @property
    def num_nodes(self) -> int:
        return self.ft.num_nodes

    # ------------------------------------------------------------------
    def attach_pattern(
        self, pattern: Callable[[int], Callable[[np.random.Generator], int]]
    ) -> None:
        """Give every endnode its destination chooser.

        ``pattern(pid)`` must return a callable drawing a destination
        PID (!= pid) from a supplied RNG.
        """
        for node in self.endnodes:
            node.choose_destination = pattern(node.pid)

    def run_measurement(
        self,
        offered_load: float,
        warmup_ns: float,
        measure_ns: float,
    ) -> dict:
        """Drive the subnet at ``offered_load`` bytes/ns/node and measure.

        Returns the paper's per-run record: offered load, accepted
        traffic (bytes/ns/node) and mean latency (ns), plus extras.
        """
        # Chained so that NaN fails too: a NaN or infinite window
        # would never reach its end.
        if not (0 <= warmup_ns < math.inf and 0 < measure_ns < math.inf):
            raise ValueError(
                "warmup must be finite and >= 0, and the measure window "
                f"finite and positive; got {warmup_ns}, {measure_ns}"
            )
        if self._closed:
            raise RuntimeError("subnet is closed")
        if getattr(self, "_measured", False):
            raise RuntimeError(
                "run_measurement is single-shot; build a fresh subnet per run"
            )
        self._measured = True
        window = WarmupFilter(warmup_ns, warmup_ns + measure_ns)
        self.latency = LatencyStats(keep_samples=True)
        self.net_latency = LatencyStats(keep_samples=True)
        self.throughput = ThroughputMeter(window)
        for node in self.endnodes:
            node.latency = self.latency
            node.net_latency = self.net_latency
            node.throughput = self.throughput
        rate = self.cfg.offered_load_to_rate(offered_load)
        for node in self.endnodes:
            node.start_generation(rate)
        self.engine.run(until=window.measure_end)
        accepted = self.throughput.accepted_traffic(self.num_nodes)
        return {
            "offered": offered_load,
            "accepted": accepted,
            "latency_mean": self.net_latency.mean,
            "latency_p99": self.net_latency.percentile(99)
            if self.net_latency.count
            else math.nan,
            "latency_total_mean": self.latency.mean,
            "packets": self.throughput.packets_delivered,
            "backlog": sum(node.backlog for node in self.endnodes),
            "events": self.engine.events_processed,
            "fairness": self.receive_fairness(),
        }

    def receive_fairness(self) -> float:
        """Jain's fairness index over per-destination deliveries in the
        window: 1.0 = perfectly even, 1/N = one node got everything.
        NaN when nothing was delivered."""
        if self.throughput is None:
            raise RuntimeError("no measurement has been run")
        counts = self.throughput.per_destination
        xs = [counts.get(pid, 0) for pid in range(self.num_nodes)]
        total = sum(xs)
        if total == 0:
            return math.nan
        return total * total / (self.num_nodes * sum(x * x for x in xs))

    def close(self) -> None:
        """End the subnet's life: drop the engine's pending events and
        break every reference cycle among its components, so that
        refcounting frees the subnet once the caller lets go of it,
        without the cyclic garbage collector.

        Counters and measurements stay readable; nothing can run any
        more.  The routing artifacts a cached build shares (LFTs, DLID
        matrix, scheme) are not touched.  Idempotent.
        """
        self._closed = True
        self.engine.close()
        for switch in self.switches.values():
            switch.close()
        for node in self.endnodes:
            node.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Subnet(FT({self.ft.m},{self.ft.n}), scheme={self.scheme.name}, "
            f"vls={self.cfg.num_vls})"
        )


def build_subnet(
    m: int,
    n: int,
    scheme: str | RoutingScheme = "mlid",
    cfg: Optional[SimConfig] = None,
    seed: int = 0,
    artifacts: Optional[RoutingArtifacts] = None,
    *,
    engine: Optional[Engine] = None,
    traffic: Optional[TrafficTapes] = None,
) -> Subnet:
    """Construct and wire a complete IBFT(m, n) subnet.

    Parameters
    ----------
    m, n:
        Fat-tree parameters.
    scheme:
        ``"mlid"``, ``"slid"`` or an already-built scheme instance.
    cfg:
        Simulation constants; defaults to the paper's.
    seed:
        Root seed for all per-node random streams.
    artifacts:
        The seed-independent routing artifacts to wire from (see
        :mod:`repro.ib.artifacts`): the FatTree, scheme, LFTs and DLID
        matrix, shared by every subnet built from them.  Without it, a
        scheme name reads :func:`~repro.ib.artifacts.get_artifacts`'
        cache and a scheme instance an uncached
        :func:`~repro.ib.artifacts.build_artifacts`.  All per-seed
        state (engine, switches, endnodes, and the RNG streams unless
        ``traffic`` is given) is constructed fresh.
    engine:
        The event engine to build on, which must be fresh; defaults to
        a new :class:`~repro.sim.wheel.WheelEngine`.  A test seam: the
        differential tests pass the heap
        :class:`~repro.sim.engine.Engine`, which the wheel is
        bit-identical to.
    traffic:
        The per-node generators and tapes of an earlier subnet with the
        same seed, fabric, pattern, hot-spot fraction, rate and message
        size (its *traffic key*), to replay instead of spawning fresh
        streams from ``seed``; the subnet is bit-for-bit identical to a
        fresh build.  Only the fused source reads tapes, so a
        ``traffic`` on an engine that draws inline (the heap) raises
        ``ValueError``, as does one spawned from another seed.
    """
    cfg = cfg or SimConfig()
    if artifacts is None:
        if isinstance(scheme, str):
            artifacts = get_artifacts(m, n, scheme)
        else:
            artifacts = build_artifacts(m, n, scheme)
    elif artifacts.m != m or artifacts.n != n:
        raise ValueError(
            f"artifacts were built for FT({artifacts.m}, {artifacts.n}), "
            f"requested FT({m}, {n})"
        )
    elif isinstance(scheme, str) and artifacts.scheme_name != scheme.lower():
        raise ValueError(
            f"artifacts were built for scheme {artifacts.scheme_name!r}, "
            f"requested {scheme!r}"
        )
    ft, lfts = artifacts.ft, artifacts.lfts
    if engine is None:
        engine = WheelEngine()
    if traffic is None:
        traffic = TrafficTapes(seed)
    elif not engine.fused:
        raise ValueError(
            "shared traffic tapes need the fused source; "
            f"{type(engine).__name__} draws inline"
        )
    elif traffic.seed != seed:
        raise ValueError(
            f"traffic tapes were spawned from seed {traffic.seed}, "
            f"requested seed {seed}"
        )

    switches: Dict[SwitchLabel, SwitchModel] = {}
    for sw in ft.switches:
        model = SwitchModel(
            engine, cfg, format_switch(*sw), num_ports=m, lft=lfts[sw]
        )
        for port in range(1, m + 1):
            model.add_port(port)
        switches[sw] = model

    rngs, tapes = traffic.streams(ft.num_nodes)
    endnodes: List[Endnode] = []
    for pid, label in enumerate(ft.nodes):
        node = Endnode(
            engine, cfg, pid=pid, slid=artifacts.scheme.base_lid(label),
            rng=rngs[pid], tape=tapes[pid],
        )
        endnodes.append(node)

    # Wire every link (both directions) and the node attachments.
    for sw in ft.switches:
        model = switches[sw]
        for k, ep in enumerate(ft.ports(sw)):
            phys = k + 1
            if ep.is_node:
                node = endnodes[ft.node_id(ep.node)]
                # switch -> node
                model.tx[phys].connect(node)
                node.upstream = model.tx[phys]
                # node -> switch
                node.tx.connect(model.rx[phys])
                model.rx[phys].upstream = node.tx
            else:
                peer_model = switches[ep.switch]
                peer_phys = ep.port + 1
                model.tx[phys].connect(peer_model.rx[peer_phys])
                peer_model.rx[peer_phys].upstream = model.tx[phys]

    return Subnet(artifacts, cfg, engine, switches, endnodes)
