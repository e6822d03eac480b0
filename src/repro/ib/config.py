"""Simulation parameters (Section 5.2 of the paper).

The OCR of the paper stripped digits, so each constant's default is the
reconstruction argued in DESIGN.md; all are overridable.

* ``flying_time_ns`` — wire propagation of a packet header between any
  two devices ("the flying time of a packet between devices").
* ``routing_time_ns`` — "the routing time of a packet from one input
  port to one output port of the crossbar in a switch, including
  forwarding table lookup, arbitration, and message startup time".
* ``byte_time_ns`` — serialization time per byte ("byte injection
  rate"); 1 ns/B models a 4X link's ≈8 Gb/s data rate (10 Gb/s signal
  with 8b/10b coding).
* ``packet_bytes`` — fixed packet size.
* ``num_vls`` — number of *data* virtual lanes (the paper simulates 1,
  2 and 4; IBA allows up to 15 data VLs plus the management VL15,
  which carries no data traffic and is not modelled).
* ``buffer_packets_per_vl`` — input/output buffer capacity per VL in
  packets ("the buffer can only store a packet at a time" → 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SimConfig", "IBA_MAX_DATA_VLS"]

#: IBA allows VL0-VL14 for data (VL15 is management-only).
IBA_MAX_DATA_VLS = 15


@dataclass(frozen=True)
class SimConfig:
    """Timing and sizing constants for one simulation run."""

    flying_time_ns: float = 20.0
    routing_time_ns: float = 100.0
    byte_time_ns: float = 1.0
    packet_bytes: int = 256
    #: Packets per message ("messages are sent as packets"); the
    #: generator emits whole messages, all packets to one destination
    #: on one VL back-to-back, and message latency is measured at the
    #: delivery of the last packet.  Generation is a Poisson process
    #: of the requested packet rate: a message waits one exponential
    #: gap per packet.  The paper's runs use single-packet messages
    #: (its packet size *is* its message size).
    message_packets: int = 1
    num_vls: int = 1
    buffer_packets_per_vl: int = 1
    #: VL assignment policy at the source: "hash" (per src/dst pair)
    #: or "dest" (vl = dst_pid mod num_vls — partitions destinations
    #: into VL classes, the basis of the QoS ablation A8).
    vl_policy: str = "hash"
    #: VL arbitration at every transmitter: "roundrobin" (the paper's
    #: model) or "weighted" (IBA VLArbitration low-priority table with
    #: per-VL weights from ``vl_weights``; see repro.ib.vl_arbitration).
    vl_arbitration: str = "roundrobin"
    #: Per-VL weights for "weighted" arbitration (64-byte units per
    #: IBA); None means equal weights of 4.
    vl_weights: tuple = None
    #: Source queueing discipline: "per_destination" models one queue
    #: pair per destination with round-robin HCA arbitration (IBA
    #: reality: a backlogged flow does not block other flows at the
    #: source); "fifo" is a single per-VL FIFO (a backlogged flow
    #: head-of-line blocks everything generated after it).
    injection_queueing: str = "per_destination"
    #: Record every packet's switch-by-switch route on the packet
    #: (``Packet.route``).  Debug/validation aid — costs memory and a
    #: little time; off for performance runs.
    record_routes: bool = False
    #: Concurrent routing operations (lookup + arbitration + startup)
    #: a switch can perform: 0 means one engine per input port and VL
    #: (fully parallel), k >= 1 means a shared pool of k engines with a
    #: FIFO request queue.  See DESIGN.md §3 for why the paper's
    #: simulator is best matched by a small shared pool.
    routing_engines_per_switch: int = 1
    #: Time between a port changing state (link down/up) and the Subnet
    #: Manager learning about it — the trap propagation / port-poll
    #: latency of the :mod:`repro.runtime` detection model.  0 models
    #: an oracle SM that reacts instantly.
    detection_latency_ns: float = 500.0
    #: Time the SM needs to reprogram one switch's LFT (one SubnSet MAD
    #: round trip); delta reprogramming after a repair charges this per
    #: *modified* switch, serially — the paper's "subnet manager
    #: re-assigns forwarding table for each switch".
    sm_program_time_ns: float = 200.0

    def __post_init__(self) -> None:
        if self.flying_time_ns < 0 or self.routing_time_ns < 0:
            raise ValueError("timing constants must be non-negative")
        if self.byte_time_ns <= 0:
            raise ValueError(f"byte_time_ns must be positive, got {self.byte_time_ns}")
        if self.packet_bytes <= 0:
            raise ValueError(f"packet_bytes must be positive, got {self.packet_bytes}")
        if not 1 <= self.num_vls <= IBA_MAX_DATA_VLS:
            raise ValueError(
                f"num_vls must be in [1, {IBA_MAX_DATA_VLS}], got {self.num_vls}"
            )
        if self.message_packets < 1:
            raise ValueError("message_packets must be >= 1")
        if self.buffer_packets_per_vl < 1:
            raise ValueError("buffer_packets_per_vl must be >= 1")
        if self.vl_policy not in ("hash", "dest"):
            raise ValueError(f"unknown vl_policy {self.vl_policy!r}")
        if self.vl_arbitration not in ("roundrobin", "weighted"):
            raise ValueError(
                f"unknown vl_arbitration {self.vl_arbitration!r}"
            )
        if self.vl_weights is not None:
            weights = tuple(self.vl_weights)
            if len(weights) != self.num_vls:
                raise ValueError(
                    f"vl_weights needs {self.num_vls} entries, "
                    f"got {len(weights)}"
                )
            if all(w <= 0 for w in weights):
                raise ValueError("vl_weights must include a positive weight")
            object.__setattr__(self, "vl_weights", weights)
        if self.injection_queueing not in ("per_destination", "fifo"):
            raise ValueError(
                f"unknown injection_queueing {self.injection_queueing!r}"
            )
        if self.routing_engines_per_switch < 0:
            raise ValueError(
                "routing_engines_per_switch must be >= 0 (0 = per-port)"
            )
        if self.detection_latency_ns < 0:
            raise ValueError("detection_latency_ns must be non-negative")
        if self.sm_program_time_ns < 0:
            raise ValueError("sm_program_time_ns must be non-negative")

    @property
    def serialization_ns(self) -> float:
        """Time the link is occupied by one packet."""
        return self.packet_bytes * self.byte_time_ns

    @property
    def link_bandwidth(self) -> float:
        """Payload bandwidth of a link in bytes/ns."""
        return 1.0 / self.byte_time_ns

    def with_vls(self, num_vls: int) -> "SimConfig":
        """Copy of this config with a different VL count."""
        return replace(self, num_vls=num_vls)

    def offered_load_to_rate(self, offered: float) -> float:
        """Convert offered load (bytes/ns/node) to packets/ns/node."""
        if offered < 0:
            raise ValueError(f"offered load must be non-negative, got {offered}")
        return offered / self.packet_bytes
