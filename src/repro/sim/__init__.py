"""Discrete-event simulation substrate.

The paper evaluated its routing schemes on a JAVA discrete-event
simulator.  This package is our Python equivalent: a deterministic
timing-wheel event engine (:mod:`repro.sim.wheel`, which every run
uses), the minimal heap engine it is tested against
(:mod:`repro.sim.engine`), seeded random number helpers
(:mod:`repro.sim.rng`) and measurement collectors
(:mod:`repro.sim.stats`).

The engine is deliberately simple — a time-ordered priority queue of
callbacks — because every InfiniBand component in :mod:`repro.ib` is
written in an event-driven style (no coroutines/greenlets needed).
Determinism matters for reproducibility: events scheduled for the same
timestamp fire in FIFO scheduling order, and all randomness flows
through explicitly seeded generators.
"""

from repro.sim.engine import Engine, Event, SimulationError
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.stats import LatencyStats, ThroughputMeter, WarmupFilter
from repro.sim.wheel import WheelEngine

__all__ = [
    "Engine",
    "Event",
    "SimulationError",
    "WheelEngine",
    "make_rng",
    "spawn_rngs",
    "LatencyStats",
    "ThroughputMeter",
    "WarmupFilter",
]
