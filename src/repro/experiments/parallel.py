"""Parallel sweep execution.

A paper figure is a grid of *independent* simulations — every
(scheme, VL count, offered load, seed) point builds its own subnet and
runs its own event loop.  This module fans those points out over a
:class:`concurrent.futures.ProcessPoolExecutor` with deterministic,
order-preserving result assembly:

* a :class:`PointSpec` is the picklable description of one
  :func:`~repro.experiments.runner.run_point` call;
* :func:`execute_points` maps a spec list to its result dicts, in spec
  order, either inline (``jobs=1``) or across ``jobs`` worker
  processes;
* each worker process keeps its own routing-artifact cache
  (:mod:`repro.ib.artifacts`), so the FatTree/scheme/LFT setup of a
  curve is built once per worker, not once per point.

Shared traffic: the points with one :func:`traffic_key` (on a figure,
the (scheme, VL) points of one load and seed) are offered the same
packets, since generation reads only each node's own stream.
:func:`execute_points` runs the specs group by group, one group per
key, and the points of a group share one
:class:`~repro.ib.endnode.TrafficTapes`: the first records each node's
draws, the others replay them.  A group's tapes are dropped when its
last point ends, and none outlives the call.

Determinism: ``run_point`` is a pure function of its spec (all
randomness flows from the spec's seed through
:func:`repro.sim.rng.spawn_rngs`, and a replayed tape yields the very
values those streams would), results are reassembled in spec order,
and aggregation happens in the parent — so ``jobs=N`` output is
bit-for-bit identical to ``jobs=1``.

The group-ordered specs are dispatched in contiguous chunks, which
keeps a group, and a curve's artifacts, on few workers; a worker
shares tapes within the chunk it receives.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.ib.config import SimConfig
from repro.ib.endnode import TrafficTapes

__all__ = [
    "PointSpec",
    "execute_points",
    "run_spec",
    "normalize_jobs",
    "traffic_key",
]


@dataclass(frozen=True)
class PointSpec:
    """One independent sweep point: the arguments of ``run_point``."""

    m: int
    n: int
    scheme: str
    pattern: str
    offered: float
    cfg: SimConfig
    hotspot_fraction: float = 0.5
    warmup_ns: float = 30_000.0
    measure_ns: float = 120_000.0
    seed: int = 1


def traffic_key(spec: PointSpec) -> tuple:
    """Everything a point's traffic draws read: seed, fabric, pattern,
    hot-spot fraction, per-node rate (``SimConfig.offered_load_to_rate``,
    whose range check the point itself makes) and message size.  The
    scheme, VL count, queueing, buffers and routing times are not in
    it: points with equal keys are offered the very same packets."""
    cfg = spec.cfg
    return (
        spec.seed,
        spec.m,
        spec.n,
        spec.pattern,
        spec.hotspot_fraction,
        spec.offered / cfg.packet_bytes,
        cfg.message_packets,
    )


def run_spec(spec: PointSpec, traffic: Optional[TrafficTapes] = None) -> dict:
    """Execute one spec (in-process or inside a pool worker), replaying
    ``traffic``, the tapes of its :func:`traffic_key` group, if given.

    A failing point names itself: the spec is attached to the exception
    as a note, which keeps its type and message and survives the pool's
    pickling (Python 3.11+; older interpreters raise it unannotated).
    """
    # Late import: runner imports this module for execute_points.
    from repro.experiments.runner import run_point

    try:
        return run_point(
            spec.m,
            spec.n,
            spec.scheme,
            spec.pattern,
            spec.offered,
            cfg=spec.cfg,
            hotspot_fraction=spec.hotspot_fraction,
            warmup_ns=spec.warmup_ns,
            measure_ns=spec.measure_ns,
            seed=spec.seed,
            traffic=traffic,
        )
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(f"while running {spec!r}")
        raise


def normalize_jobs(jobs: Optional[int]) -> int:
    """Validate a ``jobs`` argument; ``None`` means serial."""
    if jobs is None:
        return 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _worker_init(paths: List[str]) -> None:
    """Make the parent's import path available in spawned workers.

    Also drops any flow models inherited from a forking parent: packet
    workers never evaluate flow points, and a compiled *unfolded*
    FT(32, 3) model in the parent's LRU is multi-gigabyte state no
    worker should keep alive.  Workers repopulate their own artifact
    caches per process (that inheritance is cheap and useful).
    """
    for path in paths:
        if path not in sys.path:
            sys.path.append(path)
    from repro.experiments.flowlevel import clear_flow_models

    clear_flow_models()


def _run_groups(specs: Sequence[PointSpec]) -> List[dict]:
    """Run ``specs`` in order, one :func:`run_spec` call each.  Each run
    of consecutive specs with one :func:`traffic_key` shares one
    :class:`~repro.ib.endnode.TrafficTapes`, dropped when the key
    changes."""
    results: List[dict] = []
    key = traffic = None
    for spec in specs:
        spec_key = traffic_key(spec)
        if spec_key != key:
            key, traffic = spec_key, TrafficTapes(spec.seed)
        results.append(run_spec(spec, traffic))
    return results


def execute_points(
    specs: Sequence[PointSpec], jobs: Optional[int] = 1
) -> List[dict]:
    """Run every spec and return the result dicts *in spec order*.

    The specs run group by group, one group per :func:`traffic_key`, in
    the order each key first appears; the points of a group share their
    offered traffic.  ``jobs=1`` (or ``None``) executes inline.
    ``jobs>1`` fans the group-ordered specs out over a process pool in
    contiguous chunks, which preserves group and curve locality for the
    per-worker artifact cache; only then is the process pool imported.
    """
    jobs = normalize_jobs(jobs)
    groups: Dict[tuple, List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(traffic_key(spec), []).append(i)
    order = [i for members in groups.values() for i in members]
    ordered = [specs[i] for i in order]
    done: List[dict] = []
    if jobs == 1 or len(specs) <= 1:
        done = _run_groups(ordered)
    else:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # ~4 chunks per worker balances load against cache locality.
        size = max(1, len(specs) // (jobs * 4))
        chunks = [ordered[i : i + size] for i in range(0, len(ordered), size)]
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(specs)),
            initializer=_worker_init,
            initargs=(list(sys.path),),
        ) as pool:
            try:
                for chunk in pool.map(_run_groups, chunks):
                    done.extend(chunk)
            except BrokenProcessPool as exc:
                # A worker killed by a signal raises nothing of its own:
                # name the points whose results never came back instead.
                if hasattr(exc, "add_note"):
                    lost = ordered[len(done) :]
                    exc.add_note(
                        f"{len(lost)} point(s) lost; a dead worker was running "
                        "one of them:\n"
                        + "\n".join(f"  {spec!r}" for spec in lost)
                    )
                raise
    results = dict(zip(order, done))
    return [results[i] for i in range(len(specs))]
