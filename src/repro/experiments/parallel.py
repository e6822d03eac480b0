"""Parallel sweep execution.

A paper figure is a grid of *independent* simulations — every
(scheme, VL count, offered load, seed) point builds its own subnet and
runs its own event loop.  This module fans those points out over a
:class:`concurrent.futures.ProcessPoolExecutor` with deterministic,
order-preserving result assembly:

* a :class:`PointSpec` is the picklable description of one
  :func:`~repro.experiments.runner.run_point` call;
* :func:`execute_points` maps a spec list to its result dicts, in spec
  order, either inline (``jobs=1`` — byte-for-byte the historical
  serial path) or across ``jobs`` worker processes;
* each worker process keeps its own routing-artifact cache
  (:mod:`repro.ib.artifacts`), so the FatTree/scheme/LFT setup of a
  curve is built once per worker, not once per point.

Determinism: ``run_point`` is a pure function of its spec (all
randomness flows from the spec's seed through
:func:`repro.sim.rng.spawn_rngs`), results are reassembled in
submission order, and aggregation happens in the parent — so
``jobs=N`` output is bit-for-bit identical to ``jobs=1``.

Specs are dispatched in contiguous chunks, which keeps a curve's
points on few workers and maximizes artifact-cache hits.
"""

from __future__ import annotations

import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.ib.config import SimConfig

__all__ = ["PointSpec", "execute_points", "run_spec", "normalize_jobs"]


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


def run_spec(spec: PointSpec) -> dict:
    """Execute one spec (in-process or inside a pool worker).

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


def execute_points(
    specs: Sequence[PointSpec], jobs: Optional[int] = 1
) -> List[dict]:
    """Run every spec and return the result dicts *in spec order*.

    ``jobs=1`` (or ``None``) executes inline, exactly like the
    historical serial loop.  ``jobs>1`` fans out over a process pool;
    chunked dispatch preserves curve locality for the per-worker
    artifact cache.
    """
    jobs = normalize_jobs(jobs)
    if jobs == 1 or len(specs) <= 1:
        return [run_spec(spec) for spec in specs]
    # ~4 chunks per worker balances load against cache locality.
    chunksize = max(1, len(specs) // (jobs * 4))
    results: List[dict] = []
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        initializer=_worker_init,
        initargs=(list(sys.path),),
    ) as pool:
        try:
            for result in pool.map(run_spec, specs, chunksize=chunksize):
                results.append(result)
        except BrokenProcessPool as exc:
            # A worker killed by a signal raises nothing of its own:
            # name the points whose results never came back instead.
            if hasattr(exc, "add_note"):
                lost = specs[len(results) :]
                exc.add_note(
                    f"{len(lost)} point(s) lost; a dead worker was running "
                    "one of them:\n" + "\n".join(f"  {spec!r}" for spec in lost)
                )
            raise
    return results
