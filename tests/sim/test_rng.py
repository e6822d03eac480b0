"""Unit tests for seeded RNG helpers."""

import numpy as np
import pytest

from repro.sim.rng import make_rng, spawn_rngs


def test_make_rng_reproducible():
    a = make_rng(123).integers(0, 1 << 30, size=10)
    b = make_rng(123).integers(0, 1 << 30, size=10)
    assert (a == b).all()


def test_make_rng_different_seeds_differ():
    a = make_rng(1).integers(0, 1 << 30, size=10)
    b = make_rng(2).integers(0, 1 << 30, size=10)
    assert (a != b).any()


def test_spawn_count():
    assert len(spawn_rngs(0, 7)) == 7
    assert spawn_rngs(0, 0) == []


def test_spawn_negative_count_raises():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_spawned_streams_are_independent():
    a, b = spawn_rngs(42, 2)
    xs = a.integers(0, 1 << 30, size=100)
    ys = b.integers(0, 1 << 30, size=100)
    assert (xs != ys).any()


def test_spawned_streams_reproducible():
    first = [g.integers(0, 1 << 30, size=5) for g in spawn_rngs(7, 3)]
    second = [g.integers(0, 1 << 30, size=5) for g in spawn_rngs(7, 3)]
    for a, b in zip(first, second):
        assert (a == b).all()


def test_spawn_differs_from_root():
    root = make_rng(9).integers(0, 1 << 30, size=50)
    child = spawn_rngs(9, 1)[0].integers(0, 1 << 30, size=50)
    assert (root != child).any()


def test_returns_numpy_generators():
    assert isinstance(make_rng(0), np.random.Generator)
    assert all(isinstance(g, np.random.Generator) for g in spawn_rngs(0, 2))


def _consume_spawned_streams(seed, count, draws):
    """Module-level so it works under any multiprocessing start method."""
    return [
        g.integers(0, 1 << 30, size=draws).tolist()
        for g in spawn_rngs(seed, count)
    ]


def _child_consume(conn, seed, count, draws):
    conn.send(_consume_spawned_streams(seed, count, draws))
    conn.close()


def test_spawned_streams_match_across_processes():
    """The ``--jobs`` pool's reproducibility claim: a worker process
    that builds a subnet spawns the full per-node RNG set from the
    point's seed and draws streams bit-identical to the parent's (so a
    point measures the same traffic whichever process runs it)."""
    import multiprocessing as mp

    seed, count, draws = 1234, 8, 64
    parent_streams = _consume_spawned_streams(seed, count, draws)
    ctx = mp.get_context()
    here, there = ctx.Pipe()
    proc = ctx.Process(target=_child_consume, args=(there, seed, count, draws))
    proc.start()
    there.close()
    child_streams = here.recv()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    assert child_streams == parent_streams
