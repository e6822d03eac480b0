"""Snapshot consistency under fire (the tentpole's core claim).

Reader threads hammer the service while a scripted link-flap storm
repairs tables underneath.  Every answer must be **bit-identical** to
a fresh :class:`~repro.core.kernel.RouteKernel` compiled from the
archived LFTs of *some* published generation — the generation the
answer itself claims.  A torn read (a query spanning two generations,
or a snapshot built mid-sweep) would diverge from every archive entry.

Also asserted: generations observed per reader, and per TCP
connection, are monotonic, and the store's publish sequence is strictly
increasing.  A hypothesis test
drives :class:`SnapshotStore.publish` with arbitrary generation
sequences to pin down the monotonic/no-op contract exactly.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import RouteKernel
from repro.core.verification import RoutingError
from repro.ib.artifacts import get_artifacts
from repro.service import LinkFlapStorm, RouteQueryService
from repro.service.snapshot import RouteSnapshot, SnapshotStore

NUM_READERS = 4
QUERIES_PER_READER = 300
#: Pause between a reader's queries, so that its queries span the
#: storm's horizon (60 paced steps of 5 ms) instead of its first steps.
READ_PAUSE_S = 0.001


class _Reader(threading.Thread):
    """Hammers dlid+trace queries; records (generation, src, dst, answer)."""

    def __init__(self, service, seed):
        super().__init__(daemon=True)
        self.service = service
        self.rng = np.random.default_rng(seed)
        self.observations = []
        self.generations = []
        self.error = None

    def run(self):
        try:
            nodes = self.service.ft.num_nodes
            for _ in range(QUERIES_PER_READER):
                src = int(self.rng.integers(nodes))
                dst = int(self.rng.integers(nodes - 1))
                dst += dst >= src
                snap = self.service.store.get()
                try:
                    answer = snap.trace(src, dst)
                except RoutingError as exc:
                    # Mid-repair black holes are legitimate answers —
                    # they must *also* reproduce from the archive.
                    answer = ("error", str(exc))
                self.observations.append(
                    (snap.generation, src, dst, answer)
                )
                self.generations.append(snap.generation)
                time.sleep(READ_PAUSE_S)
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc


def test_stress_bit_identity_under_storm():
    storm = LinkFlapStorm(
        4,
        2,
        "mlid",
        flap_links=2,
        horizon_ns=120_000.0,
        pace_s=0.005,
        keep_lfts=True,
    )
    service = RouteQueryService(storm.store, storm=storm)
    readers = [_Reader(service, seed=11 + i) for i in range(NUM_READERS)]

    with storm:
        for r in readers:
            r.start()
        for r in readers:
            r.join()
        # Play the whole horizon: a stop() before it cancels the flaps
        # not played yet.
        deadline = time.monotonic() + 60
        while storm.running() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not storm.running()

    for r in readers:
        assert r.error is None, f"reader crashed: {r.error!r}"

    # The storm must actually have exercised republication.
    assert len(storm.store.generations) > 2
    assert storm.store.generations == sorted(set(storm.store.generations))

    # Per-reader generation observations never move backwards.
    for r in readers:
        assert r.generations == sorted(r.generations)

    # Every observation replays bit-identically against an independent
    # kernel compiled from the archived LFTs of its own generation.
    archive = storm.publisher.lft_archive
    oracle_cache = {}
    ft = service.ft
    for r in readers:
        for generation, src, dst, answer in r.observations:
            assert generation in archive, (
                f"answer stamped with unpublished generation {generation}"
            )
            kernel = oracle_cache.get(generation)
            if kernel is None:
                kernel = RouteKernel.from_lfts(
                    storm.mgr.scheme, archive[generation]
                )
                oracle_cache[generation] = kernel
            try:
                oracle = kernel.path(
                    ft.node_from_pid(src), ft.node_from_pid(dst)
                )
            except RoutingError as exc:
                oracle = ("error", str(exc))
            assert answer == oracle, (
                f"torn read at generation {generation}: "
                f"{src}->{dst} gave {answer}, oracle says {oracle}"
            )

    # The final fabric is healthy: the last snapshot routes everything.
    final = storm.store.get()
    assert not final.down_links
    for src in range(ft.num_nodes):
        for dst in range(ft.num_nodes):
            if src != dst:
                final.trace(src, dst)


def _tcp_reader(port, nodes, seed, out):
    """One connection's (generation, op, src, dst, answer) stream, 3:1
    dlid:path; a path through a mid-repair black hole is an error frame
    with no generation, so it is left out."""
    from repro.service import ServiceClient
    from repro.service.client import ServiceError

    rng = np.random.default_rng(seed)
    seen = []
    with ServiceClient("127.0.0.1", port) as c:
        for i in range(QUERIES_PER_READER // 3):
            src = int(rng.integers(nodes))
            dst = int(rng.integers(nodes - 1))
            dst += dst >= src
            if i % 4 == 3:
                try:
                    resp = c.path(src, dst)
                except ServiceError:
                    continue
                answer = (resp["dlid"], resp["switches"], resp["ports"])
                seen.append((resp["generation"], "path", src, dst, answer))
            else:
                resp = c.dlid(src, dst)
                seen.append((resp["generation"], "dlid", src, dst, resp["dlid"]))
            time.sleep(READ_PAUSE_S)
    out[seed] = seen


def test_tcp_answers_follow_the_archive_under_storm():
    """Over the wire, under the same storm: each connection's
    generations never move backwards, and every answer equals a kernel
    compiled from the archived LFTs of the generation it names."""
    import asyncio

    from repro.service import RouteQueryServer, ServiceClient
    from repro.topology.labels import format_switch

    storm = LinkFlapStorm(
        4, 2, "mlid", flap_links=2, horizon_ns=120_000.0, pace_s=0.005,
        keep_lfts=True,
    )
    service = RouteQueryService(storm.store, storm=storm)
    server = RouteQueryServer(service, telemetry_interval_s=0.5)
    started = threading.Event()

    def serve():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_until_complete(server.serve_until_shutdown())
        loop.close()

    server_thread = threading.Thread(target=serve, daemon=True)
    server_thread.start()
    assert started.wait(10)
    nodes = service.ft.num_nodes
    out = {}
    try:
        with storm:
            readers = [
                threading.Thread(
                    target=_tcp_reader, args=(server.port, nodes, seed, out)
                )
                for seed in (21, 22)
            ]
            for r in readers:
                r.start()
            for r in readers:
                r.join()
            deadline = time.monotonic() + 60
            while storm.running() and time.monotonic() < deadline:
                time.sleep(0.005)
    finally:
        with ServiceClient("127.0.0.1", server.port, timeout_s=5.0) as c:
            c.shutdown()
        server_thread.join(timeout=10)
    assert not server_thread.is_alive()
    assert sorted(out) == [21, 22], "a reader crashed"
    # The connections saw the storm republish, not one snapshot.
    assert len({g for seen in out.values() for g, *_ in seen}) > 2

    archive = storm.publisher.lft_archive
    ft = service.ft
    oracles = {}
    for seen in out.values():
        generations = [g for g, *_ in seen]
        assert generations == sorted(generations)
        for generation, op, src, dst, answer in seen:
            kernel = oracles.get(generation)
            if kernel is None:
                kernel = oracles[generation] = RouteKernel.from_lfts(
                    storm.mgr.scheme, archive[generation]
                )
            if op == "dlid":
                assert answer == int(kernel.selected[src, dst])
                continue
            trace = kernel.path(ft.node_from_pid(src), ft.node_from_pid(dst))
            expected = (
                trace.dlid,
                [format_switch(*sw) for sw in trace.switches],
                list(trace.ports),
            )
            assert answer == expected, (generation, src, dst)


def test_zero_delta_sweeps_do_not_republish():
    """A sweep that changes no tables keeps the same generation, and
    the publisher treats it as a no-op (double-publish contract)."""
    art = get_artifacts(4, 2, "mlid")
    store = SnapshotStore()
    store.publish(art.snapshot())
    dup = RouteSnapshot(art.kernel, generation=0)
    assert store.publish(dup) is False
    assert store.stats()["noop_publishes"] == 1
    assert store.get().kernel is art.kernel


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), max_size=30))
def test_store_publish_contract(generations):
    """For any publish sequence: accepted generations are exactly the
    strictly-increasing ones; equal-to-current is a counted no-op;
    lower raises; the store always exposes the running maximum."""
    art = get_artifacts(4, 2, "mlid")
    store = SnapshotStore()
    current = None
    noops = 0
    accepted = []
    for g in generations:
        snap = RouteSnapshot(art.kernel, generation=g)
        if current is None or g > current:
            assert store.publish(snap) is True
            current = g
            accepted.append(g)
        elif g == current:
            assert store.publish(snap) is False
            noops += 1
        else:
            with pytest.raises(ValueError, match="monotonic"):
                store.publish(snap)
        if current is not None:
            assert store.get().generation == current
    assert store.generations == accepted
    stats = store.stats()
    assert stats["publishes"] == len(accepted)
    assert stats["noop_publishes"] == noops
