"""Wire-protocol tests: every op, error paths, telemetry, shutdown."""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import threading
import time

import pytest

from repro.ib.artifacts import get_artifacts
from repro.service import (
    RouteQueryServer,
    RouteQueryService,
    ServiceClient,
)
from repro.service.client import ServiceError
from repro.service.server import TELEMETRY_BACKLOG_BYTES
from repro.service.snapshot import SnapshotStore
from repro.topology.labels import format_switch


@pytest.fixture(scope="module")
def loop_errors():
    """Every context the served loop's exception handler received."""
    return []


@pytest.fixture(scope="module")
def served(loop_errors):
    """A static FT(4,2) service on an ephemeral port (module-scoped)."""
    art = get_artifacts(4, 2, "mlid")
    store = SnapshotStore()
    store.publish(art.snapshot())
    service = RouteQueryService(store)
    server = RouteQueryServer(service, telemetry_interval_s=0.05)
    started = threading.Event()

    def run():
        loop = asyncio.new_event_loop()
        loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_until_complete(server.serve_until_shutdown())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    yield art, service, server
    try:
        with ServiceClient("127.0.0.1", server.port, timeout_s=5.0) as c:
            c.shutdown()
    except (ConnectionError, OSError):
        pass
    thread.join(timeout=10)
    assert not thread.is_alive()


def _client(server) -> ServiceClient:
    return ServiceClient("127.0.0.1", server.port, timeout_s=10.0)


class TestWireOps:
    def test_ping_and_info(self, served):
        art, _, server = served
        with _client(server) as c:
            assert c.ping()["generation"] == 0
            info = c.info()
            assert info["m"] == 4 and info["n"] == 2
            assert info["scheme"] == "mlid"
            assert info["num_nodes"] == art.ft.num_nodes

    def test_dlid_and_path_match_artifacts(self, served):
        art, _, server = served
        matrix = art.scheme.dlid_matrix()
        with _client(server) as c:
            resp = c.dlid(0, 5)
            assert resp["dlid"] == int(matrix[0, 5])
            path = c.path(0, 5)
            trace = art.kernel.path(
                art.ft.node_from_pid(0), art.ft.node_from_pid(5)
            )
            assert path["dlid"] == trace.dlid
            assert path["switches"] == [
                format_switch(*sw) for sw in trace.switches
            ]
            assert path["ports"] == list(trace.ports)
            assert path["physical_ports"] == [p + 1 for p in trace.ports]

    def test_flows_and_load(self, served):
        art, _, server = served
        digits, level = "0", 0
        with _client(server) as c:
            flows = c.flows(digits, level, 0)
            k_src, _ = art.kernel.flows_crossing(0, 0)
            assert flows["count"] == len(k_src)
            assert not flows["truncated"]
            load = c.load(digits, level, 0)
            assert load["load"] == float(
                art.kernel.estimated_link_loads()[0, 0]
            )
            top = c.top_loads(3)
            assert len(top["top"]) == 3
            assert top["top"][0]["load"] >= top["top"][-1]["load"]

    def test_flows_limit_truncation(self, served):
        _, _, server = served
        with _client(server) as c:
            flows = c.flows("0", 0, 0, limit=2)
            assert len(flows["flows"]) == 2
            assert flows["truncated"]
            assert flows["count"] > 2

    def test_telemetry_oneshot(self, served):
        _, _, server = served
        with _client(server) as c:
            frame = c.telemetry()
            assert frame["type"] == "telemetry"
            assert frame["snapshots"]["generation"] == 0
            assert "link_load_top" in frame
            assert "queries" in frame

    def test_request_id_echo(self, served):
        _, _, server = served
        with _client(server) as c:
            resp = c.request("ping", id=42)
            assert resp["id"] == 42


class TestErrors:
    def test_unknown_op(self, served):
        _, _, server = served
        with _client(server) as c:
            with pytest.raises(ServiceError, match="unknown op"):
                c.request("frobnicate")

    def test_bad_pids(self, served):
        _, _, server = served
        with _client(server) as c:
            with pytest.raises(ServiceError, match="PIDs"):
                c.dlid(0, 999)
            with pytest.raises(ServiceError):
                c.dlid(3, 3)

    def test_unknown_switch(self, served):
        _, _, server = served
        with _client(server) as c:
            with pytest.raises(ServiceError, match="unknown switch"):
                c.load("9", 0, 0)

    def test_missing_field(self, served):
        _, _, server = served
        with _client(server) as c:
            with pytest.raises(ServiceError):
                c.request("dlid", src=0)  # no dst

    def test_bad_json_line(self, served):
        _, _, server = served
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            f = sock.makefile("rwb")
            f.write(b"this is not json\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["ok"] is False
            assert "bad JSON" in resp["error"]
            # The connection survives a malformed line.
            f.write(b'{"op": "ping"}\n')
            f.flush()
            assert json.loads(f.readline())["ok"] is True

    @pytest.mark.parametrize(
        "line, error, keeps_connection",
        [
            (b"[1, 2]\n", "must be a JSON object, got list", True),
            (b"\xff\xfe{}\n", "not UTF-8", True),
            (
                b'{"op": "ping", "pad": "' + b"x" * 100_000 + b'"}\n',
                "request line too long",
                False,
            ),
        ],
        ids=["non-object", "non-utf8", "oversized"],
    )
    def test_malformed_input_gets_error_frame(
        self, served, loop_errors, line, error, keeps_connection
    ):
        _, _, server = served
        errors_before = len(loop_errors)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            f = sock.makefile("rwb")
            f.write(line)
            f.flush()
            resp = json.loads(f.readline())
            assert resp["ok"] is False
            assert error in resp["error"]
            if keeps_connection:
                f.write(b'{"op": "ping"}\n')
                f.flush()
                assert json.loads(f.readline())["ok"] is True
            else:
                assert f.readline() == b""  # the server hung up
        with _client(server) as c:
            assert c.ping()["ok"] is True
        assert loop_errors[errors_before:] == []

    def test_errors_are_counted(self, served):
        _, service, server = served
        before = service.counters["errors"]
        with _client(server) as c:
            with pytest.raises(ServiceError):
                c.request("nope")
        assert service.counters["errors"] == before + 1


class TestTelemetrySubscription:
    def test_subscribe_pushes_frames(self, served):
        _, _, server = served
        with _client(server) as c:
            ack = c.subscribe()
            assert ack["interval_s"] == pytest.approx(0.05)
            frames = list(c.frames(2))
            assert all(f["type"] == "telemetry" for f in frames)
            assert all(f["snapshots"]["generation"] == 0 for f in frames)

    def test_unsubscribe_stops_frames(self, served):
        _, _, server = served
        with _client(server) as c:
            c.subscribe()
            next(iter(c.frames(1)))
            # A frame already in flight may interleave with the ack, so
            # read raw lines until the unsubscribe response shows up.
            c._file.write(b'{"op": "unsubscribe"}\n')
            c._file.flush()
            for _ in range(10):
                line = json.loads(c._file.readline())
                if line.get("op") == "unsubscribe":
                    assert line["ok"]
                    break
            else:
                pytest.fail("unsubscribe ack never arrived")
            # After the ack no more frames are pushed: plain
            # request/response traffic works undisturbed.  One frame
            # may still have been mid-write during the ack, so allow a
            # single stray line before the first ping response.
            for _ in range(3):
                c._file.write(b'{"op": "ping"}\n')
                c._file.flush()
                line = json.loads(c._file.readline())
                if line.get("op") != "ping":
                    line = json.loads(c._file.readline())
                assert line["op"] == "ping" and line["ok"]


def test_shutdown_op_stops_server():
    art = get_artifacts(4, 2, "mlid")
    store = SnapshotStore()
    store.publish(art.snapshot())
    server = RouteQueryServer(
        RouteQueryService(store), telemetry_interval_s=5.0
    )
    started = threading.Event()

    def run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_until_complete(server.serve_until_shutdown())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    with ServiceClient("127.0.0.1", server.port) as c:
        assert c.shutdown()["ok"]
    thread.join(timeout=10)
    assert not thread.is_alive()
    # The listener is really gone.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", server.port), timeout=1)


def _serve_in_thread(server, loop_errors):
    """Run ``server`` on its own event loop thread until it shuts down;
    the loop's exception handler appends to ``loop_errors``."""
    started = threading.Event()
    loops = []

    def run():
        loop = asyncio.new_event_loop()
        loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
        loops.append(loop)
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_until_complete(server.serve_until_shutdown())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10)
    return thread, loops[0]


def _static_server(**kwargs) -> RouteQueryServer:
    store = SnapshotStore()
    store.publish(get_artifacts(4, 2, "mlid").snapshot())
    return RouteQueryServer(RouteQueryService(store), **kwargs)


def test_shutdown_closes_idle_clients():
    """A shutdown from one client closes every other connection: an idle
    client reads EOF, and the server stops within 5 s instead of
    waiting for it to hang up."""
    loop_errors = []
    server = _static_server(telemetry_interval_s=5.0)
    thread, _ = _serve_in_thread(server, loop_errors)
    with socket.create_connection(("127.0.0.1", server.port), timeout=5) as idle:
        f = idle.makefile("rwb")
        f.write(b'{"op": "ping"}\n')
        f.flush()
        assert json.loads(f.readline())["ok"]  # the connection is being served
        started = time.monotonic()
        with ServiceClient("127.0.0.1", server.port, timeout_s=5.0) as c:
            assert c.shutdown()["ok"]
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert time.monotonic() - started < 5
        assert f.readline() == b""  # EOF, not a timeout
    gc.collect()
    assert loop_errors == []


class _StuckWriter:
    """A subscriber connection whose ``drain()`` never completes: every
    frame written to it stays unsent, on top of a backlog a few frames
    short of the bound."""

    def __init__(self):
        self.transport = self
        self.unsent = TELEMETRY_BACKLOG_BYTES - 16 * 1024
        self.closed = False

    def write(self, data: bytes) -> None:
        self.unsent += len(data)

    def get_write_buffer_size(self) -> int:
        return self.unsent

    async def drain(self) -> None:
        await asyncio.Event().wait()

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


def test_stuck_subscriber_is_dropped_and_others_keep_receiving():
    """One subscriber that never reads is disconnected once its unsent
    frames pass the bound; a reading subscriber keeps getting a frame
    every interval."""
    loop_errors = []
    server = _static_server(telemetry_interval_s=0.001)
    thread, loop = _serve_in_thread(server, loop_errors)
    stuck = _StuckWriter()
    try:
        with ServiceClient("127.0.0.1", server.port, timeout_s=2.0) as c:
            loop.call_soon_threadsafe(server._subscribers.add, stuck)
            c.subscribe()
            frames = list(c.frames(200))
            assert all(f["type"] == "telemetry" for f in frames)
            assert stuck.closed
            assert stuck not in server._subscribers
            assert stuck.unsent <= TELEMETRY_BACKLOG_BYTES
    finally:
        with ServiceClient("127.0.0.1", server.port, timeout_s=5.0) as c:
            c.shutdown()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert loop_errors == []
