"""The route-query server: asyncio TCP + the in-process client API.

:class:`RouteQueryService` is the in-process API — every query reads
**one** snapshot reference from the store and answers entirely from
it, so each response is internally consistent and stamped with the
generation it came from.  :class:`RouteQueryServer` puts that service
behind a line-delimited JSON protocol over TCP (one request object per
line, one response object per line; see DESIGN.md §13 for the schema)
and pushes telemetry frames to subscribed clients on a configurable
interval.

The server never blocks on repairs: the storm thread publishes
snapshots; the asyncio loop only ever swaps in the newest reference.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from typing import Dict, Optional, Tuple

from repro.service.snapshot import SnapshotStore
from repro.service.telemetry import telemetry_frame
from repro.topology.labels import format_switch

__all__ = [
    "RouteQueryService",
    "RouteQueryServer",
    "MAX_FLOWS_LISTED",
    "TELEMETRY_BACKLOG_BYTES",
]

#: ``flows`` responses list at most this many (src, dst) pairs unless
#: the request narrows it with ``limit`` (the count is always exact).
MAX_FLOWS_LISTED = 64


#: Longest request line the server reads, in bytes (asyncio's default
#: ``StreamReader`` limit).
_LINE_LIMIT = 64 * 1024

#: Most telemetry bytes a subscriber may leave unsent; one that falls
#: further behind is disconnected.
TELEMETRY_BACKLOG_BYTES = 1024 * 1024


async def _skip_line(reader: asyncio.StreamReader) -> None:
    """Consume input through the next newline, or to EOF."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


def _decode_request(line: bytes) -> Optional[dict]:
    """The request object on one protocol line (``None`` for a blank
    line); raises ``ValueError`` saying what is wrong with the line."""
    try:
        text = line.decode().strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"request is not UTF-8: {exc}") from None
    if not text:
        return None
    try:
        request = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ValueError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    return request


class RouteQueryService:
    """In-process route-query API over a snapshot store.

    ``storm`` (a :class:`~repro.service.storm.LinkFlapStorm`) is
    optional; without it the service answers from whatever snapshots
    the caller publishes (e.g. the static
    :func:`~repro.service.snapshot.baseline_snapshot`).
    """

    def __init__(self, store: SnapshotStore, *, storm=None):
        self.store = store
        self.storm = storm
        snap = store.get()  # the service is born serving
        self.ft = snap.kernel.ft
        self.scheme_name = snap.kernel.scheme.name
        self.counters: Counter = Counter()
        self._switch_index = {sw: i for i, sw in enumerate(self.ft.switches)}

    # ------------------------------------------------------------------
    # In-process client API (one store read per query)
    # ------------------------------------------------------------------
    def dlid(self, src: int, dst: int) -> dict:
        """DLID to reach ``dst`` from ``src`` under the served scheme."""
        self.counters["dlid"] += 1
        snap = self.store.get()
        return {"dlid": snap.dlid(src, dst), "generation": snap.generation}

    def path(self, src: int, dst: int, dlid: Optional[int] = None) -> dict:
        """Full hop path (selected DLID unless ``dlid`` is given)."""
        self.counters["path"] += 1
        snap = self.store.get()
        trace = snap.trace(src, dst, dlid=dlid)
        return {
            "dlid": trace.dlid,
            "hops": trace.hops,
            "switches": [format_switch(*sw) for sw in trace.switches],
            "ports": list(trace.ports),
            "physical_ports": [p + 1 for p in trace.ports],
            "generation": snap.generation,
        }

    def flows(
        self, switch: str, level: int, port: int, limit: Optional[int] = None
    ) -> dict:
        """Which (src, dst) flow classes cross the channel
        (switch, 0-based out-port)?  ``count`` is exact; the listed
        pairs are capped at ``limit`` (default
        :data:`MAX_FLOWS_LISTED`)."""
        self.counters["flows"] += 1
        snap = self.store.get()
        sw_id = self._resolve_switch(switch, level)
        src_ids, dst_ids = snap.flows_crossing(sw_id, port)
        cap = MAX_FLOWS_LISTED if limit is None else max(0, int(limit))
        return {
            "count": int(len(src_ids)),
            "flows": [
                [int(s), int(d)]
                for s, d in zip(src_ids[:cap], dst_ids[:cap])
            ],
            "truncated": len(src_ids) > cap,
            "generation": snap.generation,
        }

    def load(
        self,
        switch: Optional[str] = None,
        level: Optional[int] = None,
        port: Optional[int] = None,
        top: Optional[int] = None,
    ) -> dict:
        """Static link-load estimate: one channel, or the ``top`` k."""
        self.counters["load"] += 1
        snap = self.store.get()
        if top is not None:
            ft = self.ft
            return {
                "top": [
                    {
                        "switch": format_switch(*ft.switches[sw_id]),
                        "port": p,
                        "load": load,
                    }
                    for sw_id, p, load in snap.top_loads(int(top))
                ],
                "generation": snap.generation,
            }
        if switch is None or level is None or port is None:
            raise ValueError("load needs switch+level+port, or top=k")
        sw_id = self._resolve_switch(switch, level)
        return {
            "load": snap.link_load(sw_id, int(port)),
            "generation": snap.generation,
        }

    def telemetry(self) -> dict:
        """One telemetry frame."""
        self.counters["telemetry"] += 1
        return telemetry_frame(
            self.store, storm=self.storm, counters=self.counters
        )

    def info(self) -> dict:
        """Fabric + scheme identity and the current generation."""
        self.counters["info"] += 1
        snap = self.store.get()
        k = snap.kernel
        return {
            "m": k.m,
            "n": k.n,
            "scheme": self.scheme_name,
            "num_nodes": k.num_nodes,
            "num_switches": k.num_switches,
            "num_lids": k.num_lids,
            "generation": snap.generation,
        }

    # ------------------------------------------------------------------
    def _resolve_switch(self, digits: str, level: int) -> int:
        """Wire switch label (digit string + level) → switch row index."""
        try:
            label = (tuple(int(ch) for ch in str(digits).strip()), int(level))
        except ValueError:
            raise ValueError(f"bad switch digits {digits!r}") from None
        sw_id = self._switch_index.get(label)
        if sw_id is None:
            raise ValueError(f"unknown switch {digits!r} at level {level}")
        return sw_id

    # ------------------------------------------------------------------
    # Wire dispatch
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """One wire request → one wire response (never raises)."""
        op = request.get("op")
        try:
            if op == "dlid":
                payload = self.dlid(int(request["src"]), int(request["dst"]))
            elif op == "path":
                dlid = request.get("dlid")
                payload = self.path(
                    int(request["src"]),
                    int(request["dst"]),
                    dlid=None if dlid is None else int(dlid),
                )
            elif op == "flows":
                payload = self.flows(
                    request["switch"],
                    int(request.get("level", 0)),
                    int(request["port"]),
                    limit=request.get("limit"),
                )
            elif op == "load":
                payload = self.load(
                    switch=request.get("switch"),
                    level=request.get("level"),
                    port=request.get("port"),
                    top=request.get("top"),
                )
            elif op == "telemetry":
                payload = self.telemetry()
            elif op == "info":
                payload = self.info()
            elif op == "ping":
                self.counters["ping"] += 1
                snap = self.store.current
                payload = {
                    "generation": None if snap is None else snap.generation
                }
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:
            self.counters["errors"] += 1
            response = {"ok": False, "op": op, "error": str(exc)}
        else:
            response = {"ok": True, "op": op, **payload}
        if "id" in request:
            response["id"] = request["id"]
        return response


class RouteQueryServer:
    """Line-delimited JSON over TCP in front of a
    :class:`RouteQueryService`.

    Protocol ops: everything :meth:`RouteQueryService.handle` accepts,
    plus ``subscribe``/``unsubscribe`` (telemetry push on
    ``telemetry_interval_s``) and ``shutdown`` (stops the server; used
    by the CI smoke job for a clean exit).
    """

    def __init__(
        self,
        service: RouteQueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        telemetry_interval_s: float = 1.0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.telemetry_interval_s = telemetry_interval_s
        self._server: Optional[asyncio.AbstractServer] = None
        self._subscribers: set = set()
        # Open client connections: writer -> the task serving it.
        self._clients: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._shutdown = asyncio.Event()
        self._telemetry_task: Optional[asyncio.Task] = None
        self.connections = 0

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_LINE_LIMIT
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._telemetry_task = asyncio.ensure_future(self._telemetry_loop())
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`)."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Close the listener, the telemetry loop and all clients.

        Every open connection is closed, so an idle client reads EOF
        and its handler returns before the listener is awaited (which
        waits for every connection from Python 3.12 on).
        """
        self._shutdown.set()
        if self._telemetry_task is not None:
            self._telemetry_task.cancel()
            try:
                await self._telemetry_task
            except asyncio.CancelledError:
                pass
            self._telemetry_task = None
        if self._server is not None:
            self._server.close()
            handlers = [
                task
                for task in self._clients.values()
                if task is not asyncio.current_task()
            ]
            for writer in list(self._clients):
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    async def _telemetry_loop(self) -> None:
        """Push one frame to every subscriber per interval.

        Frames are queued on each connection without waiting for it to
        drain, so one subscriber that stops reading delays nobody.  A
        subscriber whose unsent bytes would pass
        :data:`TELEMETRY_BACKLOG_BYTES` is disconnected instead.
        """
        while True:
            await asyncio.sleep(self.telemetry_interval_s)
            if not self._subscribers:
                continue
            frame = self.service.telemetry()
            line = (json.dumps(frame) + "\n").encode()
            for writer in list(self._subscribers):
                if writer.is_closing():
                    self._subscribers.discard(writer)
                    continue
                unsent = writer.transport.get_write_buffer_size()
                if unsent + len(line) > TELEMETRY_BACKLOG_BYTES:
                    self._subscribers.discard(writer)
                    writer.close()
                    continue
                writer.write(line)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        self._clients[writer] = asyncio.current_task()
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: an unterminated last line
                except asyncio.LimitOverrunError:
                    # Longer than the reader's limit.  Answer, drop the
                    # line (closing on unread input would reset the
                    # connection before the client reads the answer),
                    # and hang up.
                    response = {
                        "ok": False,
                        "error": f"request line too long (limit {_LINE_LIMIT} bytes)",
                    }
                    writer.write((json.dumps(response) + "\n").encode())
                    await writer.drain()
                    await _skip_line(reader)
                    break
                if not line:
                    break
                try:
                    request = _decode_request(line)
                except ValueError as exc:
                    response = {"ok": False, "error": str(exc)}
                else:
                    if request is None:
                        continue
                    response = await self._dispatch(request, writer)
                    if response is None:  # shutdown acknowledged
                        writer.write(
                            (json.dumps({"ok": True, "op": "shutdown"}) + "\n").encode()
                        )
                        await writer.drain()
                        self._shutdown.set()
                        break
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        except ConnectionError:
            pass  # the client hung up, or stop() closed the connection
        finally:
            self._clients.pop(writer, None)
            self._subscribers.discard(writer)
            writer.close()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> Optional[dict]:
        op = request.get("op")
        if op == "shutdown":
            return None
        if op == "subscribe":
            self._subscribers.add(writer)
            return {
                "ok": True,
                "op": op,
                "interval_s": self.telemetry_interval_s,
            }
        if op == "unsubscribe":
            self._subscribers.discard(writer)
            return {"ok": True, "op": op}
        return self.service.handle(request)
