"""Blocking socket client for the route-query server.

One TCP connection, line-delimited JSON both ways.  Thin by design:
:meth:`ServiceClient.request` sends one request object and returns the
matching response dict; the convenience methods just name the ops.
Raises :class:`ServiceError` when the server answers ``ok: false``, so
callers deal in payloads, not envelopes.

Not thread-safe — one client per thread.
"""

from __future__ import annotations

import json
import socket
from typing import Iterator, Optional

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The server answered ``ok: false``; carries its error message."""


class ServiceClient:
    """Blocking line-delimited JSON client.

    Usage::

        with ServiceClient(host, port) as c:
            dlid = c.dlid(0, 5)["dlid"]
            hops = c.path(0, 5)["switches"]
    """

    def __init__(self, host: str, port: int, *, timeout_s: float = 10.0):
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rwb")

    # ------------------------------------------------------------------
    def request(self, op: str, **fields) -> dict:
        """Send one request, return the server's payload dict.

        Raises :class:`ServiceError` on an ``ok: false`` response and
        ``ConnectionError`` if the server hangs up mid-request.
        """
        fields["op"] = op
        self._file.write((json.dumps(fields) + "\n").encode())
        self._file.flush()
        return self._read_response()

    def _read_response(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok", False):
            raise ServiceError(response.get("error", "unknown server error"))
        return response

    # -- convenience ops ----------------------------------------------
    def ping(self) -> dict:
        return self.request("ping")

    def info(self) -> dict:
        return self.request("info")

    def dlid(self, src: int, dst: int) -> dict:
        return self.request("dlid", src=src, dst=dst)

    def path(self, src: int, dst: int, dlid: Optional[int] = None) -> dict:
        fields = {"src": src, "dst": dst}
        if dlid is not None:
            fields["dlid"] = dlid
        return self.request("path", **fields)

    def flows(
        self, switch: str, level: int, port: int, limit: Optional[int] = None
    ) -> dict:
        fields = {"switch": switch, "level": level, "port": port}
        if limit is not None:
            fields["limit"] = limit
        return self.request("flows", **fields)

    def load(self, switch: str, level: int, port: int) -> dict:
        return self.request("load", switch=switch, level=level, port=port)

    def top_loads(self, k: int = 5) -> dict:
        return self.request("load", top=k)

    def telemetry(self) -> dict:
        return self.request("telemetry")

    def shutdown(self) -> dict:
        """Ask the server to stop (it acknowledges, then closes)."""
        return self.request("shutdown")

    # -- telemetry subscription ---------------------------------------
    def subscribe(self) -> dict:
        """Opt in to periodic telemetry pushes on this connection."""
        return self.request("subscribe")

    def frames(self, count: int) -> Iterator[dict]:
        """Yield ``count`` pushed telemetry frames (after
        :meth:`subscribe`).  Interleaved request/response traffic on a
        subscribed connection is not supported — use a dedicated
        connection for telemetry."""
        for _ in range(count):
            line = self._file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            yield json.loads(line)

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
